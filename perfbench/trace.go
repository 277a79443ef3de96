package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share its ID (the wire tag for service requests, the op index
// for deque calls) and worker; a child names its parent span.
type span struct {
	ID     uint64 `json:"id"`
	Worker int    `json:"worker"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the benchmark process started
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans one worker keeps in memory.
const maxSpans = 1 << 15

// spanBuf holds one worker's spans until the run ends.
type spanBuf []span

func (b *spanBuf) add(s span) {
	if len(*b) < maxSpans {
		*b = append(*b, s)
	}
}

// writeSpans writes the run's spans as JSON lines to
// <out>/spans-<workload>-seed<seed>.jsonl.
func writeSpans(cfg config, spans []span) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
