package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"
	"testing/iotest"
)

// FuzzReadRequest feeds arbitrary byte streams through the frame decoder
// and, for every frame that decodes, checks that Validate's verdict is
// total (never panics) and that accepted frames re-encode to a stream the
// decoder reads back identically — decode/encode is the identity on the
// accepted set. Each stream is also decoded a second time one byte per
// Read through the smallest bufio buffer, where every frame straddles
// refills and any batch takes the copying path; both decodes must agree
// frame for frame. Seeds cover every op code, with extra malformed shapes
// for the DEPQ family (payloads and counts on payload-less frames), so a
// regression in the new validation arms is caught by the seed corpus
// alone even when the fuzzer only runs it once.
func FuzzReadRequest(f *testing.F) {
	seed := func(req Request) {
		f.Add(AppendRequest(nil, &req))
	}
	seed(Request{Op: OpPing})
	seed(Request{Op: OpLen, Tag: 7})
	seed(Request{Op: OpPush, Side: Left, Key: 42, Count: 1, Values: []uint32{0xDEADBEEF}})
	seed(Request{Op: OpPop, Side: Right, Key: ^uint64(0)})
	seed(Request{Op: OpPushN, Side: Right, Key: 9, Count: 3, Values: []uint32{1, 2, 3}})
	seed(Request{Op: OpPopN, Side: Left, Count: 128})
	seed(Request{Op: OpRelax})
	seed(Request{Op: OpStats})
	// DEPQ family — well-formed...
	seed(Request{Op: OpPushPrio, Key: 3, Count: 1, Values: []uint32{0xCAFE}})
	seed(Request{Op: OpPopMin, Tag: 11})
	seed(Request{Op: OpPopMax, Tag: 12})
	seed(Request{Op: OpDepq, Tag: 13})
	// ...and malformed: payloads, counts, and sides on payload-less
	// frames, plus the first unknown op past the family.
	seed(Request{Op: OpPushPrio, Side: Right, Count: 1, Values: []uint32{1}})
	seed(Request{Op: OpPushPrio, Count: 2, Values: []uint32{1, 2}})
	seed(Request{Op: OpPopMin, Values: []uint32{1}})
	seed(Request{Op: OpPopMin, Count: 9})
	seed(Request{Op: OpPopMax, Side: Right})
	seed(Request{Op: OpDepq, Values: []uint32{1, 2, 3}})
	seed(Request{Op: OpDepq + 1})
	// Truncated and oversized raw streams.
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x12})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00})
	// A MaxBatch push, larger than any read buffer, and a frame that
	// straddles the end of the default 4096-byte buffer behind a batch.
	f.Add(AppendRequest(nil, &Request{Op: OpPushN, Count: MaxBatch, Values: make([]uint32, MaxBatch)}))
	f.Add(AppendRequest(AppendRequest(nil, &Request{Op: OpPushN, Count: 1017, Values: make([]uint32, 1017)}),
		&Request{Op: OpPush, Count: 1, Values: []uint32{0xFEED}}))

	f.Fuzz(func(t *testing.T, stream []byte) {
		br := bufio.NewReader(bytes.NewReader(stream))
		slow := bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(stream)), 16)
		var req, other Request
		var scratch, otherScratch []byte
		for {
			var err, otherErr error
			scratch, err = ReadRequest(br, &req, scratch)
			otherScratch, otherErr = ReadRequest(slow, &other, otherScratch)
			if (err == nil) != (otherErr == nil) || errors.Is(err, io.EOF) != errors.Is(otherErr, io.EOF) ||
				errors.Is(err, ErrFrame) != errors.Is(otherErr, ErrFrame) {
				t.Fatalf("decoders disagree: %v with a 4096-byte buffer, %v byte by byte", err, otherErr)
			}
			if err != nil {
				if err == io.EOF {
					return // clean end of stream
				}
				return // malformed tail: rejected without panic is the contract
			}
			if other.Tag != req.Tag || other.Op != req.Op || other.Side != req.Side ||
				other.Key != req.Key || other.Count != req.Count || !slices.Equal(other.Values, req.Values) {
				t.Fatalf("decoders disagree: %+v with a 4096-byte buffer, %+v byte by byte", req, other)
			}
			st := req.Validate()
			if st != StatusOK && st != StatusBad {
				t.Fatalf("Validate returned %d for %+v, want StatusOK or StatusBad", st, req)
			}
			if st != StatusOK {
				continue
			}
			// Accepted frames survive a re-encode round trip bit-exactly.
			re := AppendRequest(nil, &req)
			var got Request
			if _, err := ReadRequest(bufio.NewReader(bytes.NewReader(re)), &got, nil); err != nil {
				t.Fatalf("re-decode of accepted frame failed: %v (%+v)", err, req)
			}
			if got.Tag != req.Tag || got.Op != req.Op || got.Side != req.Side ||
				got.Key != req.Key || got.Count != req.Count || len(got.Values) != len(req.Values) {
				t.Fatalf("round trip changed frame: %+v -> %+v", req, got)
			}
			for i := range req.Values {
				if got.Values[i] != req.Values[i] {
					t.Fatalf("round trip changed value %d: %+v -> %+v", i, req, got)
				}
			}
		}
	})
}
