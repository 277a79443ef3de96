// Package server is the connection engine under cmd/dequed and cmd/schedd:
// it serves the internal/wire protocol over TCP on behalf of a front-end
// built over a sharded deque pool (Pool, Relaxed or DEPQ).
//
// The engine owns everything that does not depend on the front-end: the
// accept loop, the permanent-registration handle freelist, the pipelined
// strictly ordered request loop, graceful drain with a hard-cancel
// fallback, per-connection service-time histograms, the ops every server
// answers alike (OpPing, OpLen, OpStats, StatusBad for the rest), and —
// in Run — listening, the metrics endpoint, the flight dump, signal
// handling and the final snapshot. A binary supplies a Handle whose Apply
// serves its own op set, and nothing else.
package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	dq "repro"
	"repro/internal/obs"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// Handle is one connection's accessor to the front-end: the op-specific
// half of the engine/apply contract. The engine gives each Handle to one
// connection at a time and calls it only from that connection's goroutine.
type Handle interface {
	// Apply serves one validated request whose op the engine does not
	// answer itself. resp arrives with the request's tag, Count 0, no
	// values and Status StatusBad; Apply sets Status for every op it
	// serves and leaves an op it does not serve untouched, so that op is
	// answered StatusBad. Blocking operations take ctx, which is cancelled
	// only by a hard shutdown.
	Apply(ctx context.Context, req *wire.Request, resp *wire.Response)
	// Flush parks the handle before it returns to the freelist: cached
	// slab capacity goes back and pending node retires drain, so an idle
	// handle neither strands slab indices nor stalls recycling.
	Flush()
}

// Config wires an Engine to its front-end.
type Config struct {
	Name     string           // binary name: log prefix and Prometheus series prefix
	Pool     *dq.Pool[uint32] // backing pool: OpLen, metrics, latency and flight data
	MaxConns int              // concurrent connection (= handle) cap; must be > 0
	// Register registers one new front-end handle. Registration is
	// permanent, so the engine calls it at most MaxConns times.
	Register func() Handle
	// WriteProm writes the front-end's own Prometheus block (relaxation or
	// inversion series) after the pool's; nil writes nothing.
	WriteProm func(io.Writer) error
}

// Engine serves the wire protocol for one front-end. One goroutine per
// connection; each borrows a Handle from a fixed freelist for the
// connection's lifetime — handle registration is permanent (each shard
// admits at most MaxThreads handles, ever), so the freelist is what lets
// connection churn run forever on a bounded pool.
type Engine struct {
	cfg Config

	// ctx cancels in-flight blocked operations on hard shutdown.
	ctx    context.Context
	cancel context.CancelFunc

	// Handle freelist: acquire prefers a parked handle, registers a new
	// one while under the cap, and otherwise waits for a connection to
	// finish. cap(handles) == MaxConns so release never blocks.
	handles    chan slot
	hmu        sync.Mutex
	registered int

	// latReg holds per-connection service-time recorders (the "service"
	// latency class: frame decoded → reply flushed, queueing included,
	// sampled 1 frame in obs.DefaultLatSample). Deque-level classes live
	// in the pool; latencySnapshot merges both.
	latReg obs.LatRegistry

	lnMu sync.Mutex
	ln   net.Listener

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// slot is a freelist entry: a front-end handle plus the single-writer
// service-time histogram of the connection holding it and that
// histogram's sampler, which carries over from one connection to the next.
type slot struct {
	h       Handle
	lat     *obs.LatRec
	latLeft uint64           // frames until the next service sample
	latRng  xrand.SplitMix64 // draws each re-arm; see serveConn
}

// New builds an engine over cfg. It serves nothing until Serve or Run.
func New(cfg Config) *Engine {
	ctx, cancel := context.WithCancel(context.Background())
	return &Engine{
		cfg:     cfg,
		ctx:     ctx,
		cancel:  cancel,
		handles: make(chan slot, cfg.MaxConns),
		conns:   make(map[net.Conn]struct{}),
	}
}

// Pool returns the backing pool.
func (e *Engine) Pool() *dq.Pool[uint32] { return e.cfg.Pool }

// latencySnapshot returns the exact merged latency histograms of the
// whole service: every shard's per-op classes, the pool-level routing
// classes, and the engine's per-connection service times.
func (e *Engine) latencySnapshot() *dq.LatSnapshotSet {
	set := e.latReg.Merge()
	set.Merge(e.cfg.Pool.LatencySnapshot())
	return set
}

// Serve accepts connections on ln until the listener closes (Shutdown
// does that). A closed listener is a clean return, not an error.
func (e *Engine) Serve(ln net.Listener) error {
	e.lnMu.Lock()
	e.ln = ln
	e.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		e.connMu.Lock()
		e.conns[conn] = struct{}{}
		e.connMu.Unlock()
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.serveConn(conn)
			e.connMu.Lock()
			delete(e.conns, conn)
			e.connMu.Unlock()
		}()
	}
}

// Shutdown drains gracefully: the listener closes (no new connections),
// existing connections keep being answered until they hang up, and only
// once ctx expires are in-flight operations cancelled and connections
// force-closed. Returns nil on a clean drain, ctx.Err() on the hard path.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.lnMu.Lock()
	if e.ln != nil {
		e.ln.Close()
	}
	e.lnMu.Unlock()

	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Hard stop: abort blocked Ctx operations, then unblock reads.
	e.cancel()
	e.connMu.Lock()
	for c := range e.conns {
		c.Close()
	}
	e.connMu.Unlock()
	<-done
	return ctx.Err()
}

// acquire borrows a handle for one connection's lifetime.
func (e *Engine) acquire() (slot, error) {
	select {
	case s := <-e.handles:
		return s, nil
	default:
	}
	e.hmu.Lock()
	if e.registered < e.cfg.MaxConns {
		e.registered++
		seed := uint64(e.registered)
		e.hmu.Unlock()
		s := slot{h: e.cfg.Register(), lat: e.latReg.NewRec(), latRng: *xrand.NewSplitMix64(seed)}
		s.latLeft = s.latRng.Period(obs.DefaultLatSample)
		return s, nil
	}
	e.hmu.Unlock()
	select {
	case s := <-e.handles:
		return s, nil
	case <-e.ctx.Done():
		return slot{}, e.ctx.Err()
	}
}

// serveConn runs one connection's request loop: read a frame, apply it,
// queue the response, and flush only when the read buffer runs dry —
// that last rule is what makes pipelining pay (one flush per burst, not
// per frame). Frames are decoded from the read buffer and encoded into
// the write buffer in place, and the service clock is read for one frame
// in obs.DefaultLatSample, re-armed at random intervals (xrand.Period)
// exactly as the pool's pool_op class is: two clock reads per frame cost
// more than the frame's own decode. Any read error — clean EOF,
// mid-frame disconnect, protocol desync — ends the connection; the deque
// state is always consistent because every accepted operation completed
// before its response was queued.
func (e *Engine) serveConn(conn net.Conn) {
	defer conn.Close()
	s, err := e.acquire()
	if err != nil {
		return // shutting down
	}
	defer func() { s.h.Flush(); e.handles <- s }()

	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	var (
		req     wire.Request
		resp    wire.Response
		scratch []byte
	)
	for {
		scratch, err = wire.ReadRequest(br, &req, scratch)
		if err != nil {
			return
		}
		var svc time.Time
		if obs.Enabled {
			s.latLeft--
			if s.latLeft == 0 {
				s.latLeft = s.latRng.Period(obs.DefaultLatSample)
				svc = time.Now()
			}
		}
		resp.Tag = req.Tag
		resp.Count = 0
		resp.Values = resp.Values[:0]
		e.apply(s.h, &req, &resp)
		if err := wire.WriteResponse(bw, &resp); err != nil {
			return
		}
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
		// Service time spans frame decoded → reply handed to the kernel
		// (or queued behind a pipelined burst) — the server-side half of
		// what a closed-loop client observes as round-trip latency.
		if obs.Enabled && !svc.IsZero() {
			s.lat.Record(obs.LatService, uint64(time.Since(svc)))
		}
	}
}

// apply answers the ops every server serves alike and hands the rest to
// the connection's handle. Statuses follow wire.StatusOf: the deque's
// error contract crosses the wire unchanged.
func (e *Engine) apply(h Handle, req *wire.Request, resp *wire.Response) {
	if st := req.Validate(); st != wire.StatusOK {
		resp.Status = st
		return
	}
	switch req.Op {
	case wire.OpPing:
		resp.Status = wire.StatusOK
	case wire.OpLen:
		resp.Status = wire.StatusOK
		resp.Count = uint32(e.cfg.Pool.LenExact())
	case wire.OpStats:
		resp.Status = wire.StatusOK
		resp.Values, resp.Count = wire.AppendOpStats(resp.Values, e.latencySnapshot())
	default:
		// Validate admits every op the protocol knows, but each front-end
		// serves only its own family; an op the handle leaves alone must
		// not fall through to a StatusOK that did nothing.
		resp.Status = wire.StatusBad
		h.Apply(e.ctx, req, resp)
	}
}
