package main

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	dq "repro"
	"repro/internal/wire"
)

// startServer runs an in-process schedd on an ephemeral port and returns
// it with its address. The server is shut down with the test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// schedResult is one worker's ledger: jobs the server admitted, jobs it
// explicitly shed with StatusFull (never admitted, must never pop), jobs
// this worker popped from either end, and admissions whose responses
// were thrown away by an abrupt disconnect (landed-or-not unknown).
type schedResult struct {
	admitted []uint32
	shed     int
	popped   []uint32
	maybe    []uint32
	err      error
}

// TestSchedE2EConservation is the scheduler's conservation gate: 64
// concurrent connections submit jobs across all priority bands into
// tiny-capacity bands — an ErrFull shedding storm — while popping from
// both ends, and a few clients hang up mid-stream without reading their
// final responses. Afterwards the queue drains and every submitted job
// must be exactly-once popped or explicitly shed: admitted jobs pop
// exactly once, shed jobs never appear, nothing pops twice, nothing
// appears from thin air.
func TestSchedE2EConservation(t *testing.T) {
	const (
		workers = 64
		rounds  = 50
		bands   = 8
		bound   = 2
	)
	srv, addr := startServer(t, Config{
		Bands:     bands,
		BandBound: bound,
		Choice:    2,
		MaxConns:  workers + 4,
		ShardOpts: []dq.Option{
			dq.WithNodeSize(8),
			dq.WithCapacity(64), // per band: 64 submitters overrun this fast
		},
	})

	results := make([]schedResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = runSchedWorker(addr, w, rounds)
		}(w)
	}
	wg.Wait()

	popSeen := make(map[uint32]bool)
	record := func(v uint32) {
		if popSeen[v] {
			t.Fatalf("job %#x popped twice", v)
		}
		popSeen[v] = true
	}
	universe := make(map[uint32]bool) // everything that may legally appear
	admitted := make(map[uint32]bool)
	totalShed := 0
	for w := range results {
		r := &results[w]
		if r.err != nil {
			t.Fatalf("worker %d: %v", w, r.err)
		}
		for _, v := range r.admitted {
			admitted[v] = true
			universe[v] = true
		}
		for _, v := range r.maybe {
			universe[v] = true
		}
		for _, v := range r.popped {
			record(v)
		}
		totalShed += r.shed
	}
	if totalShed == 0 {
		t.Fatal("no job was shed: the storm never tripped StatusFull, gate is vacuous")
	}

	// Quiescent drain, alternating ends: PopMin/PopMax return empty only
	// after every band came up empty.
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; ; i++ {
		var (
			v  uint32
			ok bool
		)
		if i%2 == 0 {
			v, _, ok, err = c.PopMin()
		} else {
			v, _, ok, err = c.PopMax()
		}
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if _, _, ok, err := c.PopMin(); err != nil {
				t.Fatal(err)
			} else if ok {
				t.Fatal("one end certified empty while the other still held work")
			}
			break
		}
		record(v)
	}

	for v := range admitted {
		if !popSeen[v] {
			t.Fatalf("admitted job %#x never popped", v)
		}
	}
	for v := range popSeen {
		if !universe[v] {
			t.Fatalf("popped job %#x was never submitted", v)
		}
	}
	if n := srv.DEPQ().LenExact(); n != 0 {
		t.Fatalf("queue holds %d jobs after full drain", n)
	}

	// The inversion gate: the observed worst case must respect the
	// configured band bound, end to end over the wire.
	ds, err := c.Depq()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Bands != bands || ds.BandBound != bound || ds.Choice != 2 {
		t.Fatalf("Depq gauges = %+v, want bands %d bound %d choice 2", ds, bands, bound)
	}
	if dq.MetricsEnabled {
		if ds.InvMax > bound {
			t.Fatalf("observed inversion %d exceeds band bound %d", ds.InvMax, bound)
		}
		if m := srv.DEPQ().DepqMetrics(); m.Pops() == 0 {
			t.Fatal("no pop recorded an inversion estimate")
		}
	}
}

// runSchedWorker drives one connection: submit jobs across the band
// spectrum (value-tagged, globally unique), interleaving PopMin (worker
// role) and PopMax (shedder role). Workers 60+ are rude: halfway through
// they pipeline a final submit burst, flush, and close without reading
// the responses — those jobs may or may not have been admitted.
func runSchedWorker(addr string, w, rounds int) schedResult {
	var res schedResult
	c, err := wire.Dial(addr)
	if err != nil {
		res.err = err
		return res
	}
	defer c.Close()

	seq := uint32(0)
	next := func() uint32 {
		seq++
		return uint32(w)<<20 | seq
	}
	rude := w >= 60
	for r := 0; r < rounds; r++ {
		if rude && r == rounds/2 {
			for i := 0; i < 8; i++ {
				v := next()
				req := wire.Request{Op: wire.OpPushPrio, Key: uint64(i % 8), Count: 1, Values: []uint32{v}}
				if _, err := c.Send(&req); err != nil {
					res.err = err
					return res
				}
				res.maybe = append(res.maybe, v)
			}
			if err := c.Flush(); err != nil {
				res.err = err
				return res
			}
			return res // abrupt close without Recv: responses are lost
		}
		v := next()
		prio := uint64((w + r) % 8)
		err := c.PushPrio(prio, v)
		switch {
		case err == nil:
			res.admitted = append(res.admitted, v)
		case errors.Is(err, dq.ErrFull):
			res.shed++ // explicitly shed: never admitted, must never pop
		default:
			res.err = err
			return res
		}
		if r%2 == 1 {
			var (
				got uint32
				ok  bool
			)
			if r%4 == 1 {
				got, _, ok, err = c.PopMin()
			} else {
				got, _, ok, err = c.PopMax()
			}
			if err != nil {
				res.err = err
				return res
			}
			if ok {
				res.popped = append(res.popped, got)
			}
		}
	}
	return res
}

// TestSchedStrictPriority serves with band-bound 0 — a strict priority
// scheduler — and checks the wire-visible ordering contract on a
// quiescent queue: PopMin returns jobs in ascending band order, FIFO
// within a band; PopMax descending, LIFO within a band.
func TestSchedStrictPriority(t *testing.T) {
	_, addr := startServer(t, Config{Bands: 4, BandBound: 0, MaxConns: 4})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for seq := uint32(0); seq < 2; seq++ {
		for b := uint64(0); b < 4; b++ {
			if err := c.PushPrio(b, uint32(b)*100+seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	for b := uint32(0); b < 2; b++ {
		for seq := uint32(0); seq < 2; seq++ {
			v, band, ok, err := c.PopMin()
			if err != nil || !ok || band != b || v != b*100+seq {
				t.Fatalf("PopMin = (%d, %d, %v, %v), want (%d, %d, true, nil)", v, band, ok, err, b*100+seq, b)
			}
		}
	}
	for b := uint32(3); b >= 2; b-- {
		for seq := uint32(1); ; seq-- {
			v, band, ok, err := c.PopMax()
			if err != nil || !ok || band != b || v != b*100+seq {
				t.Fatalf("PopMax = (%d, %d, %v, %v), want (%d, %d, true, nil)", v, band, ok, err, b*100+seq, b)
			}
			if seq == 0 {
				break
			}
		}
	}
	if _, _, ok, err := c.PopMin(); err != nil || ok {
		t.Fatalf("PopMin after drain = (ok %v, err %v), want empty", ok, err)
	}
}

// TestSchedRejectsPoolOps checks the op-set boundary: the plain deque
// ops served by cmd/dequed answer StatusBad here instead of silently
// succeeding around the priority contract.
func TestSchedRejectsPoolOps(t *testing.T) {
	_, addr := startServer(t, Config{Bands: 2, MaxConns: 2})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, req := range []wire.Request{
		{Op: wire.OpPush, Side: wire.Left, Count: 1, Values: []uint32{1}},
		{Op: wire.OpPop, Side: wire.Right},
		{Op: wire.OpPushN, Side: wire.Left, Count: 2, Values: []uint32{1, 2}},
		{Op: wire.OpPopN, Side: wire.Right, Count: 4},
		{Op: wire.OpRelax},
		{Op: 99},
	} {
		resp, err := c.Do(&req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != wire.StatusBad {
			t.Fatalf("op %d: status %d, want StatusBad", req.Op, resp.Status)
		}
	}
	// The connection stays healthy for scheduler ops.
	if err := c.PushPrio(0, 7); err != nil {
		t.Fatal(err)
	}
	if v, band, ok, err := c.PopMin(); err != nil || !ok || v != 7 || band != 0 {
		t.Fatalf("PopMin = (%d, %d, %v, %v), want (7, 0, true, nil)", v, band, ok, err)
	}
}

// TestSchedHandleFreelist runs far more sequential connections than
// MaxConns: registration is permanent per band, so this only works if
// handles are parked and reborrowed across connections.
func TestSchedHandleFreelist(t *testing.T) {
	_, addr := startServer(t, Config{Bands: 2, MaxConns: 2})
	for i := 0; i < 20; i++ {
		c, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.PushPrio(uint64(i%2), uint32(i)); err != nil {
			t.Fatalf("conn %d push: %v", i, err)
		}
		if _, _, ok, err := c.PopMin(); err != nil || !ok {
			t.Fatalf("conn %d pop: ok=%v err=%v", i, ok, err)
		}
		c.Flush()
		c.Close()
	}
}

// TestSchedGracefulDrain checks jobs survive a polite shutdown: what was
// admitted before the drain is still resident after it.
func TestSchedGracefulDrain(t *testing.T) {
	srv, err := NewServer(Config{Bands: 4, MaxConns: 4})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := c.PushPrio(uint64(i%4), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()
	c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful Shutdown = %v, want nil", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve = %v", err)
	}
	if n := srv.DEPQ().LenExact(); n != 100 {
		t.Fatalf("queue lost jobs across drain: LenExact = %d, want 100", n)
	}
}

// TestSchedHardDrainTimeout: a client that never hangs up trips the drain
// deadline; Shutdown force-closes it and reports ctx.Err(), and the jobs
// admitted before the drain are all still resident.
func TestSchedHardDrainTimeout(t *testing.T) {
	srv, err := NewServer(Config{Bands: 4, MaxConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 50; i++ {
		if err := c.PushPrio(uint64(i%4), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The client lingers: no Close, no more frames.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hard Shutdown = %v, want DeadlineExceeded", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve = %v", err)
	}
	// The force-closed connection surfaces as a transport error.
	if err := c.Ping(); err == nil {
		t.Fatal("ping on force-closed connection succeeded")
	}
	if n := srv.DEPQ().LenExact(); n != 50 {
		t.Fatalf("queue lost jobs across hard drain: LenExact = %d, want 50", n)
	}
}
