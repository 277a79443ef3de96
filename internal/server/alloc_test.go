package server

import (
	"bufio"
	"context"
	"net"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// window is the pipelined burst the allocation guards and
// BenchmarkEngineWindow send: alternating single pushes and pops, flushed
// once, then every reply read back.
const window = 16

// stackConn is an allocation-free front-end handle: OpPush and OpPop on
// a preallocated LIFO, so any allocation a window makes is the engine's
// or the wire's.
type stackConn struct{ vals []uint32 }

func (c *stackConn) Apply(_ context.Context, req *wire.Request, resp *wire.Response) {
	switch req.Op {
	case wire.OpPush:
		c.vals = append(c.vals, req.Values[0])
		resp.Status = wire.StatusOK
		resp.Count = 1
	case wire.OpPop:
		if len(c.vals) == 0 {
			resp.Status = wire.StatusEmpty
			return
		}
		resp.Values = append(resp.Values, c.vals[len(c.vals)-1])
		c.vals = c.vals[:len(c.vals)-1]
		resp.Status = wire.StatusOK
		resp.Count = 1
	}
}

func (c *stackConn) Flush() {}

// pipeEngine serves one engine connection over net.Pipe with a stackConn
// handle and returns the client end.
func pipeEngine(tb testing.TB) *wire.Client {
	tb.Helper()
	e := New(Config{
		Name:     "alloc",
		MaxConns: 1,
		Register: func() Handle { return &stackConn{vals: make([]uint32, 0, window)} },
	})
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.serveConn(sc)
	}()
	tb.Cleanup(func() {
		cc.Close()
		<-done
	})
	return wire.NewClient(cc)
}

// roundTrip sends one window of alternating pushes and pops, flushes,
// and reads every reply.
func roundTrip(tb testing.TB, c *wire.Client) {
	var one [1]uint32
	for i := 0; i < window; i++ {
		req := wire.Request{Op: wire.OpPop, Side: wire.Right}
		if i%2 == 0 {
			one[0] = uint32(i)
			req = wire.Request{Op: wire.OpPush, Side: wire.Left, Count: 1, Values: one[:]}
		}
		if _, err := c.Send(&req); err != nil {
			tb.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < window; i++ {
		resp, err := c.Recv()
		if err != nil {
			tb.Fatal(err)
		}
		if resp.Status != wire.StatusOK {
			tb.Fatalf("reply %d: status %d", i, resp.Status)
		}
	}
}

// warmWindows runs enough windows first that every lazily grown buffer
// has its size and the service sampler (one frame in 1024 on average,
// never more than 2047 apart) has recorded at least once.
const warmWindows = 4096 / window

// TestEngineWindowNoAllocs is the engine's allocation guard: after
// warm-up, a pipelined window through the engine — client encode, server
// decode, apply, reply encode, flush, client decode — allocates nothing.
func TestEngineWindowNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	c := pipeEngine(t)
	for i := 0; i < warmWindows; i++ {
		roundTrip(t, c)
	}
	if allocs := testing.AllocsPerRun(200, func() { roundTrip(t, c) }); allocs != 0 {
		t.Fatalf("%.2f allocs per %d-request window, want 0", allocs, window)
	}
}

// TestClientRoundNoAllocs guards the client alone: a Send/Flush/Recv
// round against a bare responder that answers each request from a
// preencoded reply allocates nothing after warm-up.
func TestClientRoundNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		br, bw := bufio.NewReader(sc), bufio.NewWriter(sc)
		var req wire.Request
		var scratch []byte
		for {
			var err error
			if scratch, err = wire.ReadRequest(br, &req, scratch); err != nil {
				return
			}
			resp := wire.Response{Tag: req.Tag, Status: wire.StatusOK, Count: 1}
			if err := wire.WriteResponse(bw, &resp); err != nil {
				return
			}
			if br.Buffered() == 0 && bw.Flush() != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		cc.Close()
		<-done
	})
	c := wire.NewClient(cc)
	for i := 0; i < warmWindows; i++ {
		roundTrip(t, c)
	}
	if allocs := testing.AllocsPerRun(200, func() { roundTrip(t, c) }); allocs != 0 {
		t.Fatalf("%.2f allocs per %d-request round, want 0", allocs, window)
	}
}

// BenchmarkEngineWindow times one pipelined window through the engine
// over net.Pipe (both ends in this process) and reports the cost per
// request:
//
//	go test -run '^$' -bench EngineWindow -count 5 ./internal/server/
func BenchmarkEngineWindow(b *testing.B) {
	c := pipeEngine(b)
	for i := 0; i < warmWindows; i++ {
		roundTrip(b, c)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(b, c)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	reqs := float64(b.N) * window
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/reqs, "ns/req")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/reqs, "allocs/req")
}
