package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	dq "repro"
	"repro/internal/wire"
)

// stubConn is a front-end handle that serves two ops of its own: OpPush
// echoes the pushed value in Count, and OpPop blocks until the engine's
// context is cancelled. Every other op is left to the engine.
type stubConn struct {
	flushes *atomic.Int64
	blocked chan<- struct{} // signalled when an OpPop starts waiting
}

func (c *stubConn) Apply(ctx context.Context, req *wire.Request, resp *wire.Response) {
	switch req.Op {
	case wire.OpPush:
		resp.Status = wire.StatusOK
		resp.Count = req.Values[0]
	case wire.OpPop:
		c.blocked <- struct{}{}
		<-ctx.Done()
		resp.Status = wire.StatusOf(ctx.Err())
	}
}

func (c *stubConn) Flush() { c.flushes.Add(1) }

// stubEngine is an engine over a one-shard pool holding resident values
// and a stubConn front-end; registered counts Register calls.
type stubEngine struct {
	*Engine
	registered atomic.Int64
	flushes    atomic.Int64
	blocked    chan struct{}
}

func newStubEngine(t *testing.T, maxConns, resident int) *stubEngine {
	t.Helper()
	pool := dq.NewPool[uint32](1, dq.WithShardOptions(dq.WithMaxThreads(maxConns+1)))
	ph := pool.Register()
	for i := 0; i < resident; i++ {
		if err := ph.PushLeft(0, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := &stubEngine{blocked: make(chan struct{}, maxConns)}
	s.Engine = New(Config{
		Name:     "stub",
		Pool:     pool,
		MaxConns: maxConns,
		Register: func() Handle {
			s.registered.Add(1)
			return &stubConn{flushes: &s.flushes, blocked: s.blocked}
		},
		WriteProm: func(w io.Writer) error {
			_, err := fmt.Fprintln(w, "stub_front_end_gauge 1")
			return err
		},
	})
	return s
}

// serve runs e on an ephemeral port until the test ends and returns the
// address.
func serve(t *testing.T, e *Engine) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- e.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestEngineOps checks the engine/apply contract over the wire: the
// engine answers OpPing, OpLen and OpStats itself and rejects invalid
// frames; the handle answers its own ops; an op the handle leaves alone
// answers StatusBad.
func TestEngineOps(t *testing.T) {
	s := newStubEngine(t, 2, 5)
	c, err := wire.Dial(serve(t, s.Engine))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if n, err := c.Len(); err != nil || n != 5 {
		t.Fatalf("Len = (%d, %v), want (5, nil)", n, err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatalf("Stats: %v", err)
	}
	resp, err := c.Do(&wire.Request{Op: wire.OpPush, Count: 1, Values: []uint32{42}})
	if err != nil || resp.Status != wire.StatusOK || resp.Count != 42 {
		t.Fatalf("handle op = (%+v, %v), want StatusOK echoing 42", resp, err)
	}
	for _, req := range []wire.Request{
		{Op: wire.OpPopN, Count: 4},                               // valid, not served by the handle
		{Op: wire.OpPush, Side: 7, Count: 1, Values: []uint32{1}}, // bad side
		{Op: wire.OpPing, Values: []uint32{1}},                    // payload on a payload-less op
		{Op: 99},                                                  // unknown op
	} {
		resp, err := c.Do(&req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != wire.StatusBad || resp.Count != 0 || len(resp.Values) != 0 {
			t.Fatalf("op %d side %d: %+v, want bare StatusBad", req.Op, req.Side, resp)
		}
	}
}

// TestEnginePipelinedOrder sends a burst of frames before reading any
// reply: the replies come back in request order.
func TestEnginePipelinedOrder(t *testing.T) {
	s := newStubEngine(t, 1, 0)
	c, err := wire.Dial(serve(t, s.Engine))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const burst = 200
	tags := make([]uint32, burst)
	for i := range tags {
		req := wire.Request{Op: wire.OpPush, Count: 1, Values: []uint32{uint32(i)}}
		if i%3 == 2 {
			req = wire.Request{Op: wire.OpPing}
		}
		if tags[i], err = c.Send(&req); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, tag := range tags {
		resp, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Tag != tag || resp.Status != wire.StatusOK {
			t.Fatalf("reply %d = %+v, want tag %d StatusOK", i, resp, tag)
		}
		if i%3 != 2 && resp.Count != uint32(i) {
			t.Fatalf("reply %d echoed %d", i, resp.Count)
		}
	}
}

// TestEngineFreelist runs many sequential connections on one handle
// slot: the engine registers once, flushes the handle at every release,
// and reuses it.
func TestEngineFreelist(t *testing.T) {
	s := newStubEngine(t, 1, 0)
	addr := serve(t, s.Engine)
	const conns = 10
	for i := 0; i < conns; i++ {
		c, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Ping(); err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
		c.Close()
		// The next connection can only be served once this one released
		// the slot, so wait for its flush.
		deadline := time.Now().Add(5 * time.Second)
		for s.flushes.Load() != int64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("conn %d: handle not flushed on release", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if n := s.registered.Load(); n != 1 {
		t.Fatalf("registered %d handles for %d sequential connections, want 1", n, conns)
	}
}

// TestEngineHardDrainCancels: an operation blocked inside Apply holds
// its connection open through the drain window; the hard path cancels
// the context Apply was given, which unblocks it, and Shutdown reports
// the deadline once the connection has released its handle.
func TestEngineHardDrainCancels(t *testing.T) {
	s := newStubEngine(t, 2, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()

	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Send(&wire.Request{Op: wire.OpPop}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	<-s.blocked

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hard Shutdown = %v, want DeadlineExceeded", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve = %v", err)
	}
	if n := s.flushes.Load(); n != 1 {
		t.Fatalf("handle flushed %d times after hard drain, want 1", n)
	}
}

// TestHandler checks the HTTP surface: /metrics carries the pool's
// series and the front-end's block under the engine's name;
// /debug/flightrecorder answers {"total", "records"}.
func TestHandler(t *testing.T) {
	s := newStubEngine(t, 1, 3)
	hs := httptest.NewServer(s.handler())
	defer hs.Close()

	body := func(path string) string {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return string(b)
	}

	m := body("/metrics")
	for _, want := range []string{"stub_ops_total", "stub_front_end_gauge 1"} {
		if !strings.Contains(m, want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, m)
		}
	}
	var fr map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body("/debug/flightrecorder")), &fr); err != nil {
		t.Fatal(err)
	}
	if _, ok := fr["total"]; !ok {
		t.Fatalf("/debug/flightrecorder lacks total: %v", fr)
	}
	if _, ok := fr["records"]; !ok {
		t.Fatalf("/debug/flightrecorder lacks records: %v", fr)
	}
}
