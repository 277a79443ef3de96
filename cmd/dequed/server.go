package main

import (
	"context"
	"io"

	dq "repro"
	"repro/internal/server"
	"repro/internal/wire"
)

// Config collects everything a Server needs. The zero value is not
// usable; main (and the tests) fill it from flags.
type Config struct {
	Shards    int            // pool width
	Route     dq.RoutePolicy // routing policy for every connection
	Steal     bool           // steal-on-empty rebalancing
	MaxConns  int            // concurrent connection (= pool handle) cap
	ShardOpts []dq.Option    // forwarded to every shard (capacity, node size, ...)

	// Relaxed serves every connection through a Relaxed[uint32] d-choice
	// front-end instead of policy routing: request keys are ignored,
	// ordering is relaxed across shards by at most RankBound, and OpRelax
	// reports the observed rank-error snapshot. Sample is the d-choice
	// width (0 = strict passthrough) and RankBound the worst-case
	// rank-error cap (0 = unbounded); both ignored unless Relaxed.
	Relaxed   bool
	Sample    int
	RankBound int
}

// Server serves a sharded deque pool over the wire protocol: the plain
// deque ops (OpPush, OpPop, OpPushN, OpPopN) and the OpRelax snapshot, on
// the connection engine of internal/server.
type Server struct {
	*server.Engine
	rx *dq.Relaxed[uint32] // non-nil in relaxed mode; Pool() == rx.Pool()
}

// NewServer validates cfg and builds the pool. MaxThreads for every shard
// is derived from MaxConns (+1 for the process's own metrics/drain use),
// so callers need not pass it in ShardOpts.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 64
	}
	opts := append([]dq.Option{dq.WithMaxThreads(cfg.MaxConns + 1)}, cfg.ShardOpts...)
	poolOpts := []dq.PoolOption{
		dq.WithRouting(cfg.Route),
		dq.WithStealing(cfg.Steal),
		dq.WithShardOptions(opts...),
	}
	ecfg := server.Config{Name: "dequed", MaxConns: cfg.MaxConns}
	s := &Server{}
	if cfg.Relaxed {
		rx, err := dq.NewRelaxedChecked[uint32](cfg.Shards,
			dq.WithRelaxation(cfg.Sample),
			dq.WithRankBound(cfg.RankBound),
			dq.WithRelaxedPool(poolOpts...),
		)
		if err != nil {
			return nil, err
		}
		s.rx = rx
		ecfg.Pool = rx.Pool()
		ecfg.Register = func() server.Handle { return &relaxedConn{RelaxedHandle: rx.Register(), rx: rx} }
		ecfg.WriteProm = func(w io.Writer) error { return dq.WriteRelaxMetricsProm(w, "dequed", rx.RelaxMetrics()) }
	} else {
		pool, err := dq.NewPoolChecked[uint32](cfg.Shards, poolOpts...)
		if err != nil {
			return nil, err
		}
		ecfg.Pool = pool
		ecfg.Register = func() server.Handle { return &poolConn{PoolHandle: pool.Register()} }
	}
	s.Engine = server.New(ecfg)
	return s, nil
}

// Relaxed exposes the relaxed front-end (nil unless Config.Relaxed).
func (s *Server) Relaxed() *dq.Relaxed[uint32] { return s.rx }

// poolConn serves a connection through a policy-routed pool handle.
type poolConn struct {
	*dq.PoolHandle[uint32]
	dst []uint32 // reusable OpPopN buffer
}

// Apply serves the plain deque ops by request key and side. Statuses
// follow wire.StatusOf: the deque's error contract crosses the wire
// unchanged.
func (c *poolConn) Apply(ctx context.Context, req *wire.Request, resp *wire.Response) {
	r, k, left := reply{resp}, req.Key, req.Side == wire.Left
	switch req.Op {
	case wire.OpPush:
		if left {
			r.pushed(c.PushLeftCtx(ctx, k, req.Values[0]))
		} else {
			r.pushed(c.PushRightCtx(ctx, k, req.Values[0]))
		}
	case wire.OpPop:
		if left {
			r.popped(c.PopLeftCtx(ctx, k))
		} else {
			r.popped(c.PopRightCtx(ctx, k))
		}
	case wire.OpPushN:
		if left {
			r.pushedN(c.PushLeftN(k, req.Values))
		} else {
			r.pushedN(c.PushRightN(k, req.Values))
		}
	case wire.OpPopN:
		d := popBuf(&c.dst, req.Count)
		if left {
			r.poppedN(d[:c.PopLeftN(k, d)])
		} else {
			r.poppedN(d[:c.PopRightN(k, d)])
		}
	case wire.OpRelax:
		// A strict server answers the zero snapshot, so probes can always ask.
		resp.SetSnapshot(0, [4]uint64{})
	}
}

// relaxedConn serves a connection through the d-choice relaxed
// front-end: request keys are ignored, sampling replaces routing.
type relaxedConn struct {
	*dq.RelaxedHandle[uint32]
	rx  *dq.Relaxed[uint32]
	dst []uint32 // reusable OpPopN buffer
}

// Apply serves the plain deque ops by side; see poolConn.Apply.
func (c *relaxedConn) Apply(ctx context.Context, req *wire.Request, resp *wire.Response) {
	r, left := reply{resp}, req.Side == wire.Left
	switch req.Op {
	case wire.OpPush:
		if left {
			r.pushed(c.PushLeftCtx(ctx, req.Values[0]))
		} else {
			r.pushed(c.PushRightCtx(ctx, req.Values[0]))
		}
	case wire.OpPop:
		if left {
			r.popped(c.PopLeftCtx(ctx))
		} else {
			r.popped(c.PopRightCtx(ctx))
		}
	case wire.OpPushN:
		if left {
			r.pushedN(c.PushLeftN(req.Values))
		} else {
			r.pushedN(c.PushRightN(req.Values))
		}
	case wire.OpPopN:
		d := popBuf(&c.dst, req.Count)
		if left {
			r.poppedN(d[:c.PopLeftN(d)])
		} else {
			r.poppedN(d[:c.PopRightN(d)])
		}
	case wire.OpRelax:
		m := c.rx.RelaxMetrics()
		resp.SetSnapshot(m.RankMax, [4]uint64{m.RankBound, m.Sample, m.Shards, uint64(m.MeanRank() * 1000)})
	}
}

// popBuf returns *buf resized to want values, growing it when needed.
func popBuf(buf *[]uint32, want uint32) []uint32 {
	if uint32(cap(*buf)) < want {
		*buf = make([]uint32, want)
	}
	return (*buf)[:want]
}

// reply encodes a deque op's outcome into its response; each method takes
// the op's results as returned.
type reply struct{ *wire.Response }

func (r reply) pushed(err error) {
	r.Status = wire.StatusOf(err)
	if err == nil {
		r.Count = 1
	}
}

// pushedN reports the accepted prefix even on StatusFull.
func (r reply) pushedN(n int, err error) {
	r.Status = wire.StatusOf(err)
	r.Count = uint32(n)
}

func (r reply) popped(v uint32, ok bool, err error) {
	switch {
	case err != nil:
		r.Status = wire.StatusOf(err)
	case !ok:
		r.Status = wire.StatusEmpty
	default:
		r.Status = wire.StatusOK
		r.Count = 1
		r.Values = append(r.Values, v)
	}
}

func (r reply) poppedN(vs []uint32) {
	if len(vs) == 0 {
		r.Status = wire.StatusEmpty
		return
	}
	r.Status = wire.StatusOK
	r.Count = uint32(len(vs))
	r.Values = append(r.Values, vs...)
}
