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
	Bands     int         // priority bands (= pool shards behind the DEPQ)
	BandBound int         // worst-case priority inversion in bands (-1 = unbounded)
	Choice    int         // d-choice width inside the band window
	MaxConns  int         // concurrent connection (= DEPQ handle) cap
	ShardOpts []dq.Option // forwarded to every band (capacity, reclamation, ...)
}

// Server owns a DEPQ[uint32] and serves the scheduler subset of the wire
// protocol over TCP on the connection engine of internal/server:
// OpPushPrio admits jobs by priority band (StatusFull is the
// load-shedding answer), OpPopMin hands workers the most urgent job,
// OpPopMax is the drop channel under overload, and OpDepq reports the
// observed priority-inversion snapshot.
type Server struct {
	*server.Engine
	q *dq.DEPQ[uint32]
}

// NewServer validates cfg and builds the DEPQ. MaxThreads for every band
// is derived from MaxConns (+1 for the process's own metrics/drain use),
// so callers need not pass it in ShardOpts.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Bands <= 0 {
		cfg.Bands = 8
	}
	if cfg.Choice <= 0 {
		cfg.Choice = 2
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 64
	}
	opts := append([]dq.Option{dq.WithMaxThreads(cfg.MaxConns + 1)}, cfg.ShardOpts...)
	depqOpts := []dq.DEPQOption{
		dq.WithBands(cfg.Bands),
		dq.WithBandChoice(cfg.Choice),
		dq.WithDEPQPool(dq.WithShardOptions(opts...)),
	}
	if cfg.BandBound >= 0 {
		depqOpts = append(depqOpts, dq.WithBandBound(cfg.BandBound))
	}
	q, err := dq.NewDEPQChecked[uint32](depqOpts...)
	if err != nil {
		return nil, err
	}
	return &Server{
		Engine: server.New(server.Config{
			Name:      "schedd",
			Pool:      q.Pool(),
			MaxConns:  cfg.MaxConns,
			Register:  func() server.Handle { return &schedConn{DEPQHandle: q.Register(), q: q} },
			WriteProm: func(w io.Writer) error { return dq.WriteDepqMetricsProm(w, "schedd", q.DepqMetrics()) },
		}),
		q: q,
	}, nil
}

// DEPQ exposes the backing queue for the final metrics snapshot and tests.
func (s *Server) DEPQ() *dq.DEPQ[uint32] { return s.q }

// schedConn is one connection's DEPQ accessor.
type schedConn struct {
	*dq.DEPQHandle[uint32]
	q *dq.DEPQ[uint32]
}

// clampBand saturates the wire priority key into an int band. The DEPQ
// clamps again into [0, bands); this only guards the uint64→int cast.
func clampBand(key uint64) int {
	const maxInt = int(^uint(0) >> 1)
	if key > uint64(maxInt) {
		return maxInt
	}
	return int(key)
}

// Apply serves the scheduler ops. Statuses follow wire.StatusOf: the
// deque's error contract crosses the wire unchanged — StatusFull on
// OpPushPrio IS the load-shedding decision, made by the band's capacity
// bound. The plain pool ops (OpPush…OpPopN, OpRelax) belong to
// cmd/dequed and stay StatusBad here: answering them would silently
// bypass the priority contract.
func (c *schedConn) Apply(ctx context.Context, req *wire.Request, resp *wire.Response) {
	switch req.Op {
	case wire.OpDepq:
		m := c.q.DepqMetrics()
		resp.SetSnapshot(m.InvMax, [4]uint64{m.BandBound, m.Bands, m.Choice, uint64(m.MeanInv() * 1000)})

	case wire.OpPushPrio:
		err := c.PushCtx(ctx, req.Values[0], clampBand(req.Key))
		resp.Status = wire.StatusOf(err)
		if err == nil {
			resp.Count = 1
		}

	case wire.OpPopMin, wire.OpPopMax:
		var (
			v    uint32
			band int
			ok   bool
			err  error
		)
		if req.Op == wire.OpPopMin {
			v, band, ok, err = c.PopMinCtx(ctx)
		} else {
			v, band, ok, err = c.PopMaxCtx(ctx)
		}
		switch {
		case err != nil:
			resp.Status = wire.StatusOf(err)
		case !ok:
			resp.Status = wire.StatusEmpty
		default:
			resp.Status = wire.StatusOK
			resp.Count = 2
			resp.Values = append(resp.Values, v, uint32(band))
		}
	}
}
