package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	dq "repro"
	"repro/internal/core"
)

// dequeHandle is the part of the root Handle[uint32] the in-process
// workloads call.
type dequeHandle interface {
	PushLeft(v uint32) error
	PushRight(v uint32) error
	PopLeft() (uint32, bool)
	PopRight() (uint32, bool)
}

// target is the structure an in-process workload drives: the root
// Deque[uint32] in a real run, a fake in the benchmark's own tests.
type target interface {
	Register() dequeHandle
	Metrics() dq.Metrics
	Len() int
}

type rootDeque struct{ *dq.Deque[uint32] }

func (d rootDeque) Register() dequeHandle { return d.Deque.Register() }

type opKind uint8

const (
	pushLeft opKind = iota
	pushRight
	popLeft
	popRight
)

// inprocWorkload describes one in-process workload.
type inprocWorkload struct {
	opts    []dq.Option
	prefill int  // values pushed left before timing
	fifo    bool // check that every consumer sees each producer's values in order
	next    func(w *inprocWorker) opKind
}

var inprocWorkloads = map[string]inprocWorkload{
	// The paper's headline mix: a seeded uniform choice of the four ops.
	"deque-mixed": {prefill: 1024, next: func(w *inprocWorker) opKind {
		w.rng ^= w.rng << 13
		w.rng ^= w.rng >> 7
		w.rng ^= w.rng << 17
		return opKind(w.rng >> 62)
	}},
	// Queue traffic: push left, pop right, alternately, at a fixed depth
	// of four nodes, so every value crosses the whole chain.
	"queue-churn": {
		opts:    []dq.Option{dq.WithReclamation(dq.ReclaimEpoch)},
		prefill: 4 * core.DefaultNodeSize,
		fifo:    true,
		next: func(w *inprocWorker) opKind {
			if w.ops&1 == 0 {
				return pushLeft
			}
			return popRight
		},
	},
}

const (
	inprocWorkers = 2
	prefillID     = inprocWorkers // producer id of prefilled values
	// batchOps ops run between stop checks and progress updates.
	batchOps = 256
	// latEvery: one op in latEvery is timed for the end-to-end latency.
	// tracedEvery: one op in tracedEvery is timed in a traced phase, and
	// one timed op in spanEvery also becomes a span. The periods are odd
	// so that both ops of an alternating workload get timed.
	latEvery    = 63
	tracedEvery = 7
	spanEvery   = 128
	// inprocStall ends a run when a worker completes nothing for this
	// long; one op normally takes about 100 ns.
	inprocStall = 2 * time.Second
	// inprocSetupRounds is how many times setup is repeated; setup_s is the
	// median.
	inprocSetupRounds = 9
)

type inprocWorker struct {
	id   int
	h    dequeHandle
	next func(*inprocWorker) opKind
	rng  uint64

	push  pushLedger
	pops  *popLedger
	ops   uint64 // completed ops
	empty uint64 // pops that found the deque empty
	errs  uint64 // pushes the deque refused

	sampleIn int     // ops until the next timed one
	timed    uint64  // timed ops so far
	lat      []*hist // sampled op latency, one per window (untraced phases)
	pushLat  hist    // traced phases: timed pushes
	popLat   hist    // traced phases: timed pops
	spans    spanBuf

	progress atomic.Uint64
	done     atomic.Bool
	_        [64]byte // keep the two workers' hot fields apart
}

func (w *inprocWorker) completed() uint64 { return w.progress.Load() }
func (w *inprocWorker) exited() bool      { return w.done.Load() }

func (w *inprocWorker) do(k opKind) {
	var v uint32
	var ok bool
	switch k {
	case pushLeft, pushRight:
		v = encode(w.id, w.push.next)
		var err error
		if k == pushLeft {
			err = w.h.PushLeft(v)
		} else {
			err = w.h.PushRight(v)
		}
		if err != nil {
			w.errs++ // nothing landed; the sequence number is reused
		} else {
			w.push.accept(v)
			w.push.next++
		}
		w.ops++
		return
	case popLeft:
		v, ok = w.h.PopLeft()
	default:
		v, ok = w.h.PopRight()
	}
	if ok {
		w.pops.record(v)
	} else {
		w.empty++
	}
	w.ops++
}

func (w *inprocWorker) run(ph *phaseCtl) {
	defer w.done.Store(true)
	for !ph.stop.Load() {
		if ph.traced {
			w.runTraced()
			continue
		}
		win := int(ph.win.Load())
		for len(w.lat) <= win {
			w.lat = append(w.lat, new(hist))
		}
		lat := w.lat[win]
		for i := 0; i < batchOps; i++ {
			k := w.next(w)
			if w.sampleIn--; w.sampleIn > 0 {
				w.do(k)
				continue
			}
			w.sampleIn = latEvery
			t := time.Now()
			w.do(k)
			lat.record(uint64(time.Since(t)))
		}
		w.progress.Store(w.ops)
	}
}

func (w *inprocWorker) runTraced() {
	for i := 0; i < batchOps; i++ {
		k := w.next(w)
		if w.sampleIn--; w.sampleIn > 0 {
			w.do(k)
			continue
		}
		w.sampleIn = tracedEvery
		op := w.ops
		t := time.Now()
		w.do(k)
		end := time.Now()
		d := uint64(end.Sub(t))
		if k <= pushRight {
			w.pushLat.record(d)
		} else {
			w.popLat.record(d)
		}
		if w.timed++; w.timed%spanEvery == 0 {
			w.spans.add(span{ID: op, Worker: w.id, Name: "deque." + k.String(),
				Start: t.Sub(epoch).Nanoseconds(), End: end.Sub(epoch).Nanoseconds()})
		}
	}
	w.progress.Store(w.ops)
}

func (k opKind) String() string {
	return [...]string{"push_left", "push_right", "pop_left", "pop_right"}[k]
}

// inprocRun is one set-up instance of an in-process workload.
type inprocRun struct {
	wl      inprocWorkload
	t       target
	prefill pushLedger
	workers []*inprocWorker
}

func setupInproc(wl inprocWorkload, newTarget func() target, seed int64) *inprocRun {
	r := &inprocRun{wl: wl, t: newTarget()}
	h := r.t.Register()
	for i := 0; i < wl.prefill; i++ {
		v := encode(prefillID, r.prefill.next)
		if h.PushLeft(v) == nil {
			r.prefill.accept(v)
			r.prefill.next++
		}
	}
	for i := 0; i < inprocWorkers; i++ {
		r.workers = append(r.workers, &inprocWorker{
			id:   i,
			h:    r.t.Register(),
			next: wl.next,
			rng:  splitmix(uint64(seed)*inprocWorkers + uint64(i)),
			pops: newPopLedger(),
		})
	}
	return r
}

// splitmix turns a seed into a well-mixed nonzero generator state.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// phase runs the workers for dur and returns what the monitor saw.
func (r *inprocRun) phase(dur time.Duration, traced bool, tick func()) phaseStats {
	ph := &phaseCtl{traced: traced}
	srcs := make([]progressSource, len(r.workers))
	for i, w := range r.workers {
		w.done.Store(false)
		srcs[i] = w
		go w.run(ph)
	}
	return monitor(ph, srcs, dur, inprocStall, tick)
}

// check drains the deque and compares what came out with what went
// in.
func (r *inprocRun) check() violations {
	drain := newPopLedger()
	h := r.t.Register()
	for {
		v, ok := h.PopRight()
		if !ok {
			break
		}
		drain.record(v)
	}
	pushed := []pushLedger{r.workers[0].push, r.workers[1].push, r.prefill}
	popped := []*popLedger{r.workers[0].pops, r.workers[1].pops, drain}
	return checkConservation(pushed, popped, r.wl.fifo)
}

func runInproc(cfg config) (*outcome, error) {
	wl := inprocWorkloads[cfg.workload]
	return runInprocWith(cfg, wl, func() target {
		return rootDeque{dq.New[uint32](wl.opts...)}
	})
}

// runInprocWith runs an in-process workload against the structures
// newTarget builds.
func runInprocWith(cfg config, wl inprocWorkload, newTarget func() target) (*outcome, error) {
	o := newOutcome()
	var r *inprocRun
	setups := make([]float64, inprocSetupRounds)
	for i := range setups {
		start := time.Now()
		r = setupInproc(wl, newTarget, cfg.seed)
		setups[i] = time.Since(start).Seconds()
	}
	o.values["setup_s"] = median(setups)
	o.detail["setup_rounds"] = inprocSetupRounds

	var phases []phaseStats
	cpu0, wall0, steal := selfCPU(), time.Now(), startSteal()
	if !cfg.trace {
		counted := cfg.duration() / countShare
		st := r.phase(cfg.duration()-counted, false, nil)
		phases = append(phases, st)
		if len(st.stuck) == 0 { // a stuck worker's histograms are not ours to read
			var lat [][]*hist
			for _, w := range r.workers {
				lat = append(lat, w.lat)
			}
			rate, p50, p99, n := windowMedians(st.windows(lat))
			o.detail["ops_per_s"] = rate
			o.detail["lat_p50_us"] = p50 / 1e3
			o.detail["lat_p99_us"] = p99 / 1e3
			o.detail["lat_samples"] = n
			cs, instr, err := countedPhase(func() phaseStats { return r.phase(counted, false, nil) }, 0)
			if err != nil {
				return nil, err
			}
			phases = append(phases, cs)
			o.values["instr_per_req"] = instr
		}
		o.detail["window_rates"] = st.rates
		o.detail["window_steal"] = st.steal
	} else {
		// Phase A untraced, phase C traced: the rate difference is the
		// tracing overhead, and the per-layer counters come from C.
		half := cfg.duration() / 2
		a := r.phase(half, false, nil)
		phases = append(phases, a)
		if len(a.stuck) == 0 {
			cpu0, wall0, steal = selfCPU(), time.Now(), startSteal()
			phases = append(phases, r.tracedPhase(half, o))
			o.values["bench.trace_overhead_ratio"] = 1 - ratio(phases[1].rate(), a.rate())
		}
	}
	last := phases[len(phases)-1]
	o.values["bench.cores_used"] = ratio(float64(selfCPU()-cpu0), float64(time.Since(wall0)))
	o.values["bench.steal_ratio"] = steal.ratio()

	for _, st := range phases {
		o.attempted += st.ops
	}
	var empty uint64
	for i, w := range r.workers {
		if slices.Contains(last.stuck, i) {
			continue // still inside an op: its tallies are not ours to read
		}
		o.failed += w.errs
		empty += w.empty
	}
	o.detail["pops_empty"] = empty
	if len(last.stuck) > 0 {
		// A stuck worker has one op in flight that never finished. The
		// structure cannot be drained, so conservation goes unchecked.
		o.attempted += uint64(len(last.stuck))
		o.failed += uint64(len(last.stuck))
		o.stall = fmt.Sprintf("workload %s: workers %v completed nothing for %s; %d ops left unfinished, conservation unchecked",
			cfg.workload, last.stuck, inprocStall, len(last.stuck))
	} else {
		o.viol = r.check()
	}
	mem, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	o.values["mem_peak_mb"] = mem
	o.detail["transport"] = "in-process"
	if cfg.trace {
		var spans []span
		for _, w := range r.workers {
			spans = append(spans, w.spans...)
		}
		if err := writeSpans(cfg, spans); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// tracedPhase runs a traced phase and fills the core, deque, epoch and
// arena metrics from the counters read at its start and end.
func (r *inprocRun) tracedPhase(dur time.Duration, o *outcome) phaseStats {
	c0 := countersOf(r.t.Metrics())
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var pk peaks
	st := r.phase(dur, true, func() { pk.add(countersOf(r.t.Metrics())) })
	if len(st.stuck) > 0 {
		return st
	}
	runtime.ReadMemStats(&ms1)
	fillLayers(o, countersOf(r.t.Metrics()).since(c0), pk, r.t.Len())
	o.detail["arena_allocs_per_op"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(st.ops))

	var push, pop hist
	for _, w := range r.workers {
		push.merge(&w.pushLat)
		pop.merge(&w.popLat)
	}
	o.values["deque.push_p50_ns"] = push.quantile(0.50)
	o.values["deque.push_p99_ns"] = push.quantile(0.99)
	o.values["deque.pop_p50_ns"] = pop.quantile(0.50)
	o.values["deque.pop_p99_ns"] = pop.quantile(0.99)
	o.values["deque.push_mean_ns"] = push.mean()
	o.values["deque.pop_mean_ns"] = pop.mean()
	o.detail["deque_timed_ops"] = push.n + pop.n
	return st
}
