package main

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// serviceWorkload describes one workload against a server process.
type serviceWorkload struct {
	bin  string   // server command under .bench_build/bin
	args []string // its flags beyond the listen address
	depq bool     // schedd's DEPQ frames instead of plain push/pop
}

var serviceWorkloads = map[string]serviceWorkload{
	"dequed-pipelined": {bin: "dequed", args: []string{"-shards", "2", "-route", "least", "-steal=true", "-reclaim", "epoch"}},
	"schedd-deadline": {bin: "schedd", depq: true, args: []string{
		"-bands", strconv.Itoa(schedBands), "-band-bound", strconv.Itoa(schedBandBound), "-choice", "2"}},
}

const (
	serviceConns = 2
	// pipeline is the window each connection sends, flushes once, and
	// waits out before sending the next.
	pipeline = 16
	// backlog values are queued before timing; submits equal pops after.
	backlog = 4096
	// replyDeadline is the stall guard: a connection that gets no reply
	// for this long ends the run.
	replyDeadline = 3 * time.Second
	// serviceSegment is the length of one untraced segment; a run is
	// split into as many as fit, each against a fresh server, and setup_s
	// is the median of their set-up times.
	serviceSegment = 4 * time.Second
	// tracedWindowEvery: in a traced phase one pipeline window in this
	// many gets spans.
	tracedWindowEvery = 64
	// memRequests: mem_peak_mb is the server's peak RSS once it has
	// answered this many requests.
	memRequests = 2 << 20
	// scrapeEvery spaces the metrics scrapes that track gauge peaks.
	scrapeEvery = 200 * time.Millisecond

	schedBands     = 8
	schedBandBound = 2
	schedHorizon   = 50 * time.Millisecond // deadlines are now + (0, horizon]
	schedShedEvery = 4                     // every 4th pop is a PopMax
)

type reqKind uint8

const (
	kindPush reqKind = iota
	kindPop
	kindSubmit
	kindPopMin
	kindPopMax
	kindPing
)

func (k reqKind) String() string {
	return [...]string{"push", "pop", "submit", "pop_min", "pop_max", "ping"}[k]
}

// jobBook remembers each submitted job's deadline and band, indexed by
// producer and sequence, so whichever connection pops a job can compute
// its lateness. Entries are written before the job is sent and read after
// it comes back, possibly by another goroutine, hence the atomics.
type jobBook struct {
	chunks [maxProducers][1 << (seqBits - jobChunkBits)]atomic.Pointer[[1 << jobChunkBits]atomic.Uint32]
}

const jobChunkBits = 16

// set records job (p, seq): deadline in µs since epoch, and band.
func (b *jobBook) set(p int, seq uint32, deadlineUs int64, band int) {
	c := b.chunks[p][seq>>jobChunkBits].Load()
	if c == nil {
		c = new([1 << jobChunkBits]atomic.Uint32)
		b.chunks[p][seq>>jobChunkBits].Store(c)
	}
	c[seq&(1<<jobChunkBits-1)].Store(uint32(deadlineUs)<<3 | uint32(band))
}

func (b *jobBook) get(v uint32) (deadline time.Time, band int, ok bool) {
	p, seq := decode(v)
	if p >= maxProducers {
		return time.Time{}, 0, false
	}
	c := b.chunks[p][seq>>jobChunkBits].Load()
	if c == nil {
		return time.Time{}, 0, false
	}
	w := c[seq&(1<<jobChunkBits-1)].Load()
	return epoch.Add(time.Duration(w>>3) * time.Microsecond), int(w & 7), true
}

// jobSampler draws deadlines and bands the way dqload -deadline does:
// slack uniform in (0, horizon], band by slack, tighter is more urgent.
type jobSampler struct{ rng uint64 }

func (s *jobSampler) sample() (deadlineUs int64, band int) {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	slack := 1 + int64(s.rng%uint64(schedHorizon))
	band = int(slack * schedBands / (int64(schedHorizon) + 1))
	return (time.Since(epoch).Nanoseconds() + slack) / 1e3, band
}

// svcWorker drives one connection.
type svcWorker struct {
	id   int
	c    *wire.Client
	cc   *countConn
	wl   serviceWorkload
	book *jobBook
	jobs jobSampler

	push   pushLedger
	pops   *popLedger
	popsN  uint64 // pops sent, for the PopMax rotation
	kinds  [pipeline]reqKind
	tags   [pipeline]uint32
	vals   [pipeline]uint32
	sent   [pipeline]time.Time
	sendTo [pipeline]time.Time
	one    [1]uint32

	reqs       uint64 // completed requests
	errs       uint64 // unexpected statuses or payloads
	rejected   uint64 // pushes or submits refused with StatusFull
	admitted   uint64
	popMin     uint64
	popMax     uint64
	emptyMin   uint64
	emptyOther uint64
	bandWrong  uint64 // PopMin/PopMax answered a band other than the job's
	unfinished uint64 // requests sent but never answered
	err        error

	rtt      []*hist // per window
	rttSum   float64 // ns, this phase
	rttN     uint64  // replies, this phase
	late     hist    // PopMin lateness, ns
	recvWait hist    // traced phases: time each window's first Recv blocks
	sendNs   uint64  // traced phases: time in Send and Flush
	windows  uint64
	spans    spanBuf

	progress atomic.Uint64
	done     atomic.Bool
}

func (w *svcWorker) completed() uint64 { return w.progress.Load() }
func (w *svcWorker) exited() bool      { return w.done.Load() }

// nextKind picks slot i's request: pushes (or submits) and pops alternate.
func (w *svcWorker) nextKind(i int, ping bool) reqKind {
	switch {
	case ping:
		return kindPing
	case i%2 == 0 && w.wl.depq:
		return kindSubmit
	case i%2 == 0:
		return kindPush
	case !w.wl.depq:
		return kindPop
	}
	w.popsN++
	if w.popsN%schedShedEvery == 0 {
		return kindPopMax
	}
	return kindPopMin
}

// request fills req for slot i and records what the slot expects.
func (w *svcWorker) request(i int, req *wire.Request) {
	*req = wire.Request{}
	switch w.kinds[i] {
	case kindPush:
		w.vals[i] = encode(w.id, w.push.next)
		w.push.next++
		w.one[0] = w.vals[i]
		req.Op, req.Side, req.Count, req.Values = wire.OpPush, wire.Left, 1, w.one[:]
	case kindSubmit:
		w.vals[i] = encode(w.id, w.push.next)
		dl, band := w.jobs.sample()
		w.book.set(w.id, w.push.next, dl, band)
		w.push.next++
		w.one[0] = w.vals[i]
		req.Op, req.Side, req.Key, req.Count, req.Values = wire.OpPushPrio, wire.Left, uint64(band), 1, w.one[:]
	case kindPop:
		req.Op, req.Side = wire.OpPop, wire.Right
	case kindPopMin:
		req.Op = wire.OpPopMin
	case kindPopMax:
		req.Op = wire.OpPopMax
	default:
		req.Op = wire.OpPing
	}
}

// run sends pipeline windows until ph stops, or until a reply is late or
// malformed.
func (w *svcWorker) run(ph *phaseCtl, ping bool) {
	defer w.done.Store(true)
	var req wire.Request
	for !ph.stop.Load() {
		win := int(ph.win.Load())
		for len(w.rtt) <= win {
			w.rtt = append(w.rtt, new(hist))
		}
		rtt := w.rtt[win]
		traced := ph.traced && w.windows%tracedWindowEvery == 0
		w.windows++

		start := time.Now()
		for i := 0; i < pipeline; i++ {
			w.kinds[i] = w.nextKind(i, ping)
			w.request(i, &req)
			w.sent[i] = time.Now()
			tag, err := w.c.Send(&req)
			if err != nil {
				w.fail(err, pipeline)
				return
			}
			w.tags[i] = tag
			if traced {
				w.sendTo[i] = time.Now()
			}
		}
		if err := w.cc.SetDeadline(time.Now().Add(replyDeadline)); err != nil {
			w.fail(err, pipeline)
			return
		}
		if err := w.c.Flush(); err != nil {
			w.fail(err, pipeline)
			return
		}
		flushed := time.Now()
		if ph.traced {
			w.sendNs += uint64(flushed.Sub(start))
		}
		for i := 0; i < pipeline; i++ {
			before := flushed
			if ph.traced {
				before = time.Now()
			}
			resp, err := w.c.Recv()
			if err != nil {
				w.fail(err, pipeline-i)
				return
			}
			at := time.Now()
			if resp.Tag != w.tags[i] {
				w.fail(fmt.Errorf("reply tag %d for request tag %d", resp.Tag, w.tags[i]), pipeline-i)
				return
			}
			d := at.Sub(w.sent[i])
			rtt.record(uint64(d))
			w.rttSum += float64(d)
			w.rttN++
			w.reqs++
			w.settle(i, resp, at)
			if ph.traced && i == 0 {
				w.recvWait.record(uint64(at.Sub(before)))
			}
			if traced && i == int(w.windows/tracedWindowEvery)%pipeline {
				w.traceRequest(i, flushed, before, at)
			}
		}
		w.progress.Store(w.reqs)
	}
}

// traceRequest records one request's span and its child spans: its
// Send, the window's Flush, and its wait in Recv.
func (w *svcWorker) traceRequest(i int, flushed, before, at time.Time) {
	ns := func(t time.Time) int64 { return t.Sub(epoch).Nanoseconds() }
	id, root := uint64(w.tags[i]), w.wl.bin+"."+w.kinds[i].String()
	w.spans.add(span{ID: id, Worker: w.id, Name: root, Start: ns(w.sent[i]), End: ns(at)})
	w.spans.add(span{ID: id, Worker: w.id, Name: "wire.send", Parent: root, Start: ns(w.sent[i]), End: ns(w.sendTo[i])})
	w.spans.add(span{ID: id, Worker: w.id, Name: "wire.flush", Parent: root, Start: ns(w.sendTo[pipeline-1]), End: ns(flushed)})
	w.spans.add(span{ID: id, Worker: w.id, Name: "wire.recv_wait", Parent: root, Start: ns(before), End: ns(at)})
}

// fail ends the worker: n requests of the window never got a reply.
func (w *svcWorker) fail(err error, n int) {
	w.err = err
	w.unfinished += uint64(n)
}

// settle checks one reply against its request and books the outcome.
func (w *svcWorker) settle(i int, resp *wire.Response, at time.Time) {
	k := w.kinds[i]
	switch {
	case k == kindPing:
		if resp.Status != wire.StatusOK {
			w.errs++
		}
	case k == kindPush || k == kindSubmit:
		switch resp.Status {
		case wire.StatusOK:
			w.push.accept(w.vals[i])
			w.admitted++
		case wire.StatusFull:
			// Nothing landed: the documented backpressure and shedding answer.
			w.rejected++
		default:
			w.errs++
		}
	case resp.Status == wire.StatusEmpty:
		if k == kindPopMin {
			w.emptyMin++
		} else {
			w.emptyOther++
		}
	case resp.Status != wire.StatusOK:
		w.errs++
	case k == kindPop:
		if len(resp.Values) != 1 {
			w.errs++
			return
		}
		w.pops.record(resp.Values[0])
	default: // PopMin or PopMax: [value, band]
		if len(resp.Values) != 2 {
			w.errs++
			return
		}
		v := resp.Values[0]
		w.pops.record(v)
		dl, band, ok := w.book.get(v)
		if ok && band != int(resp.Values[1]) {
			w.bandWrong++
		}
		if k == kindPopMax {
			w.popMax++
			return
		}
		w.popMin++
		if ok {
			w.late.record(uint64(max(at.Sub(dl), 0)))
		}
	}
}

// serviceRun is one started server with its connections and backlog.
type serviceRun struct {
	cfg     config
	wl      serviceWorkload
	srv     *server
	metrics string       // the server's Prometheus endpoint
	http    *http.Client // for metrics
	ctl     *wire.Client // control connection: prefill, snapshots, drain
	ctlConn *countConn
	prefill pushLedger
	book    *jobBook
	workers []*svcWorker
}

func setupService(cfg config, wl serviceWorkload) (*serviceRun, error) {
	maddr, err := freePort()
	if err != nil {
		return nil, err
	}
	srv, err := startServer(cfg, wl.bin, append([]string{"-maxconns", "8", "-metrics", maddr}, wl.args...))
	if err != nil {
		return nil, err
	}
	r := &serviceRun{
		cfg: cfg, wl: wl, srv: srv, book: new(jobBook),
		metrics: "http://" + maddr + "/metrics",
		http:    &http.Client{Timeout: replyDeadline},
	}
	fail := func(err error) (*serviceRun, error) {
		r.close()
		return nil, err
	}
	if r.ctlConn, err = srv.dial(); err != nil {
		return fail(err)
	}
	r.ctl = wire.NewClient(r.ctlConn)
	for i := 0; i < serviceConns; i++ {
		cc, err := srv.dial()
		if err != nil {
			return fail(err)
		}
		r.workers = append(r.workers, &svcWorker{
			id: i, c: wire.NewClient(cc), cc: cc, wl: wl, book: r.book,
			jobs: jobSampler{rng: splitmix(uint64(cfg.seed)*serviceConns + uint64(i))},
			pops: newPopLedger(),
		})
	}
	if err := r.fillBacklog(); err != nil {
		return fail(err)
	}
	return r, nil
}

// fillBacklog queues backlog values through the control connection,
// pipelined 64 at a time.
func (r *serviceRun) fillBacklog() error {
	const burst = 64
	jobs := jobSampler{rng: splitmix(uint64(r.cfg.seed)*serviceConns + prefillID + 1<<32)}
	if err := r.ctlConn.SetDeadline(time.Now().Add(replyDeadline)); err != nil {
		return err
	}
	var one [1]uint32
	for n := 0; n < backlog; n += burst {
		for i := 0; i < burst; i++ {
			seq := r.prefill.next
			r.prefill.next++
			one[0] = encode(prefillID, seq)
			req := wire.Request{Op: wire.OpPush, Side: wire.Left, Count: 1, Values: one[:]}
			if r.wl.depq {
				dl, band := jobs.sample()
				r.book.set(prefillID, seq, dl, band)
				req.Op, req.Key = wire.OpPushPrio, uint64(band)
			}
			if _, err := r.ctl.Send(&req); err != nil {
				return err
			}
		}
		if err := r.ctl.Flush(); err != nil {
			return err
		}
		for i := 0; i < burst; i++ {
			resp, err := r.ctl.Recv()
			if err != nil {
				return err
			}
			if resp.Status != wire.StatusOK {
				return fmt.Errorf("prefill push answered status %d", resp.Status)
			}
			r.prefill.accept(encode(prefillID, uint32(n+i)))
		}
	}
	return nil
}

// freePort returns a loopback address no listener holds right now.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func (r *serviceRun) close() {
	r.http.CloseIdleConnections()
	if r.ctl != nil {
		r.ctl.Close()
	}
	for _, w := range r.workers {
		w.c.Close()
	}
	r.srv.stop()
}

// phase runs the connections for dur: op traffic, or pings when ping is
// set. tick, if non-nil, runs on every poll of the monitor.
func (r *serviceRun) phase(dur time.Duration, traced, ping bool, tick func()) phaseStats {
	ph := &phaseCtl{traced: traced}
	srcs := make([]progressSource, len(r.workers))
	var wg sync.WaitGroup
	for i, w := range r.workers {
		w.done.Store(false)
		w.rttSum, w.rttN, w.sendNs = 0, 0, 0
		w.rtt = w.rtt[:0]
		w.recvWait = hist{}
		srcs[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(ph, ping)
		}()
	}
	st := monitor(ph, srcs, dur, 0, tick)
	// Each connection finishes its window or hits its reply deadline.
	wg.Wait()
	st.stuck = nil
	return st
}

// serverStats is a snapshot of the server's published latency classes.
type serverStats map[string]wire.OpStat

func (r *serviceRun) stats() (serverStats, error) {
	if err := r.ctlConn.SetDeadline(time.Now().Add(replyDeadline)); err != nil {
		return nil, err
	}
	list, err := r.ctl.Stats()
	if err != nil {
		return nil, fmt.Errorf("op-stats snapshot: %w", err)
	}
	s := serverStats{}
	for _, st := range list {
		s[st.Class] = st
	}
	return s, nil
}

// deltaMean returns the mean and count of class over the interval between
// snapshots a and b.
func deltaMean(a, b serverStats, class string) (mean float64, n uint64) {
	x, y := a[class], b[class]
	n = y.Count - x.Count
	sum := float64(y.MeanNs)*float64(y.Count) - float64(x.MeanNs)*float64(x.Count)
	return ratio(sum, float64(n)), n
}

// drain empties the server through the control connection and checks
// conservation (and, for schedd, the inversion bound).
func (r *serviceRun) check(o *outcome) error {
	if err := r.ctlConn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return err
	}
	drain := newPopLedger()
	for {
		if r.wl.depq {
			v, _, ok, err := r.ctl.PopMin()
			if err != nil {
				return fmt.Errorf("drain: %w", err)
			}
			if !ok {
				break
			}
			drain.record(v)
			continue
		}
		vs, err := r.ctl.PopN(wire.Right, 0, 1024)
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		for _, v := range vs {
			drain.record(v)
		}
		if len(vs) > 0 {
			continue
		}
		// An empty answer may come from one shard; stop only when the
		// server's exact length agrees.
		n, err := r.ctl.Len()
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if n == 0 {
			break
		}
	}
	pushed := []pushLedger{r.workers[0].push, r.workers[1].push, r.prefill}
	popped := []*popLedger{r.workers[0].pops, r.workers[1].pops, drain}
	for name, n := range checkConservation(pushed, popped, false) {
		o.viol[name] += n
	}
	if !r.wl.depq {
		return nil
	}
	ds, err := r.ctl.Depq()
	if err != nil {
		return fmt.Errorf("depq snapshot: %w", err)
	}
	// With several server instances in a run, the worst one is reported.
	invMean := float64(ds.MeanMilli) / 1e3
	o.values["depq.inv_max"] = max(o.values["depq.inv_max"], float64(ds.InvMax))
	o.values["depq.inv_mean"] = max(o.values["depq.inv_mean"], invMean)
	o.detail["inv_mean"] = o.values["depq.inv_mean"]
	o.detail["inv_max"] = o.values["depq.inv_max"]
	if ds.InvMax > schedBandBound {
		o.viol["depq.inv_bound"] = max(o.viol["depq.inv_bound"], uint64(ds.InvMax))
	}
	for _, w := range r.workers {
		if w.bandWrong > 0 {
			o.viol["depq.band_mismatch"] += w.bandWrong
		}
	}
	return nil
}

func runService(cfg config) (*outcome, error) {
	wl := serviceWorkloads[cfg.workload]
	o := newOutcome()
	o.detail["transport"] = "tcp loopback (127.0.0.1)"
	o.detail["server"] = append([]string{wl.bin}, wl.args...)
	o.detail["conns"] = serviceConns
	o.detail["pipeline"] = pipeline
	o.detail["backlog"] = backlog
	o.detail["placement"] = "unpinned"
	if p := cfg.place; p != nil {
		o.detail["placement"] = fmt.Sprintf("benchmark on CPU %d, server on CPU %d", p.client, p.server)
	}
	var t tally
	var err error
	if cfg.trace {
		err = runTraced(cfg, wl, o, &t)
	} else {
		err = runSegments(cfg, wl, o, &t)
	}
	if err != nil {
		return nil, err
	}
	o.failed += t.errs
	o.detail["requests_rejected_full"] = t.rejected
	o.detail["pops_empty"] = t.emptyMin + t.emptyOther
	if wl.depq {
		o.values["depq.late_p99_ms"] = t.late.quantile(0.99) / 1e6
		o.values["depq.shed_ratio"] = ratio(float64(t.popMax+t.rejected), float64(t.admitted+t.rejected))
		o.values["depq.popmin_empty_ratio"] = ratio(float64(t.emptyMin), float64(t.popMin+t.emptyMin))
		o.detail["late_p99_ms"] = o.values["depq.late_p99_ms"]
		o.detail["late_samples"] = t.late.n
	}
	return o, nil
}

// runSegments is the untraced run. It is split into serviceSegment-long
// segments, each against a fresh server with fresh connections: a timed
// phase, then a counted one. setup_s, mem_peak_mb and instr_per_req are
// medians over the segments.
func runSegments(cfg config, wl serviceWorkload, o *outcome, t *tally) error {
	n := max(1, int(math.Round(cfg.seconds/serviceSegment.Seconds())))
	dur := cfg.duration() / time.Duration(n)
	var setups, mems, memAt, instr, rates, p99s, steal []float64
	var ws []window
	var cpu, wall time.Duration
	stolen := startSteal()
	for i := 0; i < n && o.stall == ""; i++ {
		start := time.Now()
		r, err := setupService(cfg, wl)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		sg, err := r.segment(dur)
		if err == nil {
			err = r.finish(o, t, sg.phases)
		}
		r.close()
		if err != nil {
			return err
		}
		mems = append(mems, sg.mem)
		memAt = append(memAt, float64(sg.memAt))
		if sg.instr > 0 {
			instr = append(instr, sg.instr)
		}
		for _, w := range sg.windows {
			ws = append(ws, w)
			rates = append(rates, w.rate)
			p99s = append(p99s, w.p99/1e3)
			steal = append(steal, w.steal)
		}
		cpu += sg.cpu
		wall += sg.phases[0].elapsed
	}
	rate, p50, p99, samples := windowMedians(ws)
	o.values["setup_s"] = median(setups)
	o.values["mem_peak_mb"] = median(mems)
	o.values["instr_per_req"] = median(instr)
	o.values["bench.steal_ratio"] = stolen.ratio()
	o.values["bench.cores_used"] = ratio(float64(cpu), float64(wall))
	o.detail["ops_per_s"] = rate
	o.detail["lat_p50_us"] = p50 / 1e3
	o.detail["lat_p99_us"] = p99 / 1e3
	o.detail["lat_samples"] = samples
	o.detail["segments"] = len(setups)
	o.detail["setup_s_all"] = setups
	o.detail["mem_mb_all"] = mems
	o.detail["mem_at_requests"] = memAt
	o.detail["instr_per_req_all"] = instr
	o.detail["window_rates"] = rates
	o.detail["window_p99_us"] = p99s
	o.detail["window_steal"] = steal
	return nil
}

// segmentStats is what one untraced segment measured.
type segmentStats struct {
	phases  []phaseStats // timed, then counted
	windows []window     // of the timed phase
	mem     float64      // MiB: the server's peak RSS after memRequests requests
	memAt   uint64       // requests answered when mem was read
	instr   float64      // instructions per request in the counted phase
	cpu     time.Duration
}

func (r *serviceRun) segment(dur time.Duration) (segmentStats, error) {
	var sg segmentStats
	var memErr error
	// The server's memory is read once it has answered memRequests
	// requests, so that a faster server does not read as a bigger one.
	tick := func() {
		if sg.memAt > 0 {
			return
		}
		var n uint64
		for _, w := range r.workers {
			n += w.completed()
		}
		if n >= memRequests {
			sg.memAt = n
			sg.mem, memErr = peakRSSMB(r.srv.pid())
		}
	}
	counted := dur / countShare
	cpu0, srv0 := selfCPU(), r.srvCPU()
	st := r.phase(dur-counted, false, false, tick)
	sg.cpu = selfCPU() - cpu0 + r.srvCPU() - srv0
	sg.phases = append(sg.phases, st)
	var rtt [][]*hist
	for _, w := range r.workers {
		rtt = append(rtt, w.rtt)
	}
	sg.windows = st.windows(rtt)
	if r.anyErr() {
		return sg, memErr
	}
	cs, instr, err := countedPhase(func() phaseStats { return r.phase(counted, false, false, tick) }, 0, r.srv.pid())
	sg.phases = append(sg.phases, cs)
	sg.instr = instr
	if err != nil {
		return sg, err
	}
	if sg.memAt == 0 { // the segment ended first: read what it reached
		for _, p := range sg.phases {
			sg.memAt += p.ops
		}
		sg.mem, memErr = peakRSSMB(r.srv.pid())
	}
	return sg, memErr
}

// runTraced is the traced run: phases A, B and C against one server.
func runTraced(cfg config, wl serviceWorkload, o *outcome, t *tally) error {
	r, err := setupService(cfg, wl)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer r.close()
	phases, err := r.tracedPhases(o)
	if err != nil {
		return err
	}
	if err := r.finish(o, t, phases); err != nil {
		return err
	}
	var spans []span
	for _, w := range r.workers {
		spans = append(spans, w.spans...)
	}
	return writeSpans(cfg, spans)
}

// tally sums what the connections of one or more server instances
// booked.
type tally struct {
	late                                 hist // PopMin lateness, ns
	errs, rejected, admitted             uint64
	popMin, popMax, emptyMin, emptyOther uint64
}

// finish books a server instance's phases and connection tallies into o
// and t, names a stall if there was one, and otherwise drains the server
// and runs the correctness checks.
func (r *serviceRun) finish(o *outcome, t *tally, phases []phaseStats) error {
	for _, st := range phases {
		o.attempted += st.ops
	}
	for _, w := range r.workers {
		t.late.merge(&w.late)
		t.errs += w.errs
		t.rejected += w.rejected
		t.admitted += w.admitted
		t.popMin += w.popMin
		t.popMax += w.popMax
		t.emptyMin += w.emptyMin
		t.emptyOther += w.emptyOther
		o.attempted += w.unfinished
		o.failed += w.unfinished
		if w.err != nil {
			what := "error"
			if isTimeout(w.err) {
				what = fmt.Sprintf("no reply within %s", replyDeadline)
			}
			o.stall = fmt.Sprintf("workload %s: conn %d: %s (%v); %d requests left unfinished",
				r.cfg.workload, w.id, what, w.err, w.unfinished)
		}
	}
	if o.stall != "" {
		o.detail["conservation"] = "unchecked: the run stalled"
		return nil
	}
	if err := r.check(o); err != nil {
		o.stall = fmt.Sprintf("workload %s: %v; conservation unchecked", r.cfg.workload, err)
		o.failed++
	}
	return nil
}

func (r *serviceRun) srvCPU() time.Duration {
	d, err := procCPU(r.srv.pid())
	if err != nil {
		return 0 // the server has exited; the run reports why elsewhere
	}
	return d
}

// tracedPhases runs phase A (op traffic, untraced), B (pings at the same
// connections and depth) and C (op traffic, traced), and fills the wire,
// server and depq metrics. The mean round trip of C splits exactly into
// the ping floor, the extra service time ops take over pings, and the
// unattributed rest.
func (r *serviceRun) tracedPhases(o *outcome) ([]phaseStats, error) {
	dur := r.cfg.duration()
	a := r.phase(dur*2/5, false, false, nil)
	phases := []phaseStats{a}
	if r.anyErr() {
		return phases, nil
	}

	s0, err := r.stats()
	if err != nil {
		return nil, err
	}
	b := r.phase(dur/5, false, true, nil)
	phases = append(phases, b)
	pingRTT := r.meanRTT()
	if r.anyErr() {
		return phases, nil
	}
	s1, err := r.stats()
	if err != nil {
		return nil, err
	}
	var bytes0 uint64
	for _, w := range r.workers {
		bytes0 += w.cc.read + w.cc.written
	}
	prom0, err := scrapeRetry(r.http, r.metrics, replyDeadline)
	if err != nil {
		return nil, fmt.Errorf("metrics scrape: %w", err)
	}
	var pk peaks
	var scrapeErr error
	lastScrape := time.Now()
	tick := func() {
		if scrapeErr != nil || time.Since(lastScrape) < scrapeEvery {
			return
		}
		lastScrape = time.Now()
		var p map[string]float64
		if p, scrapeErr = scrape(r.http, r.metrics); scrapeErr == nil {
			pk.add(countersOfProm(p, r.wl.bin))
		}
	}
	cpu0, srv0, wall0, steal := selfCPU(), r.srvCPU(), time.Now(), startSteal()
	c := r.phase(dur*2/5, true, false, tick)
	phases = append(phases, c)
	cpu1, srv1, wall := selfCPU(), r.srvCPU(), time.Since(wall0)
	o.values["bench.steal_ratio"] = steal.ratio()
	if r.anyErr() {
		return phases, nil
	}
	if scrapeErr != nil {
		return nil, fmt.Errorf("metrics scrape: %w", scrapeErr)
	}
	s2, err := r.stats()
	if err != nil {
		return nil, err
	}
	prom1, err := scrape(r.http, r.metrics)
	if err != nil {
		return nil, fmt.Errorf("metrics scrape: %w", err)
	}
	resident, err := r.ctl.Len()
	if err != nil {
		return nil, fmt.Errorf("length: %w", err)
	}
	end := countersOfProm(prom1, r.wl.bin)
	pk.add(end)
	fillLayers(o, end.since(countersOfProm(prom0, r.wl.bin)), pk, resident)

	reqs := float64(c.ops)
	var sendNs, bytes1 uint64
	var recvWait hist
	for _, w := range r.workers {
		sendNs += w.sendNs
		bytes1 += w.cc.read + w.cc.written
		recvWait.merge(&w.recvWait)
	}
	o.values["wire.send_ns_per_req"] = ratio(float64(sendNs), reqs)
	o.values["wire.recv_wait_us_p50"] = recvWait.quantile(0.50) / 1e3
	o.values["wire.bytes_per_req"] = ratio(float64(bytes1-bytes0), reqs)
	o.values["wire.client_cpu_us_per_req"] = ratio(float64(cpu1-cpu0)/1e3, reqs)

	rtt := r.meanRTT()
	pingSvc, _ := deltaMean(s0, s1, "service")
	opSvc, _ := deltaMean(s1, s2, "service")
	poolOp, _ := deltaMean(s1, s2, "pool_op")
	_, sweeps := deltaMean(s1, s2, "steal_sweep")
	extra := (opSvc - pingSvc) / 1e3
	o.values["server.cpu_us_per_req"] = ratio(float64(srv1-srv0)/1e3, reqs)
	o.values["server.rtt_mean_us"] = rtt / 1e3
	o.values["server.ping_rtt_mean_us"] = pingRTT / 1e3
	o.values["server.service_extra_us"] = extra
	o.values["server.unattributed_us"] = rtt/1e3 - pingRTT/1e3 - extra
	o.values["server.service_mean_ns"] = opSvc
	o.values["server.pool_op_mean_ns"] = poolOp
	o.values["server.steal_sweeps_per_kreq"] = ratio(1e3*float64(sweeps), reqs)
	o.detail["ping_service_mean_ns"] = pingSvc

	// The core's own sampled op latencies, as the server publishes them.
	// Means are differenced over phase C; the published quantiles cannot
	// be, so they cover the server's whole life, prefill included.
	pushMean, pushN := deltaMean(s1, s2, "push_left")
	popMean, popN := deltaMean(s1, s2, "pop_right")
	o.values["deque.push_mean_ns"] = pushMean
	o.values["deque.pop_mean_ns"] = popMean
	o.values["deque.push_p50_ns"] = float64(s2["push_left"].P50Ns)
	o.values["deque.push_p99_ns"] = float64(s2["push_left"].P99Ns)
	o.values["deque.pop_p50_ns"] = float64(s2["pop_right"].P50Ns)
	o.values["deque.pop_p99_ns"] = float64(s2["pop_right"].P99Ns)
	o.detail["deque_timed_ops"] = pushN + popN

	o.values["bench.cores_used"] = ratio(float64(cpu1-cpu0+srv1-srv0), float64(wall))
	o.values["bench.trace_overhead_ratio"] = 1 - ratio(c.rate(), a.rate())
	o.detail["phase_rates"] = map[string][]float64{"a_untraced": a.rates, "b_ping": b.rates, "c_traced": c.rates}
	return phases, nil
}

// meanRTT is the mean round trip of the last phase, in ns.
func (r *serviceRun) meanRTT() float64 {
	var sum float64
	var n uint64
	for _, w := range r.workers {
		sum += w.rttSum
		n += w.rttN
	}
	return ratio(sum, float64(n))
}

func (r *serviceRun) anyErr() bool {
	for _, w := range r.workers {
		if w.err != nil {
			return true
		}
	}
	return false
}
