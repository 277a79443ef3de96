package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	dq "repro"
	"repro/internal/wire"
)

// benchJSON is the part of ../BENCHMARK.json the tests compare against
// the harness.
type benchJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchJSON(t *testing.T) benchJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the metric
// tables in main.go naming the same metrics with the same units.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	bj := loadBenchJSON(t)
	same := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: harness has %d metrics, BENCHMARK.json %d", what, len(defs), len(got))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: harness %s (%s), BENCHMARK.json %s (%s)", what, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer, bj.PerLayer)
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the harness", w.Name)
		}
	}
}

var buildServers = sync.OnceValues(func() (string, error) {
	root, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		return "", err
	}
	for _, bin := range []string{"dequed", "schedd"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(root, ".bench_build", "bin", bin), "./cmd/"+bin)
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			return "", &buildError{bin, out, err}
		}
	}
	return root, nil
})

type buildError struct {
	bin string
	out []byte
	err error
}

func (e *buildError) Error() string {
	return "build " + e.bin + ": " + e.err.Error() + "\n" + string(e.out)
}

// TestEveryWorkloadPrintsEveryMetric runs each workload briefly, untraced
// and traced, and checks that the result line carries exactly the
// metrics BENCHMARK.json names, each with its unit, and a correct run.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	root, err := buildServers()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(root) })
	bj := loadBenchJSON(t)
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			want := bj.EndToEnd
			if trace {
				want = bj.PerLayer
			}
			cfg := config{workload: name, seed: 7, seconds: 0.4, trace: trace,
				root: root, outDir: filepath.Join(root, "out")}
			o, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var out, log bytes.Buffer
			if err := report(&out, &log, cfg, o); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not a result: %v", name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					name, trace, res.Correct, res.Failed, res.Attempted, log.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

// fakeDeque is a mutex-guarded slice standing in for the root deque.
// After stallAfter ops every op blocks until release is closed; after
// dupAfter ops, one pop returns its value without removing it.
type fakeDeque struct {
	mu         sync.Mutex
	vals       []uint32
	ops        atomic.Int64
	stallAfter int64
	dupAfter   int64
	dupDone    bool
	release    chan struct{}
}

func (d *fakeDeque) Register() dequeHandle { return d }
func (d *fakeDeque) Metrics() dq.Metrics   { return dq.Metrics{} }
func (d *fakeDeque) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.vals)
}

func (d *fakeDeque) step() {
	if n := d.ops.Add(1); d.stallAfter > 0 && n > d.stallAfter {
		<-d.release
	}
}

func (d *fakeDeque) PushLeft(v uint32) error {
	d.step()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.vals = append([]uint32{v}, d.vals...)
	return nil
}

func (d *fakeDeque) PushRight(v uint32) error {
	d.step()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.vals = append(d.vals, v)
	return nil
}

func (d *fakeDeque) PopLeft() (uint32, bool) { return d.pop(true) }

func (d *fakeDeque) PopRight() (uint32, bool) { return d.pop(false) }

func (d *fakeDeque) pop(left bool) (uint32, bool) {
	d.step()
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.vals) == 0 {
		return 0, false
	}
	i := len(d.vals) - 1
	if left {
		i = 0
	}
	v := d.vals[i]
	if d.dupAfter > 0 && !d.dupDone && d.ops.Load() > d.dupAfter {
		d.dupDone = true // planted: the value stays and comes out again
		return v, true
	}
	d.vals = append(d.vals[:i], d.vals[i+1:]...)
	return v, true
}

func TestStallGuardEndsInprocRun(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	newFake := func() target { return &fakeDeque{stallAfter: 20000, release: release} }
	cfg := config{workload: "queue-churn", seconds: 30, outDir: t.TempDir()}
	start := time.Now()
	o, err := runInprocWith(cfg, inprocWorkloads["queue-churn"], newFake)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > inprocStall+2*time.Second {
		t.Errorf("stalled run took %s, want about the %s guard window", took, inprocStall)
	}
	if o.stall == "" || !strings.Contains(o.stall, "queue-churn") {
		t.Errorf("stall not reported by workload name: %q", o.stall)
	}
	if o.failed == 0 {
		t.Error("unfinished ops were not counted as failed")
	}
}

func TestStallGuardEndsServiceConnection(t *testing.T) {
	// A peer that reads requests and never answers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 4096)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cc := &countConn{Conn: conn}
	defer cc.Close()
	w := &svcWorker{c: wire.NewClient(cc), cc: cc, wl: serviceWorkloads["dequed-pipelined"], book: new(jobBook), pops: newPopLedger()}
	start := time.Now()
	w.run(&phaseCtl{}, false)
	if took := time.Since(start); took > replyDeadline+time.Second {
		t.Errorf("stalled connection took %s to give up, want about %s", took, replyDeadline)
	}
	if !isTimeout(w.err) || w.unfinished != pipeline {
		t.Errorf("err=%v unfinished=%d, want a deadline error and %d unfinished", w.err, w.unfinished, pipeline)
	}
}

func TestPlantedDuplicateIsCaught(t *testing.T) {
	for _, name := range []string{"deque-mixed", "queue-churn"} {
		var fake *fakeDeque // the last one set up is the one measured
		newFake := func() target {
			fake = &fakeDeque{dupAfter: 5000}
			return fake
		}
		cfg := config{workload: name, seconds: 0.2, outDir: t.TempDir()}
		o, err := runInprocWith(cfg, inprocWorkloads[name], newFake)
		if err != nil {
			t.Fatal(err)
		}
		if !fake.dupDone {
			t.Fatalf("%s: the duplicate was never planted", name)
		}
		if o.viol["conservation.extra"] != 1 {
			t.Errorf("%s: violations %v, want conservation.extra = 1", name, o.viol)
		}
	}
}

func TestCheckConservation(t *testing.T) {
	push := func(p int, n uint32) pushLedger {
		var l pushLedger
		for i := uint32(0); i < n; i++ {
			l.accept(encode(p, i))
			l.next++
		}
		return l
	}
	pop := func(vs ...uint32) *popLedger {
		l := newPopLedger()
		for _, v := range vs {
			l.record(v)
		}
		return l
	}
	in := []pushLedger{push(0, 3)}
	cases := []struct {
		name string
		out  []*popLedger
		fifo bool
		want []string
	}{
		{"exact", []*popLedger{pop(encode(0, 0), encode(0, 2)), pop(encode(0, 1))}, true, nil},
		{"lost", []*popLedger{pop(encode(0, 0), encode(0, 1))}, false, []string{"conservation.lost"}},
		{"duplicate", []*popLedger{pop(encode(0, 0), encode(0, 1), encode(0, 2)), pop(encode(0, 1))}, false, []string{"conservation.extra"}},
		{"swapped", []*popLedger{pop(encode(0, 0), encode(0, 1), encode(0, 1))}, false, []string{"conservation.mismatch"}},
		{"phantom", []*popLedger{pop(encode(0, 0), encode(0, 1), encode(0, 2), encode(3, 0))}, false, []string{"conservation.extra", "conservation.phantom"}},
		{"fifo", []*popLedger{pop(encode(0, 1), encode(0, 0), encode(0, 2))}, true, []string{"fifo.order"}},
	}
	for _, c := range cases {
		got := sortedKeys(checkConservation(in, c.out, c.fifo))
		sort.Strings(c.want)
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Errorf("%s: violations %v, want %v", c.name, got, c.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := uint64(1); v <= 100000; v++ {
		h.record(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100000
		if got := h.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", q, got, want)
		}
	}
	if got := quantileOf([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestWindowMedians(t *testing.T) {
	ws := []window{
		{rate: 3, p50: 30, p99: 300, n: 10},
		{rate: 1, p50: 10, p99: 100, n: 10},
		{rate: 2, p50: 20, p99: 200, n: 10},
		{rate: 4}, // a window with no latency samples
	}
	rate, p50, p99, n := windowMedians(ws)
	if rate != 2.5 || p50 != 20 || p99 != 200 || n != 30 {
		t.Errorf("windowMedians = %v, %v, %v, %v; want 2.5, 20, 200, 30", rate, p50, p99, n)
	}
}

func TestInstructionCounter(t *testing.T) {
	st, instr, err := countedPhase(func() phaseStats {
		x := uint64(1)
		for i := 0; i < 1e7; i++ {
			x = x*6364136223846793005 + 1
		}
		return phaseStats{ops: 1e7 + x%2} // using x keeps the loop
	}, 0)
	if err != nil {
		t.Skip("no hardware instruction counter here:", err)
	}
	// The loop body is a multiply, an add, a compare and a branch.
	if instr < 2 || instr > 100 {
		t.Errorf("%v instructions per loop iteration over %d iterations, want a few", instr, st.ops)
	}
}

func TestStartOnBindsTheServerToItsCPU(t *testing.T) {
	cpus, err := allowedCPUs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cpus) < 2 {
		t.Skip("needs two CPUs")
	}
	cmd := exec.Command("sleep", "5")
	if err := startOn(cmd, cpus[1], cpus[0]); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", cmd.Process.Pid))
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("Cpus_allowed_list:\t%d\n", cpus[1])
	if !strings.Contains(string(b), want) {
		t.Errorf("child status lacks %q", want)
	}
}
