// Command perfbench is the repository's benchmark. One invocation runs one
// workload against the tree it was built from and prints, as the last line
// of standard output, a JSON object with the keys correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 they are the per-layer ones. See README.md for the
// workloads, the metrics, and which layer each one attributes.
//
// Build and run it through run.sh, from the repository root:
//
//	bash perfbench/run.sh --workload dequed-pipelined --seed 1 --seconds 50 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/hostmeta"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; a --trace 0 run
// prints exactly these. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"instr_per_req", "instr/req"},
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
}

// timed are wall-clock figures of an untraced run. They are printed and
// kept in the detail record but are not end-to-end metrics: on a shared
// virtual machine they move with the host's load (see README.md).
var timed = []metricDef{
	{"ops_per_s", "1/s"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
}

// perLayer are the metrics of single layers; a --trace 1 run prints
// exactly these. A layer the workload does not cross reads 0.
var perLayer = []metricDef{
	{"core.cas_fail_ratio", "ratio"},
	{"core.oracle_hops_per_op", "count/op"},
	{"core.edge_cache_hit_ratio", "ratio"},
	{"core.hint_publishes_per_kop", "count/kop"},
	{"core.straddle_ratio", "ratio"},
	{"core.node_removes_per_kop", "count/kop"},
	{"core.oracle_restarts_per_mop", "count/Mop"},
	{"deque.push_p50_ns", "ns"},
	{"deque.push_p99_ns", "ns"},
	{"deque.pop_p50_ns", "ns"},
	{"deque.pop_p99_ns", "ns"},
	{"deque.push_mean_ns", "ns"},
	{"deque.pop_mean_ns", "ns"},
	{"epoch.recycle_ratio", "ratio"},
	{"epoch.limbo_peak_nodes", "count"},
	{"arena.nodes_high_water", "count"},
	{"arena.bytes_per_elem", "B"},
	{"wire.send_ns_per_req", "ns"},
	{"wire.recv_wait_us_p50", "us"},
	{"wire.bytes_per_req", "B"},
	{"wire.client_cpu_us_per_req", "us"},
	{"server.cpu_us_per_req", "us"},
	{"server.rtt_mean_us", "us"},
	{"server.ping_rtt_mean_us", "us"},
	{"server.service_extra_us", "us"},
	{"server.unattributed_us", "us"},
	{"server.service_mean_ns", "ns"},
	{"server.pool_op_mean_ns", "ns"},
	{"server.steal_sweeps_per_kreq", "count/kreq"},
	{"depq.inv_max", "bands"},
	{"depq.inv_mean", "bands"},
	{"depq.late_p99_ms", "ms"},
	{"depq.shed_ratio", "ratio"},
	{"depq.popmin_empty_ratio", "ratio"},
	{"bench.cores_used", "cores"},
	{"bench.steal_ratio", "ratio"},
	{"bench.fail_ratio", "ratio"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root: sources and .bench_build/bin
	outDir   string // where span files go
	place    *placement
	host     hostmeta.Host // taken before pinning lowers GOMAXPROCS
}

// placement binds a service workload's two processes to CPUs: the
// benchmark to client, the server to server. nil leaves both to the OS.
type placement struct{ client, server int }

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// outcome is what a workload run reports.
type outcome struct {
	attempted uint64
	failed    uint64
	viol      violations
	stall     string             // non-empty when the stall guard ended the run
	values    map[string]float64 // metric values by name
	detail    map[string]any     // extra facts for the detail record
}

func newOutcome() *outcome {
	return &outcome{viol: violations{}, values: map[string]float64{}, detail: map[string]any{}}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"deque-mixed":      runInproc,
	"queue-churn":      runInproc,
	"dequed-pipelined": runService,
	"schedd-deadline":  runService,
}

// epoch is the time base of spans.
var epoch = time.Now()

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run, 0 the end-to-end ones")
	flag.StringVar(&cfg.root, "root", ".", "repository root holding .bench_build/bin")
	flag.StringVar(&cfg.outDir, "out", "", "directory for span files (default <root>/.bench_build/perfbench)")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.host = hostmeta.Collect()
	if cfg.outDir == "" {
		cfg.outDir = filepath.Join(cfg.root, ".bench_build", "perfbench")
	}
	if _, svc := serviceWorkloads[cfg.workload]; svc {
		var err error
		if cfg.place, err = placeService(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: pin to a CPU: %v\n", cfg.workload, err)
			os.Exit(1)
		}
	}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := report(os.Stdout, os.Stderr, cfg, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// Exit explicitly: a worker the stall guard gave up on may still be
	// spinning, and the result is already out.
	os.Exit(0)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the human-readable summary to log, then a detail record
// and the result line to out.
func report(out, log io.Writer, cfg config, o *outcome) error {
	for _, name := range sortedKeys(o.viol) {
		fmt.Fprintf(log, "perfbench: %s: VIOLATION %s: %d\n", cfg.workload, name, o.viol[name])
	}
	if o.stall != "" {
		fmt.Fprintf(log, "perfbench: %s: STALL: %s\n", cfg.workload, o.stall)
	}
	o.failed += o.viol.total()
	if o.attempted == 0 {
		o.attempted = 1 // nothing completed: count the run as one failed attempt
		o.failed = 1
	}
	failRatio := float64(o.failed) / float64(o.attempted)
	o.values["bench.fail_ratio"] = failRatio

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct:   len(o.viol) == 0 && o.stall == "",
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v := o.values[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(log, "perfbench: %s: %-32s %14.6g %s\n", cfg.workload, d.name, v, d.unit)
	}
	fmt.Fprintf(log, "perfbench: %s: %-32s %14.6g (%d of %d)\n", cfg.workload, "fail_ratio", failRatio, o.failed, o.attempted)
	for _, d := range timed {
		if v, ok := o.detail[d.name].(float64); ok {
			fmt.Fprintf(log, "perfbench: %s: %-32s %14.6g %s (timed, not gated)\n", cfg.workload, d.name, v, d.unit)
		}
	}

	o.detail["workload"] = cfg.workload
	o.detail["seed"] = cfg.seed
	o.detail["seconds"] = cfg.seconds
	o.detail["trace"] = cfg.trace
	if cfg.host.NumCPU == 0 {
		cfg.host = hostmeta.Collect()
	}
	o.detail["host"] = cfg.host
	o.detail["fail_ratio"] = failRatio
	o.detail["cores_used"] = o.values["bench.cores_used"]
	o.detail["steal_ratio"] = o.values["bench.steal_ratio"]
	o.detail["violations"] = o.viol
	if o.stall != "" {
		o.detail["stall"] = o.stall
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]any{"detail": o.detail}); err != nil {
		return err
	}
	return enc.Encode(res)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
