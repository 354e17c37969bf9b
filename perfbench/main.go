// Command perfbench is the repository benchmark. One invocation runs one
// workload for one seed and prints every metric by name, with its unit and
// sample count, then a one-line JSON result:
//
//	bash perfbench/run.sh --workload sim-flood-10k --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each exists):
//
//   - sim-flood-10k: synthetic SWF replay, paper-default flood protocol
//     with iMixed rescheduling, 10k-node overlay, sharded kernel.
//   - live-grid: five ariad daemons behind ariagate on loopback, driven by
//     an open-loop generator.
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 makes a
// separate traced run that reports the per-layer metrics and the tracing
// overhead. A failed correctness check makes the result "correct": false
// and the exit code 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef declares one reported metric. The end-to-end set and the
// per-layer set mirror BENCHMARK.json.
type metricDef struct {
	Name, Unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "frac"},
	{"run_s", "s"},
	{"cpu_ms_per_job", "ms"},
	{"latency_p50_s", "s"},
	{"latency_tail_s", "s"},
}

var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.cpu_frac", "frac"},
	{"sim.completion_mean_s", "s"},
	{"transport.cpu_frac", "frac"},
	{"transport.alloc_frac", "frac"},
	{"transport.write_syscalls_per_job", "count"},
	{"transport.codec_ns_per_msg", "ns"},
	{"transport.codec_allocs_per_msg", "count"},
	{"core.cpu_frac", "frac"},
	{"core.msgs_per_job", "count"},
	{"core.request_msgs_per_job", "count"},
	{"core.inform_msgs_per_job", "count"},
	{"core.discovery_s_p50", "s"},
	{"core.discovery_s_p99", "s"},
	{"core.queue_s_p50", "s"},
	{"core.queue_s_p99", "s"},
	{"core.flood_fallback_frac", "frac"},
	{"directory.cpu_frac", "frac"},
	{"directory.evictions_per_job", "count"},
	{"directory.hit_frac", "frac"},
	{"directory.codec_ns_per_digest", "ns"},
	{"directory.codec_allocs_per_digest", "count"},
	{"directory.learn_gossip_ns_per_digest", "ns"},
	{"directory.learn_gossip_allocs_per_digest", "count"},
	{"overlay.build_s", "s"},
	{"overlay.cpu_frac", "frac"},
	{"sched.cpu_frac", "frac"},
	{"wal.append_sync_us_p50", "us"},
	{"wal.append_sync_us_p99", "us"},
	{"wal.append_allocs_per_op", "count"},
	{"wal.bytes_per_job", "B"},
	{"wal.cpu_frac", "frac"},
	{"gate.submit_ms_p50", "ms"},
	{"gate.submit_ms_p99", "ms"},
	{"gate.cpu_ms_per_job", "ms"},
	{"runtime.allocs_per_event", "count"},
	{"runtime.alloc_bytes_per_event", "B"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.gc_cycles", "count"},
	{"runtime.cpu_frac", "frac"},
	{"gen.lag_p99_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// value is one measured metric: the reported number, how many samples it
// summarizes, and what it means on this workload.
type value struct {
	V       float64
	N       int
	Meaning string
}

// result collects one run's outcome.
type result struct {
	attempted int
	failed    int
	problems  []string // failed correctness checks
	metrics   map[string]value
	context   map[string]any
	notes     []string
}

func newResult() *result {
	return &result{metrics: map[string]value{}, context: map[string]any{}}
}

func (r *result) set(name string, v float64, n int, meaning string) {
	r.metrics[name] = value{V: v, N: n, Meaning: meaning}
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = []string{"sim-flood-10k", "live-grid"}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 30, "measured seconds per run")
		traceOn  = flag.Int("trace", 0, "0 = untraced end-to-end run, 1 = traced per-layer run")
		root     = flag.String("root", ".", "checkout root (binaries and work files live under .bench_build)")
		child    = flag.String("child", "", "internal: run one simulator replay described by this JSON spec")
		ref      = flag.String("hostref", "", "internal: run one host-speed reference probe of this kind")
	)
	flag.Parse()
	if *ref != "" {
		if err := hostRefMain(*ref); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench hostref:", err)
			os.Exit(2)
		}
		return
	}
	if *child != "" {
		if err := childMain(*child); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(2)
		}
		return
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	work, err := filepath.Abs(filepath.Join(*root, ".bench_build", "run", fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	defer os.RemoveAll(work)

	res := newResult()
	res.context["workload"] = *workload
	res.context["seed"] = *seed
	res.context["seconds"] = *seconds
	res.context["trace"] = *traceOn
	res.context["nproc"] = runtime.NumCPU()
	res.context["gomaxprocs"] = runtime.GOMAXPROCS(0)
	res.context["go"] = runtime.Version()
	res.context["work_fs"] = fsType(work)

	traced := *traceOn == 1
	steal0, start := stealTicks(), time.Now()
	switch *workload {
	case "sim-flood-10k":
		err = runSim(res, *workload, *seed, *seconds, traced, work)
	case "live-grid":
		err = runLive(res, *seed, *seconds, traced, work, filepath.Join(*root, ".bench_build", "bin"))
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		os.RemoveAll(work)
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// Time the hypervisor gave to other guests: the usual cause of a
	// slow run on a shared host.
	res.context["steal_frac"] = float64(stealTicks()-steal0) / clockTick /
		(time.Since(start).Seconds() * float64(runtime.NumCPU()))
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if !emit(res, defs) {
		os.RemoveAll(work)
		os.Exit(1)
	}
}

// emit prints the human-readable report and the final JSON line, and
// reports whether every correctness check passed.
func emit(r *result, defs []metricDef) bool {
	ctx, _ := json.Marshal(r.context)
	fmt.Printf("context %s\n", ctx)
	for _, n := range r.notes {
		fmt.Printf("note    %s\n", n)
	}
	out := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok || math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			r.fail("metric %s was not measured", d.Name)
			continue
		}
		fmt.Printf("metric  %-40s %16.6g %-6s n=%-6d %s\n", d.Name, v.V, d.Unit, v.N, v.Meaning)
		out[d.Name] = map[string]any{"value": v.V, "unit": d.Unit}
	}
	// Metrics measured beyond the declared set (e.g. per-layer numbers
	// on an untraced run) are shown for reference only.
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.Name] = true
	}
	var extra []string
	for name := range r.metrics {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		v := r.metrics[name]
		fmt.Printf("extra   %-40s %16.6g        n=%-6d %s\n", name, v.V, v.N, v.Meaning)
	}
	for _, p := range r.problems {
		fmt.Printf("FAIL    %s\n", p)
	}
	correct := len(r.problems) == 0
	if r.attempted < 1 {
		r.attempted = 1
		if correct {
			r.fail("no jobs attempted")
			correct = false
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	fmt.Println(string(line))
	return correct
}
