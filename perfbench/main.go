// Command perfbench is the repository's end-to-end benchmark. For each
// workload it builds the inputs from -seed, sets up several times, measures
// for -seconds of host time, checks that the simulator's outputs are
// correct, and prints every metric by name with its unit and sample count,
// ending with one JSON line with the keys correct, attempted, failed and
// metrics. -workload all runs every workload in turn in one process.
//
// Two clocks are named everywhere: a metric whose name starts with sim_ is
// virtual time on the modelled DGX-1 (deterministic for a seed); every other
// time is host time, what the simulator itself costs.
//
// With -trace 0 the metrics are the end-to-end ones (see e2eMetrics). With
// -trace 1 the run measures half of its budget untraced and half traced: the
// benchmark records its own spans around every call into the program,
// attaches the program's tracer, takes a CPU profile, replays the hot layers
// in isolation, and prints the per-layer metrics (see layerMetrics),
// including its own tracing overhead.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload table4-papers8 --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(b *bench) error
}

var workloads = []workload{
	{"train-real", runTrainReal},
	{"table4-papers8", runTable4},
	{"serve-traced", runServe},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames()+", or all to run each in turn")
	seed := fs.Uint64("seed", 1, "seeds dataset generation and the run")
	seconds := fs.Float64("seconds", 20, "host seconds to measure")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if w.name == *name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s or all), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	code := 0
	for _, w := range selected {
		code = max(code, runWorkload(w, *seed, *seconds, *traced == 1, stdout, stderr))
	}
	return code
}

// runWorkload runs one workload and prints its metrics; the last line it
// prints is the workload's JSON result. It returns the exit code.
func runWorkload(wl workload, seed uint64, seconds float64, traced bool, stdout, stderr io.Writer) int {
	// Measured runs give the simulator one data-work thread per CPU.
	nproc := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	b := &bench{
		seed:    seed,
		seconds: seconds,
		traced:  traced,
		par:     nproc,
		out:     stdout,
		rec:     &recorder{},
		res:     newResult(),
	}
	fmt.Fprintf(stdout, "perfbench: workload %s seed %d seconds %g traced %v parallel %d (%s)\n",
		wl.name, seed, seconds, traced, nproc, runtime.Version())
	if err := wl.run(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	if b.traced {
		path, err := b.rec.writeFile(spansDir, fmt.Sprintf("%s-seed%d.json", wl.name, seed))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(b.rec.spans), path)
		b.rec.printSummary(stdout)
	}
	return b.res.print(stdout, b.traced)
}

// spansDir is where a traced run writes its spans, relative to the
// checkout root; run.sh keeps all benchmark output under .bench_build.
const spansDir = ".bench_build/spans"

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// bench is one run's shared state.
type bench struct {
	seed    uint64
	seconds float64
	// traced selects the traced run; inTrace is true only while its traced
	// half is measuring.
	traced, inTrace bool
	par             int
	out             io.Writer
	rec             *recorder
	res             *result
}

// logf prints one human-readable progress line.
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.out, "  "+format+"\n", args...)
}

// metricDef names a metric, its unit and which direction is better.
type metricDef struct {
	name, unit string
	higher     bool
}

func lower(name, unit string) metricDef  { return metricDef{name, unit, false} }
func higher(name, unit string) metricDef { return metricDef{name, unit, true} }

// e2eMetrics are printed by every untraced run, on every workload. Each is
// defined on every workload and is never zero there.
var e2eMetrics = []metricDef{
	lower("setup_s", "s"),
	higher("host_seeds_per_s", "seeds/s"),
	lower("sim_ms", "ms"),
	higher("completed_frac", "fraction"),
}

// layerMetrics are printed by every traced run, on every workload. A layer
// that does no work on a workload reports 0 there.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		lower("setup.generate_s", "s"), lower("setup.prepare_s", "s"), lower("setup.build_s", "s"),
		lower("epoch_s.PyG", "s"), lower("epoch_s.DGL-CPU", "s"), lower("epoch_s.Quiver", "s"),
		lower("epoch_s.DGL-UVA", "s"), lower("epoch_s.DSP", "s"), lower("evaluate_s", "s"),
		lower("sim_epoch_ms", "ms"), higher("sim_speedup_over_best_baseline", "x"), higher("val_acc", "fraction"),
		lower("sim_stage.sample_s", "s"), lower("sim_stage.load_s", "s"), lower("sim_stage.train_s", "s"),
		lower("sim_stall.queue_wait_s", "s"), lower("sim_stall.ccc_wait_s", "s"),
		lower("wire.sample_bytes", "bytes"), lower("wire.feature_bytes", "bytes"), lower("wire.grad_bytes", "bytes"),
		higher("grad.raw_over_wire", "x"),
		higher("cache.local_rows", "rows"), higher("cache.peer_rows", "rows"), lower("cache.host_rows", "rows"),
		higher("cache.hit_rate", "fraction"), lower("cache.promoted_rows", "rows"), lower("cache.rebalance_bytes", "bytes"),
		lower("serve.run_s", "s"), lower("serve.rounds", "count"), higher("serve.mean_batch", "requests"),
		lower("sim_p50_ms", "ms"), lower("sim_p99_ms", "ms"),
		lower("trace.write_s", "s"), lower("trace.events", "count"), lower("trace.json_mb", "MB"),
		lower("telemetry.finish_s", "s"), lower("telemetry.samples", "count"), lower("telemetry.alerts", "count"),
		lower("runtime.allocs_per_sample", "count"), lower("runtime.alloc_mb_per_sample", "MB"),
		lower("runtime.gc_cpu_share", "fraction"),
		lower("runtime.heap_peak_mb", "MB"), lower("runtime.heap_growth_mb_per_sample", "MB"),
		lower("bench.trace_overhead", "fraction"),
	}
	for _, r := range replays {
		defs = append(defs, lower("replay."+r.name+".ns_op", "ns/op"), lower("replay."+r.name+".allocs_op", "allocs/op"))
	}
	for _, pkg := range profiledPackages {
		defs = append(defs, lower("cpu_share."+pkg, "fraction"))
	}
	return append(defs, lower("cpu_profile.samples", "count"))
}()

// value is one measured metric with the number of samples behind it.
type value struct {
	v float64
	n int
}

// result collects a run's metrics, operation counts and check outcomes.
type result struct {
	e2e, layer        map[string]value
	attempted, failed int
	checks            []string // names of passed checks, in order
	failures          []string // failed checks with their reason
}

func newResult() *result {
	return &result{e2e: map[string]value{}, layer: map[string]value{}}
}

// check records a correctness check; a non-nil err fails the run.
func (r *result) check(name string, err error) {
	if err != nil {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", name, err))
		return
	}
	r.checks = append(r.checks, name)
}

// print writes the human-readable metric lines and the final JSON line, and
// returns the exit code: non-zero when a check failed.
func (r *result) print(w io.Writer, traced bool) int {
	defs, vals := e2eMetrics, r.e2e
	if traced {
		defs, vals = layerMetrics, r.layer
	}
	for _, name := range unknownKeys(vals, defs) {
		r.failures = append(r.failures, "metric "+name+" is not declared")
	}
	if !traced {
		for _, d := range defs {
			if vals[d.name].n == 0 {
				r.failures = append(r.failures, "end-to-end metric "+d.name+" was not measured")
			}
		}
	}
	fmt.Fprintf(w, "checks passed: %s\n", strings.Join(r.checks, ", "))
	for _, f := range r.failures {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", f)
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v := vals[d.name]
		better := "lower"
		if d.higher {
			better = "higher"
		}
		fmt.Fprintf(w, "%-40s %16.6g %-9s %-6s is better (n=%d)\n", d.name, v.v, d.unit, better, v.n)
		metrics[d.name] = map[string]any{"value": v.v, "unit": d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(r.failures) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(w, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if len(r.failures) > 0 {
		return 1
	}
	return 0
}

// unknownKeys lists recorded metric names missing from defs: a typo would
// otherwise silently report 0 under the declared name.
func unknownKeys(vals map[string]value, defs []metricDef) []string {
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
	}
	var out []string
	for k := range vals {
		if !known[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// e2e records an end-to-end metric.
func (b *bench) e2e(name string, v float64, n int) { b.res.e2e[name] = value{v, n} }

// layer records a per-layer metric.
func (b *bench) layer(name string, v float64, n int) { b.res.layer[name] = value{v, n} }
