package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/train"
)

// setupReps is how many times every workload sets up per run; setup_s is
// the median.
const setupReps = 3

// span is one timed call into the program, recorded by the benchmark.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // host seconds since the run started
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"` // index into the span list, -1 for a root
}

// recorder times calls into the program. It always measures; it keeps
// spans only while on: in a traced run, during set-up and the traced half.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int
}

// time runs fn and returns its host duration in seconds.
func (r *recorder) time(name string, fn func() error) (float64, error) {
	if r.t0.IsZero() {
		r.t0 = time.Now()
	}
	idx := -1
	if r.on {
		parent := -1
		if len(r.stack) > 0 {
			parent = r.stack[len(r.stack)-1]
		}
		idx = len(r.spans)
		r.spans = append(r.spans, span{Name: name, Parent: parent})
		r.stack = append(r.stack, idx)
	}
	start := time.Now()
	err := fn()
	end := time.Now()
	if idx >= 0 {
		r.spans[idx].Start = start.Sub(r.t0).Seconds()
		r.spans[idx].End = end.Sub(r.t0).Seconds()
		r.stack = r.stack[:len(r.stack)-1]
	}
	return end.Sub(start).Seconds(), err
}

// durations returns the recorded durations of every span named name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// layerSpan records the median duration of the spans named span as the
// per-layer metric.
func (b *bench) layerSpan(metric, span string) {
	d := b.rec.durations(span)
	b.layer(metric, median(d), len(d))
}

// writeFile writes the spans as JSON to dir/file and returns the path.
func (r *recorder) writeFile(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, file)
	data, err := json.Marshal(r.spans)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}

// printSummary prints, per span name, the call count, median duration,
// total and self time (total minus the part covered by child spans).
func (r *recorder) printSummary(w io.Writer) {
	child := make([]float64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	type agg struct {
		durs        []float64
		total, self float64
	}
	byName := map[string]*agg{}
	for i, s := range r.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		d := s.End - s.Start
		a.durs = append(a.durs, d)
		a.total += d
		a.self += d - child[i]
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]].self > byName[names[j]].self })
	fmt.Fprintf(w, "%-28s %6s %12s %12s %12s\n", "span", "count", "median_s", "total_s", "self_s")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "%-28s %6d %12.6f %12.6f %12.6f\n", n, len(a.durs), median(a.durs), a.total, a.self)
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// heapStats is the live Go heap at the end of each sample.
type heapStats struct {
	peakMB, growthMB float64 // largest; mean growth per sample
}

// loop calls sample until budget host seconds have passed and at least
// minSamples calls were made. Every sample starts after a full garbage
// collection, so that no sample pays for the garbage of the one before, and
// is followed by one while the sample's outputs are still referenced: the
// live heap then is what a sample holds at its end, and repeats run to run,
// unlike a heap reading at whatever moment the collector happened to run.
func loop(budget float64, minSamples int, sample func(i int) (keep any, err error)) (heapStats, error) {
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var first, last, peak float64
	start := time.Now()
	i := 0
	for ; i < minSamples || time.Since(start).Seconds() < budget; i++ {
		runtime.GC()
		keep, err := sample(i)
		if err != nil {
			return heapStats{}, err
		}
		runtime.GC()
		metrics.Read(live)
		last = float64(live[0].Value.Uint64()) / 1e6
		if i == 0 {
			first = last
		}
		peak = max(peak, last)
		runtime.KeepAlive(keep)
	}
	h := heapStats{peakMB: peak}
	if i > 1 {
		h.growthMB = (last - first) / float64(i-1)
	}
	return h, nil
}

// runtimeCounters snapshots cumulative allocation and CPU-class counters.
type runtimeCounters struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU, idleCPU float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
		idleCPU:      s[4].Value.Float64(),
	}
}

// recordRuntime reports allocations per sample and the GC share of busy
// CPU between two snapshots.
func (b *bench) recordRuntime(from, to runtimeCounters, samples int) {
	if samples > 0 {
		b.layer("runtime.allocs_per_sample", float64(to.allocObjects-from.allocObjects)/float64(samples), samples)
		b.layer("runtime.alloc_mb_per_sample", float64(to.allocBytes-from.allocBytes)/1e6/float64(samples), samples)
	}
	if busy := (to.totalCPU - from.totalCPU) - (to.idleCPU - from.idleCPU); busy > 0 {
		b.layer("runtime.gc_cpu_share", (to.gcCPU-from.gcCPU)/busy, samples)
	}
}

// digest hashes the JSON encoding of v: equal digests mean bit-identical
// values (encoding/json writes floats in shortest round-trip form).
func digest(v any) (uint64, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64(), nil
}

// countingWriter counts the bytes written through it and discards them.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// setUp generates and prepares the dataset and builds the system setupReps
// times, recording setup_s and its steps. It returns the last prepared data.
func (b *bench) setUp(dataset string, shrink, gpus int, build func(td *train.Data) error) (*train.Data, error) {
	std := gen.StandardDataset(dataset, shrink)
	std.Config.Seed = rng.Mix(b.seed, std.Config.Seed)
	var totals, gens, preps, builds []float64
	var td *train.Data
	var first uint64
	var detErr error
	for rep := 0; rep < setupReps; rep++ {
		var d *gen.Dataset
		tg, _ := b.rec.time("gen.Generate", func() error {
			d = gen.Generate(std.Config)
			return nil
		})
		tp, _ := b.rec.time("train.Prepare", func() error {
			td = train.Prepare(d, gpus, b.seed, true)
			td.ScaleFactor = std.ScaleFactor
			td.GPUMemBytes = std.GPUMemBytes()
			td.BenchBatch = std.BenchBatch
			return nil
		})
		tb, err := b.rec.time("build", func() error { return build(td) })
		if err != nil {
			return nil, err
		}
		dg, err := digest([]any{td.Offsets, td.Shards, td.Val, td.Labels, td.G.NumEdges()})
		if err != nil {
			return nil, err
		}
		if rep == 0 {
			first = dg
		} else if dg != first {
			detErr = fmt.Errorf("set-up %d prepared different data", rep)
		}
		gens, preps, builds = append(gens, tg), append(preps, tp), append(builds, tb)
		totals = append(totals, tg+tp+tb)
	}
	b.res.check("setup deterministic", detErr)
	b.e2e("setup_s", median(totals), setupReps)
	b.layer("setup.generate_s", median(gens), setupReps)
	b.layer("setup.prepare_s", median(preps), setupReps)
	b.layer("setup.build_s", median(builds), setupReps)
	b.logf("setup: %d nodes, %d GPUs, median %.3fs (generate %.3fs, prepare %.3fs, build %.3fs)",
		td.G.NumNodes(), gpus, median(totals), median(gens), median(preps), median(builds))
	return td, nil
}

// totalSeeds is the number of training seeds one epoch trains.
func totalSeeds(td *train.Data) int {
	n := 0
	for _, s := range td.Shards {
		n += len(s)
	}
	return n
}

// measureHalves runs the measurement. An untraced run measures for the
// whole budget and reports host_seeds_per_s. A traced run measures half the
// budget untraced (with a CPU profile, runtime counters and the heap) and
// half traced (benchmark spans on, program tracer attached by measure), and
// reports the tracing overhead. measure returns the per-sample host
// throughputs in seeds/s and the heap from loop.
func (b *bench) measureHalves(measure func(budget float64) ([]float64, heapStats, error)) error {
	b.rec.on = false
	if !b.traced {
		rates, _, err := measure(b.seconds)
		if err != nil {
			return err
		}
		b.e2e("host_seeds_per_s", median(rates), len(rates))
		b.logf("host seeds/s per sample: %s", formatRates(rates))
		return nil
	}
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	before := readRuntime()
	plain, heap, err := measure(b.seconds / 2)
	after := readRuntime()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	b.recordRuntime(before, after, len(plain))
	b.layer("runtime.heap_peak_mb", heap.peakMB, len(plain))
	b.layer("runtime.heap_growth_mb_per_sample", heap.growthMB, len(plain))
	if err := b.recordCPUShares(cpu.Bytes()); err != nil {
		return err
	}
	b.rec.on, b.inTrace = true, true
	traced, _, err := measure(b.seconds / 2)
	b.rec.on, b.inTrace = false, false
	if err != nil {
		return err
	}
	overhead := median(plain)/median(traced) - 1
	b.layer("bench.trace_overhead", overhead, len(traced))
	b.logf("tracing overhead: %.1f%% (untraced %.4g seeds/s over %d samples, traced %.4g over %d)",
		100*overhead, median(plain), len(plain), median(traced), len(traced))
	return nil
}

// formatRates lists per-sample throughputs for the log.
func formatRates(rates []float64) string {
	var buf bytes.Buffer
	for _, r := range rates {
		fmt.Fprintf(&buf, "%.4g ", r)
	}
	return buf.String()
}
