package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"repro/internal/baselines"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/trace"
	"repro/internal/train"
)

// train-real: DSP training with real fp32 forward and backward (the
// Figure 9 path) on the products stand-in at 8 GPUs, int8 gradient codec,
// static feature cache. One sample is one full training run of
// trainRealEpochs epochs from a fresh build, so val_acc after the final
// epoch is a fixed quantity; epoch 0 of every run is warm-up.
const (
	trainRealShrink = 4
	trainRealEpochs = 4
	trainRealBatch  = 64
	// trainRealEval is the fixed validation set size for val_acc.
	trainRealEval = 1000
)

// table4-papers8: the Table 4 papers/8 column in cost-only mode. One
// sample is one epoch of each of the five systems; epoch 0 is warm-up.
const table4Shrink = 4

// paperSpeedup is DSP's epoch-time speed-up over the best baseline in the
// paper's Table 4 (papers, 8 GPUs).
const paperSpeedup = 3.7

var table4Systems = []string{"PyG", "DGL-CPU", "Quiver", "DGL-UVA", "DSP"}

// minEpochSamples is the least number of measured samples of a training
// workload; sim_ms is the median DSP epoch over exactly these samples, so it
// does not depend on how many samples the budget allowed.
const minEpochSamples = 3

// epochDigest is the part of EpochStats that must repeat bit for bit.
func epochDigest(st train.EpochStats) (uint64, error) {
	dists := []any{}
	for _, h := range []*metrics.Histogram{st.SampleDist, st.LoadDist, st.TrainDist} {
		if h != nil {
			dists = append(dists, h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99))
		}
	}
	return digest([]any{st, dists})
}

// recordDSPEpoch reports the virtual stage, wire and cache numbers of one
// DSP epoch.
func (b *bench) recordDSPEpoch(st train.EpochStats) {
	b.layer("sim_stage.sample_s", float64(st.SampleStage), 1)
	b.layer("sim_stage.load_s", float64(st.LoadStage), 1)
	b.layer("sim_stage.train_s", float64(st.TrainStage), 1)
	b.layer("wire.sample_bytes", float64(st.SampleWire), 1)
	b.layer("wire.feature_bytes", float64(st.FeatureWire), 1)
	b.layer("wire.grad_bytes", float64(st.GradWire), 1)
	b.layer("cache.local_rows", float64(st.CacheLocal), 1)
	b.layer("cache.peer_rows", float64(st.CachePeer), 1)
	b.layer("cache.host_rows", float64(st.CacheHost), 1)
	if total := st.CacheLocal + st.CachePeer + st.CacheHost; total > 0 {
		b.layer("cache.hit_rate", float64(st.CacheLocal+st.CachePeer)/float64(total), 1)
	}
	b.layer("cache.promoted_rows", float64(st.CachePromoted), 1)
	b.layer("cache.rebalance_bytes", float64(st.RebalanceBytes), 1)
}

// recordProfile builds the program's run report for a traced DSP run,
// validates it and reports the per-epoch stalls from its profile.
func (b *bench) recordProfile(sys *core.DSP, td *train.Data, tr *trace.Tracer, epochs []train.EpochStats, valAcc []float64) {
	rep := train.BuildRunReport(train.ReportInput{
		Command: "perfbench", System: sys.Name(), Dataset: td.Name,
		GPUs: td.NumGPUs(), Seed: b.seed, Epochs: epochs, ValAcc: valAcc,
		Tracer: tr, Compression: sys.Compression(),
	})
	err := rep.Validate()
	if err == nil && rep.Profile == nil {
		err = errors.New("traced run report has no profile")
	}
	if err == nil {
		err = rep.Profile.Validate()
	}
	b.res.check("run report validates", err)
	if err != nil {
		return
	}
	n := float64(len(epochs))
	b.layer("sim_stall.queue_wait_s", rep.Profile.Stalls.QueueWait/n, len(epochs))
	b.layer("sim_stall.ccc_wait_s", rep.Profile.Stalls.CCCWait/n, len(epochs))
	var dropErr error
	if d := tr.Dropped(); d != 0 {
		dropErr = fmt.Errorf("%d events dropped", d)
	}
	b.res.check("trace drops nothing", dropErr)
	if cs, ok := sys.Compression()[hw.TrafficGradient]; ok && cs.Wire > 0 {
		b.layer("grad.raw_over_wire", float64(cs.Raw)/float64(cs.Wire), 1)
	}
}

func trainRealOpts(td *train.Data, seed uint64, par int) train.Options {
	return train.Options{
		Data:        td,
		Model:       nn.Config{Arch: nn.SAGE, InDim: td.FeatDim, Hidden: 64, Classes: td.NumClasses, Layers: 2},
		Sample:      sample.Config{Fanout: []int{10, 5}},
		BatchSize:   trainRealBatch,
		RealCompute: true,
		Pipeline:    true,
		UseCCC:      true,
		LR:          0.003,
		Seed:        seed,
		GradCodec:   compress.NewInt8(seed),
		Parallel:    par,
	}
}

// trainRun is the outcome of one full train-real training run.
type trainRun struct {
	epochs  []train.EpochStats
	digests []uint64
	valAcc  float64
}

func runTrainReal(b *bench) error {
	b.rec.on = b.traced
	td, err := b.setUp("products", trainRealShrink, 8, func(td *train.Data) error {
		_, err := core.New(trainRealOpts(td, b.seed, b.par))
		return err
	})
	if err != nil {
		return err
	}
	b.rec.on = false
	seeds := float64(totalSeeds(td))
	var sys *core.DSP
	// one trains from a fresh build; rates (nil for check runs) collects
	// the host throughput of every epoch after the first.
	one := func(par int, tr *trace.Tracer, rates *[]float64) (trainRun, error) {
		var out trainRun
		opts := trainRealOpts(td, b.seed, par)
		if _, err := b.rec.time("core.New", func() (err error) {
			sys, err = core.New(opts)
			return err
		}); err != nil {
			return out, err
		}
		if tr != nil {
			sys.Machine().SetTracer(tr)
		}
		for e := 0; e < trainRealEpochs; e++ {
			var st train.EpochStats
			name := "RunEpoch DSP"
			if e == 0 {
				name += " (warm-up)"
			}
			host, err := b.rec.time(name, func() (err error) {
				st, err = sys.RunEpoch(e)
				return err
			})
			b.res.attempted++
			if err != nil {
				b.res.failed++
				return out, fmt.Errorf("epoch %d: %w", e, err)
			}
			if e > 0 && rates != nil {
				*rates = append(*rates, seeds/host)
			}
			dg, err := epochDigest(st)
			if err != nil {
				return out, err
			}
			out.epochs, out.digests = append(out.epochs, st), append(out.digests, dg)
		}
		_, err := b.rec.time("train.Evaluate", func() error {
			out.valAcc = train.Evaluate(td, sys.Model(), opts.Sample, trainRealEval, b.seed)
			return nil
		})
		return out, err
	}

	var runs []trainRun
	var profiled bool
	err = b.measureHalves(func(budget float64) ([]float64, heapStats, error) {
		var rates []float64
		// Two runs at least, so that the repeat check always compares.
		heap, err := loop(budget, 2, func(int) (any, error) {
			var tr *trace.Tracer
			if b.inTrace {
				tr = trace.New()
			}
			r, err := one(b.par, tr, &rates)
			if err != nil {
				return nil, err
			}
			if tr != nil && !profiled {
				profiled = true
				b.recordProfile(sys, td, tr, r.epochs, []float64{r.valAcc})
			}
			runs = append(runs, r)
			return sys, nil
		})
		return rates, heap, err
	})
	if err != nil {
		return err
	}
	ref := runs[0]
	var repErr error
	for i, r := range runs[1:] {
		if err := sameRun(ref, r); err != nil {
			repErr = fmt.Errorf("run %d: %w", i+1, err)
		}
	}
	b.res.check("repeated runs bit-identical", repErr)
	par1, err := one(1, nil, nil)
	if err != nil {
		return err
	}
	b.res.check("-parallel 1 bit-identical", sameRun(ref, par1))

	first, last := ref.epochs[0].Loss, ref.epochs[len(ref.epochs)-1].Loss
	var lossErr error
	if math.IsInf(first, 0) || math.IsInf(last, 0) || !(last < first) { // false for NaN too
		lossErr = fmt.Errorf("loss %g -> %g", first, last)
	}
	b.res.check("loss falls and is finite", lossErr)
	var seenErr error
	for _, st := range ref.epochs {
		if float64(st.Seen) != seeds {
			seenErr = fmt.Errorf("epoch %d saw %d of %g seeds", st.Epoch, st.Seen, seeds)
		}
	}
	b.res.check("every seed trained", seenErr)

	sim := make([]float64, 0, len(ref.epochs)-1)
	for _, st := range ref.epochs[1:] {
		sim = append(sim, 1e3*float64(st.EpochTime))
	}
	b.e2e("sim_ms", median(sim), len(sim))
	b.e2e("completed_frac", float64(b.res.attempted-b.res.failed)/float64(b.res.attempted), b.res.attempted)
	b.layer("sim_epoch_ms", median(sim), len(sim))
	b.layer("val_acc", ref.valAcc, 1)
	b.layerSpan("epoch_s.DSP", "RunEpoch DSP")
	b.layerSpan("evaluate_s", "train.Evaluate")
	b.recordDSPEpoch(ref.epochs[1])
	b.logf("train-real: %d training runs of %d epochs, loss %.4g -> %.4g, val_acc %.4f, sim epoch %.4g ms",
		len(runs), trainRealEpochs, first, last, ref.valAcc, median(sim))
	if b.traced {
		opts := trainRealOpts(td, b.seed, b.par)
		return b.replayAll(replayInput{
			td: td, sample: opts.Sample, batch: opts.BatchSize, model: opts.Model, store: sys.Store(), seed: b.seed,
		})
	}
	return nil
}

// sameRun reports the first difference between two training runs.
func sameRun(a, b trainRun) error {
	if len(a.digests) != len(b.digests) {
		return fmt.Errorf("%d vs %d epochs", len(a.digests), len(b.digests))
	}
	for e := range a.digests {
		if a.digests[e] != b.digests[e] {
			return fmt.Errorf("epoch %d stats differ", e)
		}
	}
	if math.Float64bits(a.valAcc) != math.Float64bits(b.valAcc) {
		return fmt.Errorf("val_acc %v vs %v", a.valAcc, b.valAcc)
	}
	return nil
}

// scaledGPU is the V100 with per-batch fixed costs divided by the
// batch-count scale, as the repository's Table 4 harness configures it.
func scaledGPU() hw.GPUSpec {
	s := hw.V100()
	s.KernelLaunch /= table4BatchScale
	s.MallocOverhead /= table4BatchScale
	return s
}

// table4BatchScale is the paper-batches / stand-in-batches ratio of the
// Table 4 harness.
const table4BatchScale = 25

func table4Opts(td *train.Data, seed uint64, par int) train.Options {
	return train.Options{
		Data:         td,
		GPU:          scaledGPU(),
		Model:        nn.Config{Arch: nn.SAGE, InDim: td.FeatDim, Hidden: 256, Classes: td.NumClasses, Layers: 3},
		Sample:       sample.Config{Fanout: []int{15, 10, 5}},
		BatchSize:    td.BenchBatch,
		Pipeline:     true,
		UseCCC:       true,
		Seed:         seed,
		LatencyScale: table4BatchScale,
		Parallel:     par,
		GradCodec:    compress.NewInt8(seed),
	}
}

func buildTable4(td *train.Data, seed uint64, par int) ([]train.System, error) {
	opts := table4Opts(td, seed, par)
	kinds := map[string]baselines.Kind{
		"PyG": baselines.PyG, "DGL-CPU": baselines.DGLCPU, "Quiver": baselines.Quiver, "DGL-UVA": baselines.DGLUVA,
	}
	systems := make([]train.System, 0, len(table4Systems))
	for _, name := range table4Systems {
		var sys train.System
		var err error
		if name == "DSP" {
			sys, err = core.New(opts)
		} else {
			sys, err = baselines.New(kinds[name], opts)
		}
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", name, err)
		}
		systems = append(systems, sys)
	}
	return systems, nil
}

func runTable4(b *bench) error {
	b.rec.on = b.traced
	var systems []train.System
	td, err := b.setUp("papers", table4Shrink, 8, func(td *train.Data) (err error) {
		systems, err = buildTable4(td, b.seed, b.par)
		return err
	})
	if err != nil {
		return err
	}
	b.rec.on = false
	seeds := float64(totalSeeds(td))
	dsp := systems[len(systems)-1].(*core.DSP)

	// epoch runs epoch e of every system; stats[i] and digests[i] belong to
	// table4Systems[i]. host is the summed host time.
	epoch := func(systems []train.System, e int) (stats []train.EpochStats, digests []uint64, host float64, err error) {
		for _, sys := range systems {
			var st train.EpochStats
			t, err := b.rec.time("RunEpoch "+sys.Name(), func() (err error) {
				st, err = sys.RunEpoch(e)
				return err
			})
			b.res.attempted++
			if err != nil {
				b.res.failed++
				return nil, nil, 0, fmt.Errorf("%s epoch %d: %w", sys.Name(), e, err)
			}
			dg, err := epochDigest(st)
			if err != nil {
				return nil, nil, 0, err
			}
			stats, digests, host = append(stats, st), append(digests, dg), host+t
		}
		return stats, digests, host, nil
	}

	_, warm, _, err := epoch(systems, 0)
	if err != nil {
		return err
	}
	var measured [][]train.EpochStats
	next := 1
	var tr *trace.Tracer
	var traced []train.EpochStats
	err = b.measureHalves(func(budget float64) ([]float64, heapStats, error) {
		if b.inTrace {
			tr = trace.New()
			dsp.Machine().SetTracer(tr)
		}
		var rates []float64
		heap, err := loop(budget, minEpochSamples, func(int) (any, error) {
			stats, _, host, err := epoch(systems, next)
			if err != nil {
				return nil, err
			}
			next++
			measured = append(measured, stats)
			if b.inTrace {
				traced = append(traced, stats[len(stats)-1])
			}
			rates = append(rates, float64(len(systems))*seeds/host)
			return nil, nil
		})
		return rates, heap, err
	})
	if err != nil {
		return err
	}

	par1, err := buildTable4(td, b.seed, 1)
	if err != nil {
		return err
	}
	_, again, _, err := epoch(par1, 0)
	if err != nil {
		return err
	}
	var parErr error
	for i := range warm {
		if warm[i] != again[i] {
			parErr = fmt.Errorf("%s epoch 0 differs at -parallel 1", table4Systems[i])
		}
	}
	b.res.check("-parallel 1 bit-identical", parErr)

	sim := make([]float64, 0, minEpochSamples)
	for _, stats := range measured[:minEpochSamples] {
		sim = append(sim, 1e3*float64(stats[len(stats)-1].EpochTime))
	}
	first := measured[0]
	dspTime := first[len(first)-1].EpochTime
	best, bestName := math.Inf(1), ""
	var fastErr error
	for i, st := range first[:len(first)-1] {
		if float64(st.EpochTime) < best {
			best, bestName = float64(st.EpochTime), table4Systems[i]
		}
		if st.EpochTime <= dspTime {
			fastErr = fmt.Errorf("%s epoch %.4gs <= DSP %.4gs", table4Systems[i], float64(st.EpochTime), float64(dspTime))
		}
	}
	b.res.check("DSP has the fastest virtual epoch", fastErr)
	speedup := best / float64(dspTime)

	b.e2e("sim_ms", median(sim), len(sim))
	b.e2e("completed_frac", float64(b.res.attempted-b.res.failed)/float64(b.res.attempted), b.res.attempted)
	b.layer("sim_epoch_ms", median(sim), len(sim))
	b.layer("sim_speedup_over_best_baseline", speedup, 1)
	for _, name := range table4Systems {
		b.layerSpan("epoch_s."+name, "RunEpoch "+name)
	}
	b.recordDSPEpoch(first[len(first)-1])
	b.logf("table4-papers8: %d samples; virtual epoch ms: %s", len(measured), epochLine(first))
	fmt.Fprintf(b.out, "paper reference: DSP virtual speed-up over the best baseline (%s) %.2fx; paper Table 4 (papers, 8 GPUs) reports %.1fx. Informational, not gated. No other number here has a reference: the model is unvalidated.\n",
		bestName, speedup, paperSpeedup)
	if b.traced {
		b.recordProfile(dsp, td, tr, traced, nil)
		opts := table4Opts(td, b.seed, b.par)
		return b.replayAll(replayInput{
			td: td, sample: opts.Sample, batch: opts.BatchSize, model: opts.Model,
			store: dsp.Store(), seed: b.seed,
		})
	}
	return nil
}

// epochLine formats one sample's virtual epoch times by system.
func epochLine(stats []train.EpochStats) string {
	var buf bytes.Buffer
	for i, st := range stats {
		fmt.Fprintf(&buf, "%s %.4g  ", table4Systems[i], 1e3*float64(st.EpochTime))
	}
	return buf.String()
}
