// Package core implements DSP — Distributed Sampling and Pipelining — the
// paper's multi-GPU GNN training system.
//
// Data layout: the graph topology is METIS-partitioned into patches, one per
// GPU (internal/csp); remaining device memory caches the hottest feature
// rows of each GPU's own patch, forming a partitioned aggregate cache
// (internal/featstore); seed nodes are co-partitioned with the topology.
//
// Per mini-batch, three workers run on every GPU: the sampler builds graph
// samples with the collective sampling primitive, the loader fetches
// features (NVLink all-to-all for hot rows, UVA for cold rows, in
// parallel), and the trainer computes gradients and allreduces them. The
// workers of different mini-batches overlap through bounded queues
// (capacity 2), and all communication kernels launch under centralized
// communication coordination to stay deadlock-free.
package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/csp"
	"repro/internal/fault"
	"repro/internal/featstore"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/prof"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/train"
)

// Worker ids for communication coordination.
const (
	samplerWorker = iota
	loaderWorker
	trainerWorker
)

// DSP is a configured instance of the system on a simulated machine.
type DSP struct {
	Opts train.Options

	m         *hw.Machine
	world     *csp.World
	store     *featstore.Store
	hostStore *store.Store
	cacheMgr  *cache.Manager
	coord     *pipeline.Coordinator

	trainer *train.Trainer
	sched   train.Schedule
	inj     *fault.Injector

	// strat owns the per-round gather/forward/backward orchestration
	// (internal/strategy): the DSP hot/cold gather or the P3 push-pull mode.
	strat strategy.ExecutionStrategy

	// Per-instance worker state (paper §5 multi-instance ablation): one
	// sampler world and one loader communicator per worker instance; a
	// single-instance run has one of each (worlds[0] is world).
	worlds      []*csp.World
	loaderComms []*comm.Communicator
}

// New builds a DSP instance: machine, partitioned topology, feature cache,
// communicators, coordinator and model replicas.
func New(opts train.Options) (*DSP, error) {
	opts = opts.Defaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	kind, err := strategy.Parse(opts.Strategy)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := strategy.CheckCompatible(kind, strategy.Knobs{
		ReplicatedCache: opts.ReplicatedCache,
		DynamicCache:    opts.DynamicCache,
		CacheBudget:     opts.FeatureCacheBudget,
		Faults:          len(opts.Faults) > 0,
		MultiInstance:   opts.NumSamplers > 1 || opts.NumLoaders > 1,
	}); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Fault recovery (view-driven collective aborts, CCC leader failover,
	// partial-epoch replay) is built and tested for one instance per stage.
	if len(opts.Faults) > 0 && (opts.NumSamplers > 1 || opts.NumLoaders > 1) {
		return nil, fmt.Errorf("core: fault tolerance is unsupported with multi-instance workers")
	}
	d := opts.Data
	n := d.NumGPUs()
	s := &DSP{Opts: opts}
	s.m = hw.NewMachineScaled(n, opts.GPU, opts.CPU, opts.LatencyScale)
	s.m.Eng.SetParallelism(opts.Parallel)
	topoBudget := opts.TopoCacheBudget
	if topoBudget <= 0 {
		// Cache the whole patch when it fits; otherwise keep the hottest
		// adjacency lists within 60% of device memory (the paper: "DSP can
		// also handle large graph patches by storing the hot nodes in GPU
		// memory and the other nodes in CPU memory").
		topoBudget = opts.GPU.MemBytes * 6 / 10
	}
	var topo graph.Topology = d.G
	if opts.CompressTopology {
		topo = graph.Compress(d.G)
	}
	world, err := csp.NewWorldBudget(s.m, topo, d.Offsets, topoBudget)
	if err != nil {
		return nil, fmt.Errorf("core: topology layout: %w", err)
	}
	s.world = world
	if opts.OOC {
		hs, err := store.New(s.m.Eng, topo, d.G.NumNodes(), d.RowBytes(), store.Config{
			BlockNodes:   opts.OOCBlockNodes,
			CacheBytes:   opts.OOCBudget,
			Prefetch:     !opts.OOCNoPrefetch,
			LatencyScale: opts.LatencyScale,
		})
		if err != nil {
			return nil, fmt.Errorf("core: out-of-core store: %w", err)
		}
		s.hostStore = hs
		s.world.SetHostStore(hs)
	}

	// Reserve in-flight worker buffers BEFORE sizing the feature cache (see
	// the multi-instance note below): extra sampler/loader instances eat
	// directly into cache memory.
	nS, nL := opts.NumSamplers, opts.NumLoaders
	if nS < 1 {
		nS = 1
	}
	if nL < 1 {
		nL = 1
	}
	qc := opts.QueueCap
	if qc < 1 {
		qc = 2
	}
	// Every extra worker instance holds additional in-flight mini-batches
	// (graph samples + gathered features) in device memory — the first
	// reason the paper gives against the multi-instance design ("it
	// consumes more memory for in-flight works and thus leaves less GPU
	// memory to cache graph topology and node features").
	if extra := (nS - 1) + (nL - 1); extra > 0 {
		slots := int64(extra) * int64(qc)
		perSlot := int64(opts.BatchSize) * 32 * int64(d.RowBytes())
		for g := 0; g < n; g++ {
			dev := s.m.GPUs[g]
			want := slots * perSlot
			// In-flight buffers squeeze the feature cache down to nothing
			// before the build fails outright (leave a 5% floor so the
			// system still assembles; the cache just starves).
			if lim := dev.MemFree() * 95 / 100; want > lim {
				want = lim
			}
			if err := dev.Reserve(want); err != nil {
				return nil, fmt.Errorf("core: in-flight buffers for %d extra workers: %w", extra, err)
			}
		}
	}

	// Feature cache: topology first (the Figure 10 insight), features with
	// the remaining or configured budget.
	s.store, err = strategy.BuildStore(kind, s.m, d, opts.FeatureCacheBudget,
		featstore.Policy(opts.CachePolicy), opts.ReplicatedCache)
	if err != nil {
		return nil, fmt.Errorf("core: feature cache: %w", err)
	}
	mcfg := opts.CacheTune
	mcfg.Policy = opts.DynamicCache
	s.cacheMgr = cache.New(s.store, d.G, d.Offsets, mcfg)

	// Distinct CCC worker ids: samplers 0..nS-1, loaders nS..nS+nL-1,
	// trainer last.
	s.coord = pipeline.NewCoordinator(s.m.Eng, n, opts.UseCCC, 2)
	// The CLIs attach tracers to the machine after New returns, so the
	// coordinator resolves the tracer at launch time.
	s.coord.Tracer = func() *trace.Tracer { return s.m.GPUs[0].Tracer }
	s.worlds = []*csp.World{s.world}
	for i := 1; i < nS; i++ {
		s.worlds = append(s.worlds, s.world.Clone())
	}
	for j := 0; j < nL; j++ {
		s.loaderComms = append(s.loaderComms, comm.New(s.m))
	}
	trainerComm := comm.New(s.m)
	if opts.UseCCC {
		for i, w := range s.worlds {
			w.Comm.SetGate(s.coord.Gate(i))
		}
		for j, lc := range s.loaderComms {
			lc.SetGate(s.coord.Gate(nS + j))
		}
		trainerComm.SetGate(s.coord.Gate(nS + nL))
	}
	s.trainer = train.NewTrainer(opts, trainerComm)
	s.strat = strategy.New(kind, strategy.Env{
		Opts: opts, M: s.m, Store: s.store, Cache: s.cacheMgr, Host: s.hostStore, Trainer: s.trainer,
	})
	s.sched = train.NewSchedule(d, opts.BatchSize)
	if len(opts.Faults) > 0 {
		inj, err := fault.NewInjector(s.m, opts.Faults)
		if err != nil {
			return nil, fmt.Errorf("core: fault schedule: %w", err)
		}
		s.inj = inj
		s.cacheMgr.SetView(inj.View())
	}
	return s, nil
}

// Name implements train.System.
func (s *DSP) Name() string {
	if s.strat != nil && s.strat.Kind() == strategy.KindP3 {
		return "DSP-P3"
	}
	if s.Opts.Pipeline {
		return "DSP"
	}
	return "DSP-Seq"
}

// Strategy exposes the active execution strategy.
func (s *DSP) Strategy() strategy.ExecutionStrategy { return s.strat }

// StrategySection reports the strategy's wire/compute accounting for the
// run report (nil for the default DSP strategy, whose accounting already
// flows through the existing sections).
func (s *DSP) StrategySection() *prof.StrategySection { return s.strat.Section() }

// Machine implements train.System.
func (s *DSP) Machine() *hw.Machine { return s.m }

// AttachTelemetry registers the trainer's scrape sources on the hub and
// starts its scraper daemon on this instance's engine: per-GPU busy
// fractions, per-class wire bytes, cache-tier hit rate and out-of-core
// residency. Call before the first epoch; the scraper daemon survives
// each epoch's Run-to-quiescence, so one hub spans a multi-epoch loop.
func (s *DSP) AttachTelemetry(h *telemetry.Hub) {
	if !h.Enabled() {
		return
	}
	for g := range s.m.GPUs {
		dev := s.m.GPUs[g]
		h.Rate(fmt.Sprintf("gpu%d/busy", g), func(now sim.Time) float64 {
			return float64(dev.BusyAt(now))
		})
	}
	ctr := &s.m.Fabric.Counters
	h.Counter("wire/sample_bytes", func(sim.Time) float64 {
		return float64(ctr.TotalWire(hw.TrafficSample))
	})
	h.Counter("wire/feature_bytes", func(sim.Time) float64 {
		return float64(ctr.TotalWire(hw.TrafficFeature))
	})
	h.Counter("wire/gradient_bytes", func(sim.Time) float64 {
		return float64(ctr.TotalWire(hw.TrafficGradient))
	})
	if s.strat == nil || s.strat.Kind() != strategy.KindP3 {
		h.Gauge("cache/hit_rate", func(sim.Time) float64 {
			return s.cacheMgr.Stats().Tiers.HitRate()
		})
	}
	if s.hostStore != nil {
		h.Gauge("store/resident_bytes", func(sim.Time) float64 {
			return float64(s.hostStore.Stats().ResidentBytes)
		})
	}
	h.Start(s.m.Eng)
}

// Model implements train.System.
func (s *DSP) Model() *nn.Model {
	if len(s.trainer.Models) == 0 {
		return nil
	}
	return s.trainer.Models[0]
}

// Replicas returns every per-GPU model replica (empty in cost-only mode).
func (s *DSP) Replicas() []*nn.Model { return s.trainer.Models }

// Store exposes the feature cache (for cache-layout assertions in tests).
func (s *DSP) Store() *featstore.Store { return s.store }

// World exposes the CSP world (for comm-volume measurements).
func (s *DSP) World() *csp.World { return s.world }

// Compression merges the codec accounting of every communicator the system
// drives — sampler worlds, loader instances, and the gradient allreduce —
// into one per-traffic-class raw-vs-wire byte map.
func (s *DSP) Compression() map[hw.TrafficClass]comm.CompressionStats {
	out := map[hw.TrafficClass]comm.CompressionStats{}
	merge := func(m map[hw.TrafficClass]comm.CompressionStats) {
		for class, cs := range m {
			acc := out[class]
			acc.Raw += cs.Raw
			acc.Wire += cs.Wire
			out[class] = acc
		}
	}
	for _, w := range s.worlds {
		merge(w.Comm.Compression())
	}
	for _, lc := range s.loaderComms {
		merge(lc.Compression())
	}
	merge(s.trainer.Comm.Compression())
	return out
}

// sampleStage builds the step's graph samples on world w via CSP (or the
// data-pull alternative when the Figure 11 ablation is selected).
func (s *DSP) sampleStage(p *sim.Proc, w *csp.World, rank, epoch, step int) *sample.MiniBatch {
	seeds := s.sched.Batch(s.Opts.Data, s.Opts.Seed, epoch, step, rank)
	bs := train.BatchSeed(s.Opts.Seed, epoch, step, rank)
	switch {
	case s.Opts.PullData:
		return w.PullDataSampleBatch(p, rank, seeds, s.Opts.Sample, bs)
	case s.Opts.UnfusedSampling:
		return w.SampleBatchUnfused(p, rank, seeds, s.Opts.Sample, bs)
	default:
		return w.SampleBatch(p, rank, seeds, s.Opts.Sample, bs)
	}
}

// RunEpoch implements train.System.
func (s *DSP) RunEpoch(epoch int) (train.EpochStats, error) {
	return s.RunEpochRange(epoch, 0, s.sched.Steps)
}

// RunEpochRange implements train.Recoverable: steps [from, to) of one epoch.
// When the range completes the epoch and a dynamic cache policy is selected,
// the shard rebalance runs at the boundary and its migration cost is charged
// to the epoch's virtual time.
func (s *DSP) RunEpochRange(epoch, from, to int) (train.EpochStats, error) {
	before := s.cacheMgr.Stats()
	var storeBefore store.Stats
	if s.hostStore != nil {
		storeBefore = s.hostStore.Stats()
	}
	// Extra worker instances contend for the same host cores, so each
	// stage's framework overhead grows with the total instance count (the
	// paper's second reason against them: "the resource contention for
	// both CPU and GPU is more severe").
	overhead := s.Opts.EffectiveStageOverhead()
	if workers := len(s.worlds) + len(s.loaderComms) + 1; workers > 3 {
		overhead = overhead * sim.Time(workers) / 3
	}
	st, err := train.RunEpochSteps([]*hw.Machine{s.m}, nil, epoch, from, to, s.Opts.Pipeline, s.Opts.QueueCap, overhead,
		func(rank int, st *train.EpochStats) pipeline.Stages {
			return pipeline.Stages{
				Samplers: len(s.worlds),
				Loaders:  len(s.loaderComms),
				Sample: func(p *sim.Proc, step int) interface{} {
					return s.sampleStage(p, s.worlds[step%len(s.worlds)], rank, epoch, step)
				},
				Load: func(p *sim.Proc, step int, v interface{}) interface{} {
					return s.strat.Load(p, rank, v.(*sample.MiniBatch), s.loaderComms[step%len(s.loaderComms)])
				},
				Train: func(p *sim.Proc, step int, v interface{}) {
					s.strat.Train(p, rank, v.(strategy.Loaded), st)
				},
			}
		})
	if err != nil {
		return st, err
	}
	// Epoch-boundary adaptation (only when this range reaches the epoch's
	// end — checkpoint segments mid-epoch do not rebalance). RunEpochSteps
	// measures its own window, so the rebalance runs as a separate engine
	// pass and its duration is added to the epoch time explicitly.
	if to >= s.sched.Steps && s.cacheMgr.Dynamic() {
		t0 := s.m.Eng.Now()
		s.m.Eng.Go("cache/rebalance", func(p *sim.Proc) {
			s.cacheMgr.Rebalance(p, s.m.Fabric)
		})
		end, err := s.m.Eng.Run()
		if err != nil {
			return st, err
		}
		st.EpochTime += end - t0
	}
	after := s.cacheMgr.Stats()
	st.CacheLocal = after.Tiers.Local - before.Tiers.Local
	st.CachePeer = after.Tiers.Peer - before.Tiers.Peer
	st.CacheHost = after.Tiers.Host - before.Tiers.Host
	st.CachePromoted = after.Promoted - before.Promoted
	st.RebalanceBytes = after.MovedBytes - before.MovedBytes
	st.RebalanceTime = after.RebalanceTime - before.RebalanceTime
	if s.hostStore != nil {
		ss := s.hostStore.Stats()
		st.StoreHits = ss.Hits - storeBefore.Hits
		st.StoreMisses = ss.Misses - storeBefore.Misses
		st.StoreDemandBytes = ss.DemandBytes - storeBefore.DemandBytes
		st.StorePrefetchIssued = ss.PrefetchIssued - storeBefore.PrefetchIssued
		st.StorePrefetchUsed = ss.PrefetchUsed - storeBefore.PrefetchUsed
		st.StoreStall = ss.StallTime - storeBefore.StallTime
	}
	return st, nil
}

// OOCStats exposes the out-of-core store's cumulative accounting (zero Stats
// when the OOC tier is disabled).
func (s *DSP) OOCStats() store.Stats {
	if s.hostStore == nil {
		return store.Stats{}
	}
	return s.hostStore.Stats()
}

// TopologyResidentBytes reports the world's total resident topology bytes
// (compressed when Opts.CompressTopology), for memory-frontier assertions.
func (s *DSP) TopologyResidentBytes() int64 { return s.world.TopologyResidentBytes() }

// CacheStats exposes the adaptive cache manager's cumulative accounting.
func (s *DSP) CacheStats() cache.Stats { return s.cacheMgr.Stats() }

// Steps implements train.Recoverable.
func (s *DSP) Steps() int { return s.sched.Steps }

// Injector implements train.Recoverable (nil without an Opts.Faults schedule).
func (s *DSP) Injector() *fault.Injector { return s.inj }

// Snapshot implements train.Recoverable. Under BSP every replica is identical
// between steps, so rank 0's parameters and optimizer describe the fleet; in
// cost-only mode the state is the cursor alone.
func (s *DSP) Snapshot(epoch, step int) *ckpt.TrainState {
	st := &ckpt.TrainState{Epoch: epoch, Step: step, Seed: s.Opts.Seed, Model: s.Opts.Model}
	if len(s.trainer.Models) > 0 {
		m := s.trainer.Models[0]
		st.Params = make([]float32, m.ParamCount())
		m.ParamVector(st.Params)
		if so, ok := s.trainer.Optims[0].(nn.StatefulOptimizer); ok {
			st.Optim = so.CaptureState()
		}
	}
	return st
}

// Restore implements train.Recoverable, broadcasting the checkpoint into
// every replica and optimizer.
func (s *DSP) Restore(st *ckpt.TrainState) error {
	if st == nil {
		return fmt.Errorf("core: nil checkpoint")
	}
	if len(s.trainer.Models) == 0 {
		return nil // cost-only: the cursor is the whole state
	}
	if st.Model != s.Opts.Model {
		return fmt.Errorf("core: checkpoint model %+v does not match %+v", st.Model, s.Opts.Model)
	}
	for g, m := range s.trainer.Models {
		if len(st.Params) != m.ParamCount() {
			return fmt.Errorf("core: checkpoint has %d params, model wants %d", len(st.Params), m.ParamCount())
		}
		m.SetParamVector(st.Params)
		if so, ok := s.trainer.Optims[g].(nn.StatefulOptimizer); ok {
			so.RestoreState(m, st.Optim)
		}
	}
	return nil
}

// RunSampleEpoch implements train.System: only the samplers run (Table 6).
func (s *DSP) RunSampleEpoch(epoch int) (train.EpochStats, error) {
	return train.RunSampleEpoch(s.m, epoch, s.sched.Steps, s.Opts.EffectiveStageOverhead(),
		func(p *sim.Proc, rank, step int) { s.sampleStage(p, s.world, rank, epoch, step) })
}

// RandomWalkEpoch runs one pass of random walks from every shard seed (the
// DeepWalk-style workload of the random-walk example).
func (s *DSP) RandomWalkEpoch(length int) (map[int][][]graph.NodeID, sim.Time, error) {
	n := s.Opts.Data.NumGPUs()
	eng := s.m.Eng
	start := eng.Now()
	out := make(map[int][][]graph.NodeID, n)
	for rank := 0; rank < n; rank++ {
		rank := rank
		eng.Go(fmt.Sprintf("gpu%d/walker", rank), func(p *sim.Proc) {
			out[rank] = s.world.RandomWalk(p, rank, s.Opts.Data.Shards[rank], length,
				train.BatchSeed(s.Opts.Seed, 0, 0, rank))
		})
	}
	end, err := eng.Run()
	if err != nil {
		return nil, 0, err
	}
	return out, end - start, nil
}
