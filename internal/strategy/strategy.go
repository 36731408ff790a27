// Package strategy defines the execution-strategy layer: the per-round
// gather/forward/backward orchestration that sits between the pipeline
// (which decides WHEN stages run) and the substrate (hw devices, comm
// collectives, featstore placement — which decide what they COST).
//
// It is the only place that knows how a round gathers, computes and
// synchronises. Single-machine training (internal/core), serving
// (internal/serve, through the forward-only Infer) and multi-machine
// training (core.MultiDSP, one DSP strategy and one train.Trainer per
// machine) all run through ExecutionStrategy; New is the one constructor
// that picks the layout. MultiDSP is the only caller that sets the two
// cluster seams: DSP's ColdPath (owned cold rows by local UVA, foreign ones
// by a NIC round trip) and the Trainer's CrossSync (the inter-machine
// gradient ring after the intra-machine allreduce).
//
// Two strategies are provided. DSP is the paper's layout: row-partitioned
// hot/cold feature caching with an all-to-all gather. P3 is the
// hybrid-parallel alternative of the P3-GNN line of work: each GPU holds a
// [#Nodes, F/world] dimension slice of EVERY feature row, the first layer
// runs model-parallel over those slices, and the layer-1 boundary is a
// push-pull exchange (push partial activations forward, pull activation
// gradients back) instead of a feature gather. Which layout wins depends on
// feature width: P3's exchange volume is O(hidden) per input node
// regardless of F, DSP's is O(F) on the cache-miss fraction — dspbench
// strategy-sweep measures the crossover.
//
// Both strategies run IDENTICAL real math (the canonical full-width gather
// and dense layers under RealCompute): the layout changes what the
// simulated wire and kernels cost, never the values, so same-seed runs of
// DSP and P3 reach bit-identical parameters and predictions.
package strategy

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/arena"
	"repro/internal/cache"
	"repro/internal/comm"
	"repro/internal/featstore"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/prof"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/train"
)

// Kind names a selectable execution strategy.
type Kind string

const (
	// KindDSP is the paper's row-partitioned hot/cold layout (default).
	KindDSP Kind = "dsp"
	// KindP3 is the dimension-partitioned push-pull layout.
	KindP3 Kind = "p3"
)

// Parse resolves a -strategy flag value, case-insensitively ("" means dsp).
func Parse(s string) (Kind, error) {
	switch Kind(strings.ToLower(s)) {
	case "", KindDSP:
		return KindDSP, nil
	case KindP3:
		return KindP3, nil
	default:
		return "", fmt.Errorf("strategy: unknown strategy %q (want dsp or p3)", s)
	}
}

// Knobs are the run options the p3 layout constrains. The P3 store has no
// hot/cold rows and no per-row holders, so the row-cache machinery and the
// degraded-mode re-routing built on it do not apply.
type Knobs struct {
	ReplicatedCache bool
	DynamicCache    cache.Policy
	CacheBudget     int64
	Faults          bool
	MultiInstance   bool
}

// CheckCompatible rejects knob combinations kind cannot honour (every
// combination is fine under dsp). Callers wrap the error with their own
// prefix.
func CheckCompatible(kind Kind, k Knobs) error {
	if kind != KindP3 {
		return nil
	}
	switch {
	case k.ReplicatedCache:
		return errors.New("-strategy p3 is incompatible with the replicated cache (features are dimension-sliced, not row-cached)")
	case k.DynamicCache != cache.Static:
		return fmt.Errorf("-strategy p3 is incompatible with dynamic cache policy %v (the dimension-sliced layout has no rows to rebalance; use -cache static)", k.DynamicCache)
	case k.CacheBudget > 0:
		return errors.New("-strategy p3 ignores the feature cache budget: each GPU holds the full [#nodes, F/world] slice")
	case k.Faults:
		return errors.New("-strategy p3 does not support fault injection (no per-row holders to re-route around)")
	case k.MultiInstance:
		return errors.New("-strategy p3 does not support multi-instance workers")
	}
	return nil
}

// Loaded is the loader-to-trainer payload: the sampled batch plus, under
// RealCompute, its gathered input features.
type Loaded struct {
	MB    *sample.MiniBatch
	Feats []float32
}

// ExecutionStrategy owns one round's gather/forward/backward orchestration
// on one rank. Sampling stays with the CSP world — both layouts sample the
// same way over the same partitioned topology — so the strategy's surface
// is the stages whose cost the layout actually changes: the gather, and
// either a training step or a forward-only serving pass.
type ExecutionStrategy interface {
	// Kind identifies the strategy.
	Kind() Kind
	// Load fetches (DSP) or exchanges (P3) what the forward pass needs for
	// one sampled batch, over the given loader communicator.
	Load(p *sim.Proc, rank int, mb *sample.MiniBatch, lc *comm.Communicator) Loaded
	// Train runs one training step: forward remainder, backward, and the
	// gradient allreduce.
	Train(p *sim.Proc, rank int, l Loaded, st *train.EpochStats)
	// Infer runs the forward-only serving pass over a loaded batch and
	// returns per-seed argmax predictions (nil in cost-only mode or for an
	// empty batch).
	Infer(p *sim.Proc, rank int, l Loaded) []int32
	// Section reports the strategy's wire/compute accounting for the run
	// report. DSP returns nil: its accounting already flows through the
	// existing sections, and omitting the block keeps DSP reports
	// byte-identical to pre-refactor baselines.
	Section() *prof.StrategySection
}

// Env is the substrate a strategy runs over, built by its caller.
type Env struct {
	Opts    train.Options
	M       *hw.Machine
	Store   *featstore.Store // the feature placement (DimSliced under p3)
	Cache   *cache.Manager   // tracked row placement (dsp)
	Host    *store.Store     // out-of-core host tier (nil unless Opts.OOC)
	Trainer *train.Trainer   // model replicas and the gradient allreduce
	// Account, when set, receives each DSP gather's tier counts instead of
	// Cache.Account at Split time: serving commits them only once a round
	// survives its collective retries.
	Account func(rank int, t cache.Tiers)
	// ColdPath, when set, replaces DSP's single-machine UVA side path for
	// host-tier rows (MultiDSP's owned-UVA / foreign-NIC split).
	ColdPath ColdPath
}

// ColdPath starts rank's concurrent fetch of the host-tier rows of one
// gather and returns the wait that joins it.
type ColdPath func(rank int, host []graph.NodeID) (wait func(*sim.Proc))

// New builds the strategy of the given kind over env — the one place that
// picks a layout.
func New(kind Kind, env Env) ExecutionStrategy {
	if kind == KindP3 {
		return NewP3(env)
	}
	return NewDSP(env)
}

// BuildStore is the one feature-store selection: it picks kind's layout
// (P3's full-row dimension slices; otherwise DSP's partitioned hot-row
// cache, or the Quiver-style replicated one for the caching ablation),
// sizes a budget <= 0 to 9/10 of the smallest free device memory (headroom
// for activations), and reserves each GPU's share of m's memory.
func BuildStore(kind Kind, m *hw.Machine, d *train.Data, budget int64, policy featstore.Policy, replicated bool) (*featstore.Store, error) {
	n := len(m.GPUs)
	if budget <= 0 {
		free := m.GPUs[0].MemFree()
		for _, g := range m.GPUs[1:] {
			free = min(free, g.MemFree())
		}
		budget = free * 9 / 10
	}
	var fs *featstore.Store
	switch {
	case kind == KindP3:
		// No hot/cold split and no budget: the slab fits or Reserve fails.
		fs = featstore.BuildDimSliced(d.Feats, d.FeatDim, n)
	case replicated:
		fs = featstore.BuildReplicated(d.G, d.Feats, d.FeatDim, n, budget, policy)
	default:
		fs = featstore.BuildPartitioned(d.G, d.Feats, d.FeatDim, d.Offsets, budget, policy)
	}
	for g, dev := range m.GPUs {
		if err := dev.Reserve(fs.CacheBytes(g)); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// base is the state both layouts share: the substrate, a zero-backed
// payload for wire transfers that carry timing only, and the pooled real
// feature gather offloaded between DES commit points.
type base struct {
	Env
	zeros []float32
	pool  arena.Pool
	par   *sim.ParallelGroup
}

// zeroPayload returns a zero-backed payload standing in for n values
// (transfer timing stays exact without copying real data).
func (b *base) zeroPayload(n int) []float32 {
	if cap(b.zeros) < n {
		b.zeros = make([]float32, n)
	}
	return b.zeros[:n]
}

// stageGather starts the real feature gather of mb on a worker thread
// (RealCompute only) so it overlaps the virtual-time exchange; the pooled
// buffer is valid after the ticket joins and is recycled by step or infer.
func (b *base) stageGather(mb *sample.MiniBatch) ([]float32, *sim.Ticket) {
	if !b.Opts.RealCompute {
		return nil, nil
	}
	if b.par == nil {
		b.par = b.M.Eng.NewParallelGroup()
	}
	feats := b.pool.Get(len(mb.InputNodes()) * b.Opts.Data.FeatDim)
	return feats, b.par.Submit(func() { train.GatherFeaturesInto(feats, b.Opts.Data, mb) })
}

// step is the data-parallel training step both layouts end with.
func (b *base) step(p *sim.Proc, rank int, l Loaded, st *train.EpochStats) {
	b.Trainer.Step(p, b.M.GPUs[rank], rank, l.MB, l.Feats, st)
	b.pool.Put(l.Feats) // the step has consumed the staged gather
}

// infer is the forward-only pass both layouts end with: the nominal
// aggregation gather and forward flops, then under RealCompute the
// replica's argmax predictions.
func (b *base) infer(p *sim.Proc, rank int, l Loaded, flops func(nn.Config, *sample.MiniBatch) int64) []int32 {
	defer b.pool.Put(l.Feats)
	mb := l.MB
	if len(mb.Seeds) == 0 {
		return nil
	}
	dev := b.M.GPUs[rank]
	dev.RunKernel(p, hw.KernelGather, nn.NominalAggBytes(b.Opts.Model, mb))
	dev.RunKernel(p, hw.KernelCompute, flops(b.Opts.Model, mb))
	if !b.Opts.RealCompute {
		return nil
	}
	return b.Trainer.Models[rank].Predict(mb, l.Feats)
}
