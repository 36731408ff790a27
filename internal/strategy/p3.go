package strategy

import (
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/prof"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/train"
)

// P3 is the hybrid-parallel execution strategy: features live
// dimension-partitioned ([#Nodes, F/world] slab per GPU, featstore's
// DimSliced layout), the first layer runs model-parallel over the column
// slices, and the layer-1 boundary exchanges activations instead of
// features — push partial activations to each batch's owner in the forward
// pass, pull activation gradients back to each W1-shard holder in the
// backward pass. Cross-GPU volume per input node is O(hidden), independent
// of the feature width, which is the whole bet against DSP's O(F) gather.
//
// The math is canonical: under RealCompute the full-width features are
// gathered and the standard dense layers run, so P3 reaches parameters
// bit-identical to DSP at the same seed. Only the simulated wire and
// kernel costs follow the P3 layout.
type P3 struct {
	base

	// Cumulative exchange accounting for StrategySection and the trace
	// counter series (mutated from per-GPU procs; the DES is cooperative).
	pushWire     int64
	pullWire     int64
	partialFlops int64
	reduceBytes  int64
}

// NewP3 assembles the P3 strategy over a DimSliced store. It prices the
// trainer's step for the P3 layout: the allreduce wire skips the sharded
// first-layer weights, and the cost-only compute skips the first layer's
// dense work (charged by the exchange instead).
func NewP3(env Env) *P3 {
	s := &P3{base: base{Env: env}}
	env.Trainer.PriceElems = s.priceElems()
	env.Trainer.Flops = func(cfg nn.Config, mb *sample.MiniBatch) int64 { return residualFlops(cfg, mb, 3, 2) }
	return s
}

// Kind implements ExecutionStrategy.
func (s *P3) Kind() Kind { return KindP3 }

// hidden0 is the first layer's output width — the per-node element count
// both exchanges carry.
func (s *P3) hidden0() int {
	if s.Opts.Model.Layers == 1 {
		return s.Opts.Model.Classes
	}
	return s.Opts.Model.Hidden
}

// denseFactor is the flops-per-(node x in x out) coefficient of one dense
// layer: SAGE projects self and neighbour separately.
func denseFactor(arch nn.Arch) int64 {
	if arch == nn.SAGE {
		return 4
	}
	return 2
}

// Load implements ExecutionStrategy: the forward half of the push-pull
// exchange stands where DSP's feature gather would be — allgather of every
// batch's input ids, local slab gathers plus partial first-layer
// projections for all of them, the partial-activation push all-to-all home
// to each batch's owner, and the local reduction of the incoming partials.
func (s *P3) Load(p *sim.Proc, rank int, mb *sample.MiniBatch, lc *comm.Communicator) Loaded {
	// The real full-width gather overlaps the virtual-time
	// push/partial/reduce choreography of the first layer.
	feats, gather := s.stageGather(mb)
	defer gather.Join()
	l := Loaded{MB: mb, Feats: feats}
	dev := s.M.GPUs[rank]
	ids := mb.InputNodes()
	n := lc.N
	if n == 1 {
		// A single GPU holds the full width: a plain local gather.
		dev.RunKernel(p, hw.KernelGather, int64(len(ids))*int64(s.Store.RowBytes()))
		return l
	}
	h0 := s.hidden0()
	slice := s.Store.SliceDim(rank)
	codec := s.Opts.FeatCodec
	// Every rank learns every batch's input set (the ids ride the feature
	// class, like DSP's request all-to-all).
	idsIn := comm.AllGather(lc, p, rank, ids, comm.Raw(4, hw.TrafficFeature))
	// Model-parallel first layer: gather the local column slice of every
	// batch's inputs and project through the local W1 column shard.
	push := make([][]float32, n)
	factor := denseFactor(s.Opts.Model.Arch)
	for q := 0; q < n; q++ {
		mq := len(idsIn[q])
		if mq == 0 {
			continue
		}
		dev.RunKernel(p, hw.KernelGather, int64(mq)*int64(slice)*4)
		flops := factor * int64(mq) * int64(slice) * int64(h0)
		dev.RunKernel(p, hw.KernelCompute, flops)
		s.partialFlops += flops
		if q != rank {
			push[q] = s.zeroPayload(mq * h0)
		}
	}
	// Push the partial activations home to each batch's owner.
	comm.AllToAll(lc, p, rank, push, comm.Compressed(codec, hw.TrafficFeature))
	var wire int64
	for q := 0; q < n; q++ {
		if q != rank {
			wire += compress.WireBytes(codec, len(push[q]))
		}
	}
	// Reduce the n-1 incoming partials into the locally computed one.
	if len(ids) > 0 {
		red := int64(n-1) * int64(len(ids)) * int64(h0) * 4
		dev.RunKernel(p, hw.KernelGather, red)
		s.reduceBytes += red
	}
	// The counter series steps once per completed push, after the reduce.
	s.pushWire += wire
	s.traceCounter(dev, "p3 push", s.pushWire)
	return l
}

// Train implements ExecutionStrategy: pull the layer-1 activation gradients
// back to every W1-shard holder, then run the data-parallel step, whose
// allreduce and cost-only compute NewP3 priced for the sharded first layer.
// The step's math is canonical — full-width features, full dense layers,
// full-vector allreduce — so replicas of the two strategies stay bitwise
// equal at the same seed.
func (s *P3) Train(p *sim.Proc, rank int, l Loaded, st *train.EpochStats) {
	c := s.Trainer.Comm
	if n := c.N; n > 1 {
		// Backward pull: the batch owner's layer-1 activation gradients go
		// to every peer, each of which grinds out its W1 column shard's
		// gradient for that batch.
		dev := s.M.GPUs[rank]
		h0 := s.hidden0()
		out := make([][]float32, n)
		for q := 0; q < n; q++ {
			if q != rank {
				out[q] = s.zeroPayload(len(l.MB.InputNodes()) * h0)
			}
		}
		in := comm.AllToAll(c, p, rank, out, comm.Compressed(s.Opts.GradCodec, hw.TrafficGradient))
		factor := denseFactor(s.Opts.Model.Arch)
		slice := int64(s.Store.SliceDim(rank))
		for q := 0; q < n; q++ {
			if q == rank {
				continue
			}
			s.pullWire += compress.WireBytes(s.Opts.GradCodec, len(out[q]))
			// The received segment length recovers peer q's batch size.
			if mq := len(in[q]) / h0; mq > 0 {
				dev.RunKernel(p, hw.KernelCompute, factor*int64(mq)*slice*int64(h0))
			}
		}
		s.traceCounter(dev, "p3 pull", s.pullWire)
	}
	s.step(p, rank, l, st)
}

// Infer implements ExecutionStrategy: the forward remainder after the push
// exchange, which already charged the first layer's dense work.
func (s *P3) Infer(p *sim.Proc, rank int, l Loaded) []int32 {
	return s.infer(p, rank, l, func(cfg nn.Config, mb *sample.MiniBatch) int64 {
		return residualFlops(cfg, mb, 1, 1)
	})
}

// priceElems is the allreduce element count the wire is charged for: the
// full gradient vector minus the first layer's dimension-sharded dense
// weights, which are replica-local under P3 and never ride the ring.
func (s *P3) priceElems() int {
	pe := len(s.Trainer.Grad[0]) - s.shardedParams()
	if pe < 1 {
		pe = 1
	}
	return pe
}

// shardedParams counts the first-layer dense weight elements P3 shards by
// column: SAGE projects self and neighbour separately (two InDim x h0
// matrices); the other archs have one. Biases and attention vectors stay
// replicated.
func (s *P3) shardedParams() int {
	k := 1
	if s.Opts.Model.Arch == nn.SAGE {
		k = 2
	}
	return k * s.Opts.Model.InDim * s.hidden0()
}

// residualFlops is P3's nominal compute for one batch: every layer's dense
// and aggregation terms weighted as in nn's nominal counts (denseW, aggW:
// 3, 2 for a training step; 1, 1 for a forward-only pass), except layer 0's
// dense term — the push exchange already charged it as partial projections,
// and in training the pull charged its weight-gradient shards.
func residualFlops(cfg nn.Config, mb *sample.MiniBatch, denseW, aggW int64) int64 {
	var total int64
	for l, b := range mb.Blocks {
		dense, agg := nn.LayerFlops(cfg, l, b)
		if l == 0 {
			dense = 0
		}
		total += denseW*dense + aggW*agg
	}
	return total
}

// traceCounter emits the cumulative push/pull wire-byte counter series so
// dspprof charts and diffs the exchange volume like any other path.
func (s *P3) traceCounter(dev *hw.Device, name string, bytes int64) {
	dev.Tracer.Counter(name, dev.ID, float64(s.M.Eng.Now()), map[string]float64{
		"bytes": float64(bytes),
	})
}

// Section implements ExecutionStrategy.
func (s *P3) Section() *prof.StrategySection {
	sec := &prof.StrategySection{
		Name:          string(KindP3),
		FeatureDim:    s.Opts.Data.FeatDim,
		PushBytes:     s.pushWire,
		PullBytes:     s.pullWire,
		PartialFlops:  s.partialFlops,
		ReduceBytes:   s.reduceBytes,
		ShardedParams: s.shardedParams(),
	}
	for g := 0; g < s.Store.NumGPUs; g++ {
		sec.SliceDims = append(sec.SliceDims, s.Store.SliceDim(g))
	}
	return sec
}
