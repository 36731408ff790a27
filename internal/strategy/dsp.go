package strategy

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/prof"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/train"
)

// DSP is the paper's execution strategy: local cache hits via a gather
// kernel, remote hot rows via all-to-all over NVLink, cold rows via a side
// path in parallel on different links (UVA on one machine; Env.ColdPath in
// a cluster), then the standard data-parallel train step or, for serving,
// the forward-only pass.
type DSP struct {
	base
}

// NewDSP assembles the DSP strategy over an already-built substrate.
func NewDSP(env Env) *DSP { return &DSP{base{Env: env}} }

// Kind implements ExecutionStrategy.
func (s *DSP) Kind() Kind { return KindDSP }

// Load implements ExecutionStrategy: fetch features for the sampled batch —
// local cache hits via a gather kernel, remote hot rows via all-to-all over
// NVLink, cold rows via the cold path — hot and cold fetches run in
// parallel on different links, as in the paper.
func (s *DSP) Load(p *sim.Proc, rank int, mb *sample.MiniBatch, lc *comm.Communicator) Loaded {
	d := s.Opts.Data
	dev := s.M.GPUs[rank]
	ids := mb.InputNodes()
	feats, gather := s.stageGather(mb)
	// The manager's Split records row hotness for the rebalancer and
	// re-routes dead-holder rows to the host tier.
	local, remote, host := s.Cache.Split(ids, rank)
	if tiers := cache.CountTiers(local, remote, host); s.Account != nil {
		s.Account(rank, tiers)
	} else {
		s.Cache.Account(rank, tiers)
	}
	n := lc.N

	coldPath := s.ColdPath
	if coldPath == nil {
		coldPath = s.uvaPath
	}
	coldDone := coldPath(rank, host)

	// Local cache hits: one gather kernel.
	if len(local) > 0 {
		dev.RunKernel(p, hw.KernelGather, int64(len(local))*int64(d.RowBytes()))
	}

	// Remote hot rows: request ids, owners gather, rows come back.
	if n > 1 {
		reqIn := comm.AllToAll(lc, p, rank, remote, comm.Raw(4, hw.TrafficFeature))
		var served int64
		for q := 0; q < n; q++ {
			served += int64(len(reqIn[q]))
		}
		if served > 0 {
			dev.RunKernel(p, hw.KernelGather, served*int64(d.RowBytes()))
		}
		replies := make([][]float32, n)
		for q := 0; q < n; q++ {
			replies[q] = s.zeroPayload(len(reqIn[q]) * d.FeatDim)
		}
		comm.AllToAll(lc, p, rank, replies, comm.Compressed(s.Opts.FeatCodec, hw.TrafficFeature))
	}

	coldDone(p)
	// Assemble the contiguous input-feature buffer.
	dev.RunKernel(p, hw.KernelGather, int64(len(ids))*int64(d.RowBytes()))
	gather.Join()
	return Loaded{MB: mb, Feats: feats}
}

// uvaPath is the single-machine cold path: the host-tier rows over UVA,
// concurrently with the NVLink path.
func (s *DSP) uvaPath(rank int, host []graph.NodeID) func(*sim.Proc) {
	// Feature tier of the frontier walk: the split names exactly the
	// host-tier rows the UVA side path is about to read — prefetch their
	// blocks now (MaxInflight-way parallel, non-blocking) so the spill reads
	// overlap the NVLink path instead of serialising in the toucher.
	if s.Host != nil && len(host) > 0 {
		s.Host.PrefetchFeatures(host)
	}
	done := s.M.Eng.NewEvent()
	if len(host) == 0 {
		done.Trigger()
		return done.Wait
	}
	s.M.Eng.Go(fmt.Sprintf("gpu%d/uva", rank), func(cp *sim.Proc) {
		// Host rows must be cache-resident before UVA can read them: the
		// out-of-core tier stalls this side path (not the NVLink path) on
		// any spill-device fetch.
		if s.Host != nil {
			s.Host.TouchFeatures(cp, host)
		}
		s.M.GPUs[rank].UVARead(cp, s.M.Fabric, int64(len(host)), s.Opts.Data.RowBytes(), hw.TrafficFeature)
		done.Trigger()
	})
	return done.Wait
}

// Train implements ExecutionStrategy: the standard data-parallel step.
func (s *DSP) Train(p *sim.Proc, rank int, l Loaded, st *train.EpochStats) {
	s.step(p, rank, l, st)
}

// Infer implements ExecutionStrategy: the full nominal forward pass.
func (s *DSP) Infer(p *sim.Proc, rank int, l Loaded) []int32 {
	return s.infer(p, rank, l, nn.NominalForwardFlops)
}

// Section implements ExecutionStrategy. DSP reports through the existing
// sections; returning nil keeps its run reports byte-identical to
// pre-refactor baselines.
func (s *DSP) Section() *prof.StrategySection { return nil }
