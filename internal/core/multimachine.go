package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/csp"
	"repro/internal/featstore"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/train"
)

// MultiDSP extends DSP to a cluster, following paper §3.2: "DSP replicates
// the graph topology and hot features across the machines and partitions
// the cold features among the machines. Thus, the machines only communicate
// for cold features and model synchronization."
//
// Every machine runs the full single-machine design (partitioned topology
// patches, partitioned hot-feature cache, CSP, pipeline, CCC) through its
// own strategy.DSP and train.Trainer. Only two seams differ from one
// machine, and MultiDSP is the only caller that sets them:
//
//   - the cold path (strategy.Env.ColdPath): cold feature rows are sharded
//     across the machines' CPU memories by node id, so a machine reads the
//     rows it owns over local UVA and fetches the others by a NIC round trip
//     plus the owner's CPU gather;
//   - the gradient ring (train.Trainer.CrossSync): after the intra-machine
//     NVLink allreduce, machine leaders ring-reduce over the NICs and every
//     replica averages the cluster-wide sum over gpusEach × machines.
type MultiDSP struct {
	Opts        train.Options
	NumMachines int

	cluster *hw.Cluster
	worlds  []*csp.World
	loaders []*comm.Communicator
	// One DSP strategy and one trainer per machine.
	strats   []*strategy.DSP
	trainers []*train.Trainer

	// Inter-machine reduction rendezvous.
	interBarrier *sim.Barrier
	interSlots   [][]float32

	gpusEach int
	steps    int
}

// NewMulti builds a cluster-wide DSP instance with machines copies of the
// prepared data's layout. The prepared Data must be partitioned for the
// per-machine GPU count.
func NewMulti(opts train.Options, machines int, net hw.NetworkSpec) (*MultiDSP, error) {
	opts = opts.Defaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if machines < 1 {
		return nil, fmt.Errorf("core: need at least one machine")
	}
	d := opts.Data
	n := d.NumGPUs()
	s := &MultiDSP{Opts: opts, NumMachines: machines, gpusEach: n}
	s.cluster = hw.NewCluster(machines, n, opts.GPU, opts.CPU, net, opts.LatencyScale)
	s.cluster.Eng.SetParallelism(opts.Parallel)
	s.interBarrier = s.cluster.Eng.NewBarrier(machines * n)
	s.interSlots = make([][]float32, machines)

	topoBudget := opts.TopoCacheBudget
	if topoBudget <= 0 {
		topoBudget = opts.GPU.MemBytes * 6 / 10
	}
	for m := 0; m < machines; m++ {
		mach := s.cluster.Machines[m]
		world, err := csp.NewWorldBudget(mach, d.G, d.Offsets, topoBudget)
		if err != nil {
			return nil, fmt.Errorf("core: machine %d topology: %w", m, err)
		}
		s.worlds = append(s.worlds, world)
		store, err := strategy.BuildStore(strategy.KindDSP, mach, d, opts.FeatureCacheBudget,
			featstore.Policy(opts.CachePolicy), false)
		if err != nil {
			return nil, fmt.Errorf("core: machine %d cache: %w", m, err)
		}
		coord := pipeline.NewCoordinator(s.cluster.Eng, n, opts.UseCCC, 2)
		coord.Tracer = func() *trace.Tracer { return mach.GPUs[0].Tracer }
		loader := comm.New(mach)
		trainerComm := comm.New(mach)
		if opts.UseCCC {
			world.Comm.SetGate(coord.Gate(samplerWorker))
			loader.SetGate(coord.Gate(loaderWorker))
			trainerComm.SetGate(coord.Gate(trainerWorker))
		}
		s.loaders = append(s.loaders, loader)

		trainer := train.NewTrainer(opts, trainerComm)
		if machines > 1 {
			trainer.CrossSync = s.gradientRing(m)
			trainer.Replicas = n * machines
		}
		s.trainers = append(s.trainers, trainer)
		s.strats = append(s.strats, strategy.NewDSP(strategy.Env{
			Opts: opts, M: mach, Store: store,
			Cache:    cache.New(store, d.G, d.Offsets, cache.Config{}),
			Trainer:  trainer,
			ColdPath: s.coldPath(m),
		}))
	}
	// Steps: each machine consumes a 1/machines stride of every shard.
	for _, shard := range d.Shards {
		per := (len(shard) + machines - 1) / machines
		st := (per + opts.BatchSize - 1) / opts.BatchSize
		if st > s.steps {
			s.steps = st
		}
	}
	return s, nil
}

// Name implements train.System-style identification.
func (s *MultiDSP) Name() string { return fmt.Sprintf("DSP-%dx%d", s.NumMachines, s.gpusEach) }

// Cluster exposes the simulated cluster.
func (s *MultiDSP) Cluster() *hw.Cluster { return s.cluster }

// Model returns machine 0 / rank 0's replica (nil in cost-only mode).
func (s *MultiDSP) Model() *nn.Model {
	if len(s.trainers[0].Models) == 0 {
		return nil
	}
	return s.trainers[0].Models[0]
}

// Steps returns batches per epoch per worker.
func (s *MultiDSP) Steps() int { return s.steps }

// batch returns the seeds for (machine, rank) at (epoch, step): the rank's
// shard is shuffled per epoch (the shared permutation) and the machines
// take interleaved batch-sized slices of it.
func (s *MultiDSP) batch(epoch, step, machine, rank int) []graph.NodeID {
	full := train.Schedule{BatchSize: s.Opts.BatchSize, Steps: s.steps}
	return full.Batch(s.Opts.Data, s.Opts.Seed, epoch, step*s.NumMachines+machine, rank)
}

// coldOwner returns the machine whose CPU memory holds a cold row.
func (s *MultiDSP) coldOwner(v graph.NodeID) int { return int(v) % s.NumMachines }

// coldPath is machine's cold-row seam: rows it owns come over local UVA,
// the others by a NIC round trip plus the owner's CPU gather — both side
// paths concurrent with the NVLink hot-row exchange, joined in that order.
func (s *MultiDSP) coldPath(machine int) strategy.ColdPath {
	d := s.Opts.Data
	eng := s.cluster.Eng
	mach := s.cluster.Machines[machine]
	return func(rank int, host []graph.NodeID) func(*sim.Proc) {
		var mine int64
		foreign := make([]int64, s.NumMachines)
		for _, v := range host {
			if o := s.coldOwner(v); o == machine {
				mine++
			} else {
				foreign[o]++
			}
		}
		uvaDone := eng.NewEvent()
		if mine > 0 {
			eng.Go(fmt.Sprintf("m%dg%d/uva", machine, rank), func(cp *sim.Proc) {
				mach.GPUs[rank].UVARead(cp, mach.Fabric, mine, d.RowBytes(), hw.TrafficFeature)
				uvaDone.Trigger()
			})
		} else {
			uvaDone.Trigger()
		}
		netDone := eng.NewEvent()
		if mine < int64(len(host)) {
			eng.Go(fmt.Sprintf("m%dg%d/net", machine, rank), func(cp *sim.Proc) {
				for o, cnt := range foreign {
					if cnt == 0 {
						continue
					}
					// Request ids out, owner CPU gathers, rows come back
					// (under the feature codec when one is set — the NIC is
					// the narrowest link, so compression pays off most
					// here), then a staged DMA of the decoded rows into the
					// GPU.
					s.cluster.Net.Send(cp, machine, o, cnt*4, hw.TrafficFeature)
					s.cluster.Machines[o].Host.Gather(cp, cnt*int64(d.RowBytes()), 8)
					s.cluster.Net.Send(cp, o, machine,
						compress.WireBytes(s.Opts.FeatCodec, int(cnt)*d.FeatDim), hw.TrafficFeature)
					mach.Fabric.HostDMA(cp, rank, cnt*int64(d.RowBytes()), hw.TrafficFeature)
				}
				netDone.Trigger()
			})
		} else {
			netDone.Trigger()
		}
		return func(p *sim.Proc) {
			uvaDone.Wait(p)
			netDone.Wait(p)
		}
	}
}

// gradientRing is machine's cross-machine gradient seam, run after the
// intra-machine allreduce (which already carries the gradient codec's
// quantisation error): an inter-machine ring between machine leaders
// (rank 0), then the global sum is re-established on every replica. The
// rendezvous is a full cluster barrier: trainer steps are aligned across
// machines. Each leader posts its machine sum as the remote machines would
// decode it (codec round-trip), so the cross-machine reduction is lossy
// exactly once per hop and every replica still sums identical images.
func (s *MultiDSP) gradientRing(machine int) func(p *sim.Proc, rank int, grad []float32) {
	return func(p *sim.Proc, rank int, grad []float32) {
		if rank == 0 {
			posted := compress.Roundtrip(s.Opts.GradCodec, grad)
			s.interSlots[machine] = append(s.interSlots[machine][:0], posted...)
			next := (machine + 1) % s.NumMachines
			bytes := compress.WireBytes(s.Opts.GradCodec, len(grad)) / int64(s.NumMachines)
			if bytes < 1 {
				bytes = 1
			}
			for step := 0; step < 2*(s.NumMachines-1); step++ {
				s.cluster.Net.Send(p, machine, next, bytes, hw.TrafficGradient)
			}
		}
		s.interBarrier.Arrive(p)
		// Deterministic global sum from the posted machine sums.
		for i := range grad {
			var sum float32
			for m := 0; m < s.NumMachines; m++ {
				sum += s.interSlots[m][i]
			}
			grad[i] = sum
		}
		s.interBarrier.Arrive(p)
	}
}

// RunEpoch executes one cluster-wide training epoch: the single-machine
// stages on every global rank m*gpusEach+g, through the one epoch driver.
func (s *MultiDSP) RunEpoch(epoch int) (train.EpochStats, error) {
	return train.RunEpochSteps(s.cluster.Machines, s.cluster.Net, epoch, 0, s.steps, s.Opts.Pipeline, s.Opts.QueueCap,
		s.Opts.EffectiveStageOverhead(), func(rank int, st *train.EpochStats) pipeline.Stages {
			m, g := rank/s.gpusEach, rank%s.gpusEach
			return pipeline.Stages{
				Sample: func(p *sim.Proc, step int) interface{} {
					seeds := s.batch(epoch, step, m, g)
					bs := train.BatchSeed(s.Opts.Seed, epoch, step*s.NumMachines+m, g)
					return s.worlds[m].SampleBatch(p, g, seeds, s.Opts.Sample, bs)
				},
				Load: func(p *sim.Proc, step int, v interface{}) interface{} {
					return s.strats[m].Load(p, g, v.(*sample.MiniBatch), s.loaders[m])
				},
				Train: func(p *sim.Proc, step int, v interface{}) {
					s.strats[m].Train(p, g, v.(strategy.Loaded), st)
				},
			}
		})
}
