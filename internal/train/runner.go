package train

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/trace"
)

// RunEpochSteps runs steps [from, to) of one epoch — a full epoch, or a
// segment of one replayed by the fault-tolerance driver — on every GPU of
// machines (one machine, or a cluster's machines on one engine), and
// collects timing, utilization and communication-volume stats. Ranks are
// global and machine-major: GPU g of machine m is rank m*len(GPUs)+g, which
// is also its trace pid. net, when set, is the cluster's inter-machine
// fabric whose bytes the epoch reports as InterWire.
//
// stagesFor builds one rank's stages. pipelined selects the
// producer-consumer pipeline (with the stages' worker-instance counts);
// otherwise stages run back to back (DSP-Seq and all baseline systems). Each
// stage is preceded by the host-side framework overhead; in pipelined mode
// the workers pay it concurrently, which is part of what the pipeline hides.
func RunEpochSteps(machines []*hw.Machine, net *hw.Network, epoch, from, to int, pipelined bool, queueCap int, overhead sim.Time,
	stagesFor func(rank int, st *EpochStats) pipeline.Stages) (EpochStats, error) {
	eng := machines[0].Eng
	start := eng.Now()
	before := make([]hw.Counters, len(machines))
	var gpus []*hw.Device
	for m, mach := range machines {
		before[m] = mach.Fabric.Counters
		gpus = append(gpus, mach.GPUs...)
	}
	netBefore := netBytes(net)
	for _, g := range gpus {
		g.ResetBusy()
	}
	stats := make([]EpochStats, len(gpus))
	for rank := range stats {
		stats[rank].SampleDist = metrics.New()
		stats[rank].LoadDist = metrics.New()
		stats[rank].TrainDist = metrics.New()
	}
	var dones []*sim.Event
	for rank, g := range gpus {
		stages := stagesFor(rank, &stats[rank])
		stages.FirstBatch, stages.NumBatches = from, to
		stages = withOverhead(stages, overhead)
		stages = withStageTiming(stages, &stats[rank])
		if tr := g.Tracer; tr.Enabled() {
			stages = withTraceSpans(stages, tr, rank)
		}
		done := eng.NewEvent()
		dones = append(dones, done)
		name := fmt.Sprintf("gpu%d", rank)
		if pipelined {
			pipeline.RunPipelined(eng, name, stages, queueCap, done)
		} else {
			pipeline.RunSequential(eng, name, stages, done)
		}
	}
	end, err := eng.Run()
	if err != nil {
		return EpochStats{}, err
	}
	for _, d := range dones {
		if !d.Fired() {
			return EpochStats{}, fmt.Errorf("train: epoch did not complete on all GPUs")
		}
	}
	out := EpochStats{
		Epoch: epoch, EpochTime: end - start,
		SampleDist: metrics.New(), LoadDist: metrics.New(), TrainDist: metrics.New(),
	}
	for _, st := range stats {
		out.Loss += st.Loss
		out.Correct += st.Correct
		out.Seen += st.Seen
		out.SampleStage += st.SampleStage
		out.LoadStage += st.LoadStage
		out.TrainStage += st.TrainStage
		out.SampleDist.Merge(st.SampleDist)
		out.LoadDist.Merge(st.LoadDist)
		out.TrainDist.Merge(st.TrainDist)
	}
	for m, mach := range machines {
		out.Utilization = append(out.Utilization, mach.Utilization(start, end)...)
		after := mach.Fabric.Counters
		out.SampleWire += after.TotalWire(hw.TrafficSample) - before[m].TotalWire(hw.TrafficSample)
		out.FeatureWire += after.TotalWire(hw.TrafficFeature) - before[m].TotalWire(hw.TrafficFeature)
		out.GradWire += after.TotalWire(hw.TrafficGradient) - before[m].TotalWire(hw.TrafficGradient)
	}
	out.InterWire = netBytes(net) - netBefore
	return out, nil
}

// netBytes totals the inter-machine fabric's bytes (0 without one).
func netBytes(net *hw.Network) int64 {
	var total int64
	if net != nil {
		for _, b := range net.Bytes {
			total += b
		}
	}
	return total
}

// RunSampleEpoch runs only the sampler workload of one epoch on every GPU
// of m, each stage preceded by the host-side framework overhead (the
// paper's Table 6 methodology — "running the sampler individually without
// interference from other workers").
func RunSampleEpoch(m *hw.Machine, epoch, steps int, overhead sim.Time, sample func(p *sim.Proc, rank, step int)) (EpochStats, error) {
	start := m.Eng.Now()
	for rank := range m.GPUs {
		m.Eng.Go(fmt.Sprintf("gpu%d/sampler", rank), func(p *sim.Proc) {
			for step := 0; step < steps; step++ {
				p.Sleep(overhead)
				sample(p, rank, step)
			}
		})
	}
	end, err := m.Eng.Run()
	if err != nil {
		return EpochStats{}, err
	}
	return EpochStats{Epoch: epoch, SampleTime: end - start, EpochTime: end - start}, nil
}

// withOverhead prefixes every stage with the host-side framework cost.
func withOverhead(s pipeline.Stages, overhead sim.Time) pipeline.Stages {
	if overhead <= 0 {
		return s
	}
	sample, load, train := s.Sample, s.Load, s.Train
	s.Sample = func(p *sim.Proc, step int) interface{} {
		p.Sleep(overhead)
		return sample(p, step)
	}
	s.Load = func(p *sim.Proc, step int, v interface{}) interface{} {
		p.Sleep(overhead)
		return load(p, step, v)
	}
	s.Train = func(p *sim.Proc, step int, v interface{}) {
		p.Sleep(overhead)
		train(p, step, v)
	}
	return s
}

// withStageTiming accumulates per-stage virtual durations into st: running
// totals plus per-step distributions (metrics.Histogram) for tail analysis.
func withStageTiming(s pipeline.Stages, st *EpochStats) pipeline.Stages {
	sample, load, train := s.Sample, s.Load, s.Train
	s.Sample = func(p *sim.Proc, step int) interface{} {
		t0 := p.Now()
		v := sample(p, step)
		st.SampleStage += p.Now() - t0
		st.SampleDist.Observe(float64(p.Now() - t0))
		return v
	}
	s.Load = func(p *sim.Proc, step int, v interface{}) interface{} {
		t0 := p.Now()
		out := load(p, step, v)
		st.LoadStage += p.Now() - t0
		st.LoadDist.Observe(float64(p.Now() - t0))
		return out
	}
	s.Train = func(p *sim.Proc, step int, v interface{}) {
		t0 := p.Now()
		train(p, step, v)
		st.TrainStage += p.Now() - t0
		st.TrainDist.Observe(float64(p.Now() - t0))
	}
	return s
}

// withTraceSpans records one span per worker stage per step and arms the
// pipeline's queue-wait stall tracing on the same lanes.
func withTraceSpans(s pipeline.Stages, tr *trace.Tracer, rank int) pipeline.Stages {
	s.Tracer = tr
	s.Pid = rank
	sample, load, train := s.Sample, s.Load, s.Train
	s.Sample = func(p *sim.Proc, step int) interface{} {
		t0 := p.Now()
		v := sample(p, step)
		tr.Complete(fmt.Sprintf("sample step %d", step), "stage", rank, trace.LaneSampler, float64(t0), float64(p.Now()), nil)
		return v
	}
	s.Load = func(p *sim.Proc, step int, v interface{}) interface{} {
		t0 := p.Now()
		out := load(p, step, v)
		tr.Complete(fmt.Sprintf("load step %d", step), "stage", rank, trace.LaneLoader, float64(t0), float64(p.Now()), nil)
		return out
	}
	s.Train = func(p *sim.Proc, step int, v interface{}) {
		t0 := p.Now()
		train(p, step, v)
		tr.Complete(fmt.Sprintf("train step %d", step), "stage", rank, trace.LaneTrainer, float64(t0), float64(p.Now()), nil)
	}
	return s
}

// Trainer is the data-parallel trainer worker shared by DSP and every
// baseline: forward/backward (real or nominal-cost), gradient allreduce,
// synchronous update. All systems execute the same BSP training logic —
// which is why their accuracy-versus-batch curves coincide (Figure 9a).
type Trainer struct {
	Opts   Options
	Comm   *comm.Communicator
	Models []*nn.Model
	Optims []nn.Optimizer
	Grad   [][]float32

	// PriceElems, when positive, is the gradient element count the
	// allreduce wire is charged for (P3 keeps its dimension-sharded
	// first-layer weights off the ring; the values still reduce in full).
	PriceElems int
	// Flops, when set, replaces nn.NominalFlops as the cost-only compute
	// charge of a step (P3's residual after its exchange).
	Flops func(nn.Config, *sample.MiniBatch) int64
	// CrossSync, when set, extends the gradient sum past this machine
	// (MultiDSP's inter-machine ring): it runs on every rank after the
	// intra-machine allreduce and leaves the cluster-wide sum in grad, which
	// then averages over Replicas instead of Comm.N.
	CrossSync func(p *sim.Proc, rank int, grad []float32)
	Replicas  int
}

// NewTrainer builds per-rank model replicas (identical seeds) when
// RealCompute is set; in cost-only mode it allocates real-size gradient
// buffers so allreduce wire volume stays exact.
func NewTrainer(opts Options, c *comm.Communicator) *Trainer {
	t := &Trainer{Opts: opts, Comm: c}
	n := opts.Data.NumGPUs()
	probe := nn.NewModel(opts.Model, opts.Seed)
	for g := 0; g < n; g++ {
		t.Grad = append(t.Grad, make([]float32, probe.ParamCount()))
		if opts.RealCompute {
			t.Models = append(t.Models, nn.NewModel(opts.Model, opts.Seed))
			t.Optims = append(t.Optims, nn.NewAdam(opts.LR))
		}
	}
	return t
}

// Step runs one mini-batch training step on rank's GPU.
func (t *Trainer) Step(p *sim.Proc, dev *hw.Device, rank int, mb *sample.MiniBatch, feats []float32, st *EpochStats) {
	grad := t.Grad[rank]
	o := comm.Compressed(t.Opts.GradCodec, hw.TrafficGradient)
	o.PriceElems = t.PriceElems
	var m *nn.Model
	if t.Opts.RealCompute {
		m = t.Models[rank]
		m.ZeroGrads()
		if len(mb.Seeds) > 0 {
			loss, correct, flops := m.TrainStep(mb, feats, SeedLabels(t.Opts.Data, mb))
			dev.RunKernel(p, hw.KernelCompute, flops)
			st.Loss += loss
			st.Correct += correct
			st.Seen += len(mb.Seeds)
		}
		m.GradVector(grad)
	} else {
		// Cost-only: charge nominal kernel work; gradients still move for
		// real. Grad stays all-zero (a CrossSync sum of zeros included), so
		// the communicator may reuse its cached encode round over round.
		if len(mb.Seeds) > 0 {
			dev.RunKernel(p, hw.KernelGather, nn.NominalAggBytes(t.Opts.Model, mb))
			flops := t.Flops
			if flops == nil {
				flops = nn.NominalFlops
			}
			dev.RunKernel(p, hw.KernelCompute, flops(t.Opts.Model, mb))
		}
		o.Static = true
	}
	t.Comm.AllReduceSum(p, rank, grad, o)
	replicas := t.Comm.N
	if t.CrossSync != nil {
		t.CrossSync(p, rank, grad)
		replicas = t.Replicas
	}
	if m == nil {
		return
	}
	inv := float32(1.0) / float32(replicas)
	for i := range grad {
		grad[i] *= inv
	}
	m.SetGradVector(grad)
	t.Optims[rank].Step(m)
}
