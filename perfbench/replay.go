package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/csp"
	"repro/internal/featstore"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/train"
)

// replayBudget is the host time each layer replay measures for; an
// operation slower than that is measured once.
const replayBudget = 0.3

// replayInput is what a workload hands the layer replays: its prepared data
// and configuration, and the store its system built.
type replayInput struct {
	td     *train.Data
	sample sample.Config
	batch  int
	model  nn.Config
	store  *featstore.Store
	seed   uint64
	// requests, when set, draws seed nodes from a serving popularity
	// distribution instead of the training schedule.
	requests *serve.Workload
}

// rounds returns up to n rounds of per-rank seed batches: training batches
// of epoch 0, or, for serving, popularity draws grouped by owning GPU.
func (in replayInput) rounds(n int) [][][]graph.NodeID {
	gpus := in.td.NumGPUs()
	var out [][][]graph.NodeID
	if in.requests != nil {
		r := rng.New(rng.Mix(in.seed, 0x5E7E))
		for s := 0; s < n; s++ {
			round := make([][]graph.NodeID, gpus)
			for i := 0; i < in.batch*gpus; i++ {
				v := in.requests.Draw(r, 0)
				g := in.requests.Owner(v)
				round[g] = append(round[g], v)
			}
			out = append(out, round)
		}
		return out
	}
	sched := train.NewSchedule(in.td, in.batch)
	for s := 0; s < min(n, sched.Steps); s++ {
		round := make([][]graph.NodeID, gpus)
		for g := range round {
			round[g] = sched.Batch(in.td, in.seed, 0, s, g)
		}
		out = append(out, round)
	}
	return out
}

// replay drives one layer's public function directly. prepare builds the
// inputs outside the timed region and returns the operation; one call of op
// performs per operations.
type replay struct {
	name    string
	per     int
	prepare func(in replayInput) (op func(i int) error, err error)
}

var replays = []replay{
	{"sample_reference", 1, prepSampleReference},
	{"csp_sample_batch", 1, prepCSPSampleBatch},
	{"featstore_split_gather", 1, prepFeatstore},
	{"comm_allreduce_fp32", 1, prepAllReduce(false)},
	{"comm_allreduce_int8", 1, prepAllReduce(true)},
	{"nn_train_step", 1, prepTrainStep},
	{"partition_metis", 1, prepMetis},
	{"sim_sleep", simSleepsPerOp, prepSimSleep},
}

// replayAll runs every layer replay on the workload's inputs and records
// ns/op and allocs/op.
func (b *bench) replayAll(in replayInput) error {
	for _, r := range replays {
		op, err := r.prepare(in)
		if err != nil {
			return fmt.Errorf("replay %s: %w", r.name, err)
		}
		ns, allocs, n, err := timeOp(op)
		if err != nil {
			return fmt.Errorf("replay %s: %w", r.name, err)
		}
		b.layer("replay."+r.name+".ns_op", ns/float64(r.per), n*r.per)
		b.layer("replay."+r.name+".allocs_op", allocs/float64(r.per), n*r.per)
		b.logf("replay %-24s %14.1f ns/op %12.1f allocs/op (%d ops)", r.name, ns/float64(r.per), allocs/float64(r.per), n*r.per)
	}
	return nil
}

// timeOp times op: the first call is warm-up unless it alone exceeds the
// budget, in which case it is the measurement.
func timeOp(op func(i int) error) (nsPerOp, allocsPerOp float64, n int, err error) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	a0 := s[0].Value.Uint64()
	t0 := time.Now()
	if err := op(0); err != nil {
		return 0, 0, 0, err
	}
	first := time.Since(t0)
	metrics.Read(s)
	if first.Seconds() >= replayBudget {
		return float64(first.Nanoseconds()), float64(s[0].Value.Uint64() - a0), 1, nil
	}
	a0 = s[0].Value.Uint64()
	t0 = time.Now()
	for n = 0; n == 0 || time.Since(t0).Seconds() < replayBudget; n++ {
		if err := op(n + 1); err != nil {
			return 0, 0, 0, err
		}
	}
	elapsed := time.Since(t0)
	metrics.Read(s)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(s[0].Value.Uint64()-a0) / float64(n), n, nil
}

// flatRanks lists every non-empty (rank, seeds) pair of the rounds.
func flatRanks(rounds [][][]graph.NodeID) (ranks []int, seeds [][]graph.NodeID) {
	for _, round := range rounds {
		for g, s := range round {
			if len(s) > 0 {
				ranks, seeds = append(ranks, g), append(seeds, s)
			}
		}
	}
	return ranks, seeds
}

func prepSampleReference(in replayInput) (func(int) error, error) {
	_, batches := flatRanks(in.rounds(8))
	if len(batches) == 0 {
		return nil, fmt.Errorf("no seed batches")
	}
	dedup := sample.NewDeduper(in.td.G.NumNodes())
	return func(i int) error {
		sample.ReferenceInto(dedup, in.td.G, batches[i%len(batches)], in.sample, rng.Mix(in.seed, uint64(i)))
		return nil
	}, nil
}

func prepCSPSampleBatch(in replayInput) (func(int) error, error) {
	rounds := in.rounds(8)
	if len(rounds) == 0 {
		return nil, fmt.Errorf("no seed batches")
	}
	m := hw.NewMachine(in.td.NumGPUs(), hw.V100(), hw.XeonE5())
	w, err := csp.NewWorld(m, in.td.G, in.td.Offsets)
	if err != nil {
		return nil, err
	}
	return func(i int) error {
		round := rounds[i%len(rounds)]
		for g := range round {
			m.Eng.Go(fmt.Sprintf("sampler%d", g), func(p *sim.Proc) {
				w.SampleBatch(p, g, round[g], in.sample, rng.Mix(in.seed, uint64(i), uint64(g)))
			})
		}
		_, err := m.Eng.Run()
		return err
	}, nil
}

func prepFeatstore(in replayInput) (func(int) error, error) {
	ranks, batches := flatRanks(in.rounds(8))
	if len(batches) == 0 {
		return nil, fmt.Errorf("no seed batches")
	}
	ids := make([][]graph.NodeID, len(batches))
	for i, seeds := range batches {
		mb := sample.Reference(in.td.G, seeds, in.sample, rng.Mix(in.seed, uint64(i)))
		ids[i] = mb.Blocks[len(mb.Blocks)-1].InputNodes
	}
	return func(i int) error {
		k := i % len(ids)
		in.store.Split(ids[k], ranks[k])
		in.store.Gather(ids[k])
		return nil
	}, nil
}

// prepAllReduce reduces a vector of the workload model's parameter count
// across every GPU, raw fp32 or through the int8 codec.
func prepAllReduce(quantized bool) func(in replayInput) (func(int) error, error) {
	return func(in replayInput) (func(int) error, error) {
		n := in.td.NumGPUs()
		params := nn.NewModel(in.model, in.seed).ParamCount()
		m := hw.NewMachine(n, hw.V100(), hw.XeonE5())
		c := comm.New(m)
		opts := comm.Compressed(nil, hw.TrafficGradient)
		if quantized {
			opts = comm.Compressed(compress.NewInt8(in.seed), hw.TrafficGradient)
		}
		r := rng.New(in.seed)
		base := make([]float32, params)
		for i := range base {
			base[i] = float32(r.Float64() - 0.5)
		}
		bufs := make([][]float32, n)
		for g := range bufs {
			bufs[g] = make([]float32, params)
		}
		return func(int) error {
			for g := range bufs {
				copy(bufs[g], base)
				m.Eng.Go(fmt.Sprintf("rank%d", g), func(p *sim.Proc) {
					c.AllReduceSum(p, g, bufs[g], opts)
				})
			}
			_, err := m.Eng.Run()
			return err
		}, nil
	}
}

func prepTrainStep(in replayInput) (func(int) error, error) {
	_, batches := flatRanks(in.rounds(1))
	if len(batches) == 0 {
		return nil, fmt.Errorf("no seed batches")
	}
	model := nn.NewModel(in.model, in.seed)
	mb := sample.Reference(in.td.G, batches[0], in.sample, in.seed)
	feats := train.GatherFeatures(in.td, mb)
	labels := train.SeedLabels(in.td, mb)
	return func(int) error {
		model.TrainStep(mb, feats, labels)
		return nil
	}, nil
}

func prepMetis(in replayInput) (func(int) error, error) {
	return func(i int) error {
		partition.Metis(in.td.G, in.td.NumGPUs(), rng.Mix(in.seed, uint64(i)))
		return nil
	}, nil
}

// simSleepsPerOp is the number of Proc.Sleep calls one sim_sleep call makes.
const simSleepsPerOp = 10000

func prepSimSleep(replayInput) (func(int) error, error) {
	return func(int) error {
		e := sim.NewEngine()
		e.Go("spin", func(p *sim.Proc) {
			for i := 0; i < simSleepsPerOp; i++ {
				p.Sleep(1)
			}
		})
		_, err := e.Run()
		return err
	}, nil
}
