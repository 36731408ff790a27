package pipeline

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Stages holds the per-GPU stage implementations for one training epoch.
// Each function is called with the mini-batch step index; the value returned
// by Sample flows to Load, and Load's result flows to Train — the queues in
// between are what allow steps to overlap.
type Stages struct {
	NumBatches int
	// FirstBatch is the step the epoch starts at (non-zero when replaying the
	// tail of an epoch after restoring a mid-epoch checkpoint). Steps
	// [FirstBatch, NumBatches) run.
	FirstBatch int
	// Samplers and Loaders are the worker instances per stage (0 means 1):
	// step s belongs to sampler s%Samplers and loader s%Loaders — the
	// multi-instance design of the paper's §5. The trainer stays single
	// (several trainers would break BSP).
	Samplers, Loaders int
	// Sample constructs the graph samples for step (the sampler worker).
	Sample func(p *sim.Proc, step int) interface{}
	// Load fetches features for the step's samples (the loader worker).
	Load func(p *sim.Proc, step int, sampled interface{}) interface{}
	// Train consumes the loaded batch (the trainer worker). Steps arrive
	// strictly in order, preserving BSP semantics.
	Train func(p *sim.Proc, step int, loaded interface{})
	// Tracer, when set, records "queue-wait" stall spans (cat "stall") on
	// Pid's stage lanes whenever a worker blocks on a full or empty queue —
	// the per-mini-batch stall attribution internal/prof consumes.
	Tracer *trace.Tracer
	Pid    int
}

// queueItem tags payloads with their step so ordering violations are caught.
type queueItem struct {
	step int
	v    interface{}
}

// stall records the time a worker spent parked on a queue operation as a
// zero-work span on the worker's own stage lane. Queue waits happen strictly
// between stage executions, so stall spans never overlap stage spans.
func (s Stages) stall(tid int, kind string, step int, start, end sim.Time) {
	if !s.Tracer.Enabled() || end <= start {
		return
	}
	s.Tracer.Complete("queue-wait", "stall", s.Pid, tid,
		float64(start), float64(end),
		map[string]string{"op": kind, "step": fmt.Sprint(step)})
}

// first returns instance i's first step of n instances: the smallest step
// >= FirstBatch with step%n == i.
func (s Stages) first(i, n int) int {
	return s.FirstBatch + ((i-s.FirstBatch)%n+n)%n
}

// take gets step's item from q and checks it is that step.
func take(p *sim.Proc, q *sim.QueueOf[queueItem], step int) interface{} {
	item, _ := q.Get(p) // the queues are never closed
	if item.step != step {
		panic(fmt.Sprintf("pipeline: got step %d, want %d (BSP violation)", item.step, step))
	}
	return item.v
}

// RunPipelined spawns the sampler, loader and trainer workers for one GPU,
// joined by bounded queues of the given capacity (the paper finds capacity 2
// sufficient). Every queue operation is named by its step index: sampler i
// puts step s on the queue to loader s%Loaders, which gets it from the queue
// of sampler s%Samplers, and the trainer gets step s from loader
// s%Loaders's queue. Back-pressure therefore never depends on which
// instance happens to be faster, so every GPU issues each worker's
// collectives in the same step order — what CCC needs to stay deadlock-free
// with several instances. done is triggered when the trainer finishes the
// epoch.
func RunPipelined(eng *sim.Engine, name string, s Stages, queueCap int, done *sim.Event) {
	if queueCap < 1 {
		queueCap = 1
	}
	nS, nL := max(s.Samplers, 1), max(s.Loaders, 1)
	worker := func(kind string, i, n int) string {
		if n == 1 {
			return name + "/" + kind
		}
		return fmt.Sprintf("%s/%s%d", name, kind, i)
	}
	loadQ := make([][]*sim.QueueOf[queueItem], nS) // [sampler][loader]
	for i := range loadQ {
		for j := 0; j < nL; j++ {
			loadQ[i] = append(loadQ[i], sim.NewQueueOf[queueItem](eng, queueCap))
		}
	}
	trainQ := make([]*sim.QueueOf[queueItem], nL)
	for j := range trainQ {
		trainQ[j] = sim.NewQueueOf[queueItem](eng, queueCap)
	}
	for i := 0; i < nS; i++ {
		eng.Go(worker("sampler", i, nS), func(p *sim.Proc) {
			for step := s.first(i, nS); step < s.NumBatches; step += nS {
				v := s.Sample(p, step)
				t0 := p.Now()
				loadQ[i][step%nL].Put(p, queueItem{step, v})
				s.stall(trace.LaneSampler, "put", step, t0, p.Now())
			}
		})
	}
	for j := 0; j < nL; j++ {
		eng.Go(worker("loader", j, nL), func(p *sim.Proc) {
			for step := s.first(j, nL); step < s.NumBatches; step += nL {
				t0 := p.Now()
				in := take(p, loadQ[step%nS][j], step)
				s.stall(trace.LaneLoader, "get", step, t0, p.Now())
				v := s.Load(p, step, in)
				t1 := p.Now()
				trainQ[j].Put(p, queueItem{step, v})
				s.stall(trace.LaneLoader, "put", step, t1, p.Now())
			}
		})
	}
	eng.Go(name+"/trainer", func(p *sim.Proc) {
		for step := s.FirstBatch; step < s.NumBatches; step++ {
			t0 := p.Now()
			in := take(p, trainQ[step%nL], step)
			s.stall(trace.LaneTrainer, "get", step, t0, p.Now())
			s.Train(p, step, in)
		}
		done.Trigger()
	})
}

// RunSequential executes the stages of each step back to back in a single
// worker — the DSP-Seq configuration the pipeline is compared against.
func RunSequential(eng *sim.Engine, name string, s Stages, done *sim.Event) {
	eng.Go(name+"/seq", func(p *sim.Proc) {
		for step := s.FirstBatch; step < s.NumBatches; step++ {
			v := s.Sample(p, step)
			v = s.Load(p, step, v)
			s.Train(p, step, v)
		}
		done.Trigger()
	})
}
