package pipeline

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// mkStages builds stages with fixed virtual durations and a trace log.
func mkStages(batches int, sampleT, loadT, trainT sim.Time, trace *[]string) Stages {
	return Stages{
		NumBatches: batches,
		Sample: func(p *sim.Proc, step int) interface{} {
			p.Sleep(sampleT)
			return step * 10
		},
		Load: func(p *sim.Proc, step int, v interface{}) interface{} {
			if v.(int) != step*10 {
				panic("load got wrong payload")
			}
			p.Sleep(loadT)
			return step * 100
		},
		Train: func(p *sim.Proc, step int, v interface{}) {
			if v.(int) != step*100 {
				panic("train got wrong payload")
			}
			p.Sleep(trainT)
			if trace != nil {
				*trace = append(*trace, "t")
			}
		},
	}
}

func TestPipelineOverlapsStages(t *testing.T) {
	// 10 batches, each stage 1s. Sequential: 30s. Pipelined: ~12s.
	run := func(pipelined bool) sim.Time {
		eng := sim.NewEngine()
		done := eng.NewEvent()
		s := mkStages(10, 1, 1, 1, nil)
		if pipelined {
			RunPipelined(eng, "gpu0", s, 2, done)
		} else {
			RunSequential(eng, "gpu0", s, done)
		}
		end, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !done.Fired() {
			t.Fatal("epoch did not complete")
		}
		return end
	}
	seq := run(false)
	pipe := run(true)
	if seq != 30 {
		t.Fatalf("sequential end %v, want 30", seq)
	}
	if pipe > 13 {
		t.Fatalf("pipelined end %v, want ~12", pipe)
	}
}

func TestPipelinePreservesOrder(t *testing.T) {
	eng := sim.NewEngine()
	done := eng.NewEvent()
	var trace []string
	// Uneven stage times stress reordering; trainer asserts order itself.
	RunPipelined(eng, "g", mkStages(20, 0.1, 0.5, 0.2, &trace), 2, done)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 20 {
		t.Fatalf("trained %d batches", len(trace))
	}
}

func TestQueueCapacityBoundsRunAhead(t *testing.T) {
	// With a fast sampler and slow trainer, the sampler can be at most
	// queueCap*2+1 steps ahead (both queues full + one in flight).
	eng := sim.NewEngine()
	done := eng.NewEvent()
	var sampled, trained int
	maxAhead := 0
	s := Stages{
		NumBatches: 30,
		Sample: func(p *sim.Proc, step int) interface{} {
			sampled++
			if ahead := sampled - trained; ahead > maxAhead {
				maxAhead = ahead
			}
			p.Sleep(0.01)
			return nil
		},
		Load: func(p *sim.Proc, step int, v interface{}) interface{} { return nil },
		Train: func(p *sim.Proc, step int, v interface{}) {
			p.Sleep(1)
			trained++
		},
	}
	RunPipelined(eng, "g", s, 2, done)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if maxAhead > 7 {
		t.Fatalf("sampler ran %d steps ahead with capacity 2", maxAhead)
	}
}

func TestCoordinatorUncoordinatedDeadlocks(t *testing.T) {
	// Figure 8: GPU 0 launches worker A then B; GPU 1 launches B then A.
	// Each collective body waits for its peer on the other GPU.
	eng := sim.NewEngine()
	c := NewCoordinator(eng, 2, false, 1)
	barA := eng.NewBarrier(2)
	barB := eng.NewBarrier(2)
	launch := func(gpu int, first, second int, firstBar, secondBar *sim.Barrier) {
		eng.Go("gpu", func(p *sim.Proc) {
			c.Communicate(p, gpu, first, func(p *sim.Proc) { firstBar.Arrive(p) })
		})
		eng.Go("gpu", func(p *sim.Proc) {
			p.Sleep(0.1)
			c.Communicate(p, gpu, second, func(p *sim.Proc) { secondBar.Arrive(p) })
		})
	}
	launch(0, 0, 1, barA, barB) // GPU 0: A first
	launch(1, 1, 0, barB, barA) // GPU 1: B first
	_, err := eng.Run()
	if _, ok := err.(*sim.DeadlockError); !ok {
		t.Fatalf("expected deadlock, got %v", err)
	}
}

func TestCoordinatorCCCResolvesDeadlock(t *testing.T) {
	// The same launch pattern with CCC completes: the leader's order (A
	// then B) is imposed on GPU 1.
	eng := sim.NewEngine()
	c := NewCoordinator(eng, 2, true, 1)
	barA := eng.NewBarrier(2)
	barB := eng.NewBarrier(2)
	completed := 0
	comm := func(gpu, worker int, bar *sim.Barrier, delay sim.Time) {
		eng.Go("w", func(p *sim.Proc) {
			p.Sleep(delay)
			c.Communicate(p, gpu, worker, func(p *sim.Proc) {
				bar.Arrive(p)
				p.Sleep(0.05)
			})
			completed++
		})
	}
	comm(0, 0, barA, 0)    // leader submits A first
	comm(0, 1, barB, 0.1)  // then B
	comm(1, 1, barB, 0)    // GPU 1 is ready with B first...
	comm(1, 0, barA, 0.02) // ...but must launch A first
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if completed != 4 {
		t.Fatalf("completed %d of 4 collectives", completed)
	}
}

func TestCCCKernelsStillOverlapAcrossGPUs(t *testing.T) {
	// CCC orders launches; it must not serialize independent collectives
	// into lockstep rounds longer than necessary. Two workers x 2 GPUs,
	// each collective 1s, same submission order: total should be ~2s
	// (B starts after A on each GPU), not 4s.
	eng := sim.NewEngine()
	c := NewCoordinator(eng, 2, true, 1)
	barA := eng.NewBarrier(2)
	barB := eng.NewBarrier(2)
	for gpu := 0; gpu < 2; gpu++ {
		gpu := gpu
		eng.Go("a", func(p *sim.Proc) {
			c.Communicate(p, gpu, 0, func(p *sim.Proc) {
				barA.Arrive(p)
				p.Sleep(1)
			})
		})
		eng.Go("b", func(p *sim.Proc) {
			c.Communicate(p, gpu, 1, func(p *sim.Proc) {
				barB.Arrive(p)
				p.Sleep(1)
			})
		})
	}
	end, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end > 2.01 {
		t.Fatalf("CCC run took %v, want ~2", end)
	}
}

func TestCoordinatorManyRoundsNoDeadlock(t *testing.T) {
	// Stress: 4 GPUs x 3 workers x 10 rounds with jittered readiness.
	eng := sim.NewEngine()
	c := NewCoordinator(eng, 4, true, 1)
	bars := []*sim.Barrier{eng.NewBarrier(4), eng.NewBarrier(4), eng.NewBarrier(4)}
	total := 0
	for gpu := 0; gpu < 4; gpu++ {
		for w := 0; w < 3; w++ {
			gpu, w := gpu, w
			eng.Go("w", func(p *sim.Proc) {
				for round := 0; round < 10; round++ {
					// Jitter readiness differently per gpu/worker/round.
					p.Sleep(sim.Time(float64((gpu*7+w*13+round*3)%5) * 0.001))
					c.Communicate(p, gpu, w, func(p *sim.Proc) {
						bars[w].Arrive(p)
						p.Sleep(0.002)
					})
				}
				total++
			})
		}
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 12 {
		t.Fatalf("finished %d of 12 workers", total)
	}
}

func TestCoordinatorString(t *testing.T) {
	eng := sim.NewEngine()
	if s := NewCoordinator(eng, 4, true, 1).String(); !strings.Contains(s, "CCC") {
		t.Errorf("String() = %q", s)
	}
	if s := NewCoordinator(eng, 4, false, 1).String(); !strings.Contains(s, "uncoordinated") {
		t.Errorf("String() = %q", s)
	}
}

func TestSequentialMatchesPipelineResults(t *testing.T) {
	// The two execution modes must produce identical trainer input
	// sequences (BSP equivalence); only timing differs.
	collect := func(pipelined bool) []int {
		eng := sim.NewEngine()
		done := eng.NewEvent()
		var got []int
		s := Stages{
			NumBatches: 15,
			Sample:     func(p *sim.Proc, step int) interface{} { p.Sleep(0.2); return step },
			Load:       func(p *sim.Proc, step int, v interface{}) interface{} { p.Sleep(0.1); return v.(int) * 2 },
			Train: func(p *sim.Proc, step int, v interface{}) {
				p.Sleep(0.3)
				got = append(got, v.(int))
			},
		}
		if pipelined {
			RunPipelined(eng, "g", s, 2, done)
		} else {
			RunSequential(eng, "g", s, done)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := collect(true), collect(false)
	if len(a) != len(b) {
		t.Fatal("different batch counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: pipeline %d vs seq %d", i, a[i], b[i])
		}
	}
}

func TestMultiPipelineCompletesInOrder(t *testing.T) {
	eng := sim.NewEngine()
	done := eng.NewEvent()
	var got []int
	s := Stages{
		NumBatches: 23,
		Samplers:   3,
		Loaders:    2,
		// Instances run at different speeds: the trainer must still see
		// every step in order with its own payload.
		Sample: func(p *sim.Proc, step int) interface{} {
			p.Sleep(sim.Time(0.1 * float64(step%3+1)))
			return step
		},
		Load: func(p *sim.Proc, step int, v interface{}) interface{} {
			p.Sleep(0.02)
			return v.(int) * 100
		},
		Train: func(p *sim.Proc, step int, v interface{}) {
			if v.(int) != step*100 {
				t.Errorf("step %d payload %v", step, v)
			}
			p.Sleep(0.05)
			got = append(got, step)
		},
	}
	RunPipelined(eng, "g", s, 2, done)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !done.Fired() || len(got) != 23 {
		t.Fatalf("trained %d of 23 steps (done=%v)", len(got), done.Fired())
	}
	for i, step := range got {
		if step != i {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
}

func TestMultiPipelineLoaderInstanceOrdering(t *testing.T) {
	// Sampler i runs steps i, i+S, ... and loader j runs j, j+L, ... in
	// increasing order — from FirstBatch on, and whichever instance is
	// faster — so every GPU's instances issue their collectives in the same
	// order.
	const S, L, first, n = 3, 2, 5, 17
	run := func(slow int) (samplers, loaders [][]int) {
		eng := sim.NewEngine()
		done := eng.NewEvent()
		samplers, loaders = make([][]int, S), make([][]int, L)
		RunPipelined(eng, "g", Stages{
			NumBatches: n, FirstBatch: first, Samplers: S, Loaders: L,
			Sample: func(p *sim.Proc, step int) interface{} {
				if step%S == slow {
					p.Sleep(0.3)
				}
				samplers[step%S] = append(samplers[step%S], step)
				return nil
			},
			Load: func(p *sim.Proc, step int, v interface{}) interface{} {
				p.Sleep(sim.Time(0.01 * float64(step%L+1)))
				loaders[step%L] = append(loaders[step%L], step)
				return nil
			},
			Train: func(p *sim.Proc, step int, v interface{}) {},
		}, 1, done)
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return samplers, loaders
	}
	check := func(kind string, seen [][]int) {
		for i, steps := range seen {
			want := first + ((i-first)%len(seen)+len(seen))%len(seen)
			for _, step := range steps {
				if step != want {
					t.Fatalf("%s %d ran %v", kind, i, steps)
				}
				want += len(seen)
			}
			if want < n {
				t.Fatalf("%s %d stopped early: %v", kind, i, steps)
			}
		}
	}
	for slow := 0; slow < S; slow++ {
		samplers, loaders := run(slow)
		check("sampler", samplers)
		check("loader", loaders)
	}
}
