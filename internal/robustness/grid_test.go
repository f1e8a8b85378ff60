package robustness

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/pmf"
	"repro/internal/randx"
	"repro/internal/workload"
)

// TestFreeTimeEngineGridMatchesNaiveUnderMutation drives a randomized
// enqueue / start / complete / cancel / fault / time-leap sequence with the
// engine hooks a real event loop would call, asserting after every step
// that the cached lattice pipeline (tail product, head truncation,
// materialized chain, ρ kernel) is bit-identical to the Calculator's naive
// Grid* reference methods. This is the acceptance proof that the engine's
// caching never changes results.
func TestFreeTimeEngineGridMatchesNaiveUnderMutation(t *testing.T) {
	for _, seed := range []uint64{3, 4242, 555555} {
		m := buildModel(t, seed)
		calc := NewCalculator(m)
		eng := NewFreeTimeEngine(calc, 1)
		if calc.GridStep() != m.TAvg()/workload.LatticeRes {
			t.Fatalf("lattice step %v, want t_avg/%d", calc.GridStep(), workload.LatticeRes)
		}
		rng := randx.NewStream(seed * 17)
		steps := propSteps(t, 500)
		node := rng.IntN(m.Cluster.N())
		tavg := m.TAvg()
		types := m.Params.TaskTypes

		var tasks []QueuedTask
		now := 0.0
		for step := 0; step < steps; step++ {
			switch op := rng.IntN(100); {
			case op < 40: // enqueue at the tail
				qt := QueuedTask{
					Type:     rng.IntN(types),
					PState:   cluster.PState(rng.IntN(cluster.NumPStates)),
					Deadline: now + tavg*(0.5+2*rng.Float64()),
				}
				tasks = append(tasks, qt)
				if len(tasks) == 1 {
					tasks[0].Started = true
					tasks[0].StartAt = now
					eng.Invalidate(0)
				}
				eng.OnEnqueue(0, node, qt.Type, qt.PState, len(tasks))
			case op < 60: // complete the head; the next task starts
				if len(tasks) == 0 {
					continue
				}
				tasks = tasks[1:]
				if len(tasks) > 0 {
					tasks[0].Started = true
					tasks[0].StartAt = now
				}
				eng.Invalidate(0)
			case op < 68: // cancel a waiting task mid-queue
				if len(tasks) < 2 {
					continue
				}
				i := 1 + rng.IntN(len(tasks)-1)
				tasks = append(tasks[:i], tasks[i+1:]...)
				eng.Invalidate(0)
			case op < 76: // fault: the core sheds its queue
				tasks = nil
				eng.Invalidate(0)
			case op < 82: // repaired core receives unstarted work
				if len(tasks) != 0 {
					continue
				}
				tasks = append(tasks, QueuedTask{
					Type:     rng.IntN(types),
					PState:   cluster.PState(rng.IntN(cluster.NumPStates)),
					Deadline: now + tavg,
				})
				eng.Invalidate(0)
			case op < 94: // time advances a little (cut may drift)
				now += tavg * 0.3 * rng.Float64()
			default: // time leaps (head may become fully overdue)
				now += tavg * (1 + 3*rng.Float64())
			}
			if rng.IntN(4) == 0 {
				continue // coalesced updates must survive too
			}
			q := CoreQueue{Node: node, Tasks: append([]QueuedTask(nil), tasks...)}
			want := calc.GridFreeTime(q, now)
			got := eng.FreeTime(0, q, now)
			assertBitIdentical(t, step, got, want)
			// A repeat of the unchanged queue must hit and stay identical.
			assertBitIdentical(t, step, eng.FreeTime(0, q, now), want)
			if gm, wm := eng.FreeMean(0, q, now), calc.GridFreeMean(q, now); gm != wm {
				t.Fatalf("step %d: grid FreeMean %v, want %v", step, gm, wm)
			}
			// The engine-less oracle path in sched derives the sparse head
			// once (HeadPMF) and shares it with the chain; that shortcut
			// must equal the plain sparse chain on the same queue.
			assertBitIdentical(t, step, calc.FreeTimeFrom(calc.HeadPMF(q, now), q, now), calc.FreeTime(q, now))
			ct := rng.IntN(types)
			cp := cluster.PState(rng.IntN(cluster.NumPStates))
			cd := now + tavg*(0.5+2*rng.Float64())
			wantRho := calc.GridProbOnTime(q, now, ct, cp, cd)
			if gr := eng.ProbOnTime(0, q, now, ct, cp, cd, nil); gr != wantRho {
				t.Fatalf("step %d: grid ProbOnTime %v, want %v", step, gr, wantRho)
			}
			if gr := eng.ProbOnTime(0, q, now, ct, cp, cd, nil); gr != wantRho {
				t.Fatalf("step %d: cached grid ProbOnTime %v, want %v", step, gr, wantRho)
			}
			// A query at a later instant may re-truncate the head into the
			// core's scratch, which the ρ memo for now aliases: the memo
			// must be re-derived, not read with the new masses.
			eng.FreeTime(0, q, now+tavg*0.3*rng.Float64())
			if gr := eng.ProbOnTime(0, q, now, ct, cp, cd, nil); gr != wantRho {
				t.Fatalf("step %d: grid ProbOnTime after a later query %v, want %v", step, gr, wantRho)
			}
			// A deliberately tight deadline exercises the infeasibility
			// short-circuit, which must agree with the naive kernel.
			td := now + tavg*0.2*rng.Float64()
			wantRho = calc.GridProbOnTime(q, now, ct, cp, td)
			if gr := eng.ProbOnTime(0, q, now, ct, cp, td, nil); gr != wantRho {
				t.Fatalf("step %d: tight-deadline grid ρ %v, want %v", step, gr, wantRho)
			}
		}
	}
}

// TestGridRhoParity bounds grid ρ against a fully exact (uncompacted)
// evaluation of the same chain. For unstarted-head queues the grid
// pipeline differs from the exact one only by the per-operand snap
// (≤ step/2 each), so grid ρ at deadline d must lie within the exact CDF
// bracket [exact(d − slack), exact(d + slack)] with slack = q·step/2 —
// the tolerance contract stated in the pmf grid documentation.
func TestGridRhoParity(t *testing.T) {
	m := buildModel(t, 31)
	calc := NewCalculator(m)
	step := calc.GridStep()
	rng := randx.NewStream(77)
	tavg := m.TAvg()
	types := m.Params.TaskTypes
	for trial := 0; trial < 200; trial++ {
		node := rng.IntN(m.Cluster.N())
		depth := 1 + rng.IntN(2)
		now := tavg * rng.Float64()
		q := CoreQueue{Node: node}
		for i := 0; i < depth; i++ {
			q.Tasks = append(q.Tasks, QueuedTask{
				Type:   rng.IntN(types),
				PState: cluster.PState(rng.IntN(cluster.NumPStates)),
			})
		}
		ct := rng.IntN(types)
		cp := cluster.PState(rng.IntN(cluster.NumPStates))
		deadline := now + tavg*(0.2+3*rng.Float64())

		// Exact chain: head shifted by now, waiting execs, candidate exec —
		// convolved with no compaction, then the CDF at the deadline.
		ops := make([]pmf.PMF, 0, depth+1)
		ops = append(ops, m.ExecPMF(q.Tasks[0].Type, node, q.Tasks[0].PState).Shift(now))
		for _, task := range q.Tasks[1:] {
			ops = append(ops, m.ExecPMF(task.Type, node, task.PState))
		}
		ops = append(ops, m.ExecPMF(ct, node, cp))
		exact := ops[0]
		for _, p := range ops[1:] {
			exact = pmf.ConvolveN(exact, p, 0)
		}

		slack := float64(len(ops))*step/2 + 1e-9*deadline
		lo := exact.CDF(deadline - slack)
		hi := exact.CDF(deadline + slack)
		got := calc.GridProbOnTime(q, now, ct, cp, deadline)
		if got < lo-1e-9 || got > hi+1e-9 {
			t.Fatalf("trial %d: grid ρ %v outside exact bracket [%v, %v] (depth %d, step %v)",
				trial, got, lo, hi, depth, step)
		}
	}
}

// TestGridEngineCounters pins the counter semantics documented on
// Instrument.
func TestGridEngineCounters(t *testing.T) {
	m := buildModel(t, 8)
	calc := NewCalculator(m)
	eng := NewFreeTimeEngine(calc, 1)
	reg := metrics.NewRegistry()
	hits, misses := reg.Counter("h"), reg.Counter("m")
	extends, rebuilds := reg.Counter("e"), reg.Counter("r")
	compSkips := reg.Counter("cs")
	gridRho, fHits, fMisses := reg.Counter("g"), reg.Counter("fh"), reg.Counter("fm")
	eng.Instrument(hits, misses, extends, rebuilds, compSkips, gridRho, fHits, fMisses)

	q := CoreQueue{Node: 0, Tasks: []QueuedTask{
		{Type: 0, PState: cluster.P0, Deadline: 1e9, Started: true, StartAt: 0},
		{Type: 1, PState: cluster.P1, Deadline: 1e9},
	}}
	now := m.ExecPMF(0, 0, cluster.P0).Mean() * 0.1

	eng.FreeTime(0, q, now)
	eng.Flush()
	if misses.Value() != 1 {
		t.Fatalf("first query: misses = %d, want 1", misses.Value())
	}
	eng.FreeTime(0, q, now)
	eng.Flush()
	if hits.Value() != 1 {
		t.Fatalf("second query: hits = %d, want 1", hits.Value())
	}

	// An enqueue extends the tail product with one lattice convolution.
	q.Tasks = append(q.Tasks, QueuedTask{Type: 2, PState: cluster.P2, Deadline: 1e9})
	eng.OnEnqueue(0, 0, 2, cluster.P2, len(q.Tasks))
	eng.Flush()
	if extends.Value() != 1 {
		t.Fatalf("extends = %d, want 1", extends.Value())
	}
	before := pmf.ReadOpCounts()
	eng.FreeTime(0, q, now)
	if d := pmf.ReadOpCounts().Sub(before); d.GridConvolutions != 1 {
		// Post-extend the tail is current: only the head fold remains.
		t.Fatalf("post-extend rebuild did %d lattice convolutions, want 1", d.GridConvolutions)
	}

	// ρ answered by the kernel counts gridRho and a tail-cache hit.
	deadline := now + 20*m.TAvg()
	eng.ProbOnTime(0, q, now, 3, cluster.P1, deadline, nil)
	eng.Flush()
	if gridRho.Value() != 1 || fHits.Value() != 1 || fMisses.Value() != 0 {
		t.Fatalf("grid ρ counters: rho=%d fh=%d fm=%d, want 1/1/0",
			gridRho.Value(), fHits.Value(), fMisses.Value())
	}
	// An infeasible deadline is short-circuited without a kernel pass.
	if v := eng.ProbOnTime(0, q, now, 3, cluster.P1, now*(1-1e-6), nil); v != 0 {
		t.Fatalf("infeasible ρ = %v, want 0", v)
	}
	eng.Flush()
	if compSkips.Value() != 1 || gridRho.Value() != 1 {
		t.Fatalf("skip counters: skips=%d rho=%d, want 1/1", compSkips.Value(), gridRho.Value())
	}

	// After invalidation the next ρ must refold the tail: a free-time miss.
	eng.Invalidate(0)
	eng.ProbOnTime(0, q, now, 3, cluster.P1, deadline, nil)
	eng.Flush()
	if fMisses.Value() != 1 {
		t.Fatalf("post-invalidate ρ: free misses = %d, want 1", fMisses.Value())
	}
}

// TestFreeTimeEngineReuseMatchesNaive drives the queue mutations of
// TestFreeTimeEngineGridMatchesNaiveUnderMutation with a clock that also
// steps backward and lands exactly on the running head's impulses
// (StartAt + Value(k), as the engine's shifted lattice computes it) — the
// probes where a cached cut, a cached head mean and the cached free-time
// sum are most likely to be reused when they must not be. After every
// step FreeMean, FreeTime and ProbOnTime must be bit-equal to the
// Calculator's Grid* reference on a first query and on an immediate
// repeat, which the caches answer; the three are queried in a random
// order so each cache is also read right after the others were filled.
func TestFreeTimeEngineReuseMatchesNaive(t *testing.T) {
	for _, seed := range []uint64{7, 9090, 314159} {
		m := buildModel(t, seed)
		calc := NewCalculator(m)
		eng := NewFreeTimeEngine(calc, 1)
		rng := randx.NewStream(seed * 31)
		steps := propSteps(t, 500)
		node := rng.IntN(m.Cluster.N())
		tavg := m.TAvg()
		types := m.Params.TaskTypes
		randTask := func(deadline float64) QueuedTask {
			return QueuedTask{
				Type:     rng.IntN(types),
				PState:   cluster.PState(rng.IntN(cluster.NumPStates)),
				Deadline: deadline,
			}
		}

		var tasks []QueuedTask
		now := 0.0
		for step := 0; step < steps; step++ {
			switch op := rng.IntN(100); {
			case op < 35: // enqueue at the tail: same version, one more task
				qt := randTask(now + tavg*(0.5+2*rng.Float64()))
				tasks = append(tasks, qt)
				if len(tasks) == 1 {
					tasks[0].Started = true
					tasks[0].StartAt = now
					eng.Invalidate(0)
				}
				eng.OnEnqueue(0, node, qt.Type, qt.PState, len(tasks))
			case op < 50: // complete the head; the next task starts
				if len(tasks) == 0 {
					continue
				}
				tasks = tasks[1:]
				if len(tasks) > 0 {
					tasks[0].Started = true
					tasks[0].StartAt = now
				}
				eng.Invalidate(0)
			case op < 56: // cancel a waiting task mid-queue
				if len(tasks) < 2 {
					continue
				}
				i := 1 + rng.IntN(len(tasks)-1)
				tasks = append(tasks[:i], tasks[i+1:]...)
				eng.Invalidate(0)
			case op < 61: // fault: the core sheds its queue
				tasks = nil
				eng.Invalidate(0)
			case op < 66: // repaired core receives unstarted work
				if len(tasks) != 0 {
					continue
				}
				tasks = append(tasks, randTask(now+tavg))
				eng.Invalidate(0)
			case op < 76: // time advances a little (the cut may drift)
				now += tavg * 0.3 * rng.Float64()
			case op < 80: // time leaps (the head may become fully overdue)
				now += tavg * (1 + 3*rng.Float64())
			case op < 90: // time steps back (the cut may move down)
				now -= tavg * 0.3 * rng.Float64()
			default: // time lands exactly on one of the head's impulses
				if len(tasks) == 0 || !tasks[0].Started {
					continue
				}
				h := tasks[0]
				base := m.ExecLattice(h.Type, node, h.PState).Lat.Shift(h.StartAt)
				now = base.Value(rng.IntN(base.Len()))
			}
			if rng.IntN(4) == 0 {
				continue // coalesced updates must survive too
			}
			q := CoreQueue{Node: node, Tasks: append([]QueuedTask(nil), tasks...)}
			ct := rng.IntN(types)
			cp := cluster.PState(rng.IntN(cluster.NumPStates))
			cd := now + tavg*(0.5+2*rng.Float64())
			wantMean := calc.GridFreeMean(q, now)
			wantFree := calc.GridFreeTime(q, now)
			wantRho := calc.GridProbOnTime(q, now, ct, cp, cd)
			order := [3]int{0, 1, 2}
			for i := 2; i > 0; i-- {
				j := rng.IntN(i + 1)
				order[i], order[j] = order[j], order[i]
			}
			for pass := 0; pass < 2; pass++ { // first query, then a repeat
				for _, which := range order {
					switch which {
					case 0:
						if got := eng.FreeMean(0, q, now); math.Float64bits(got) != math.Float64bits(wantMean) {
							t.Fatalf("seed %d step %d pass %d: FreeMean %v, want %v", seed, step, pass, got, wantMean)
						}
					case 1:
						assertBitIdentical(t, step, eng.FreeTime(0, q, now), wantFree)
					case 2:
						if got := eng.ProbOnTime(0, q, now, ct, cp, cd, nil); math.Float64bits(got) != math.Float64bits(wantRho) {
							t.Fatalf("seed %d step %d pass %d: ProbOnTime %v, want %v", seed, step, pass, got, wantRho)
						}
					}
				}
			}
		}
	}
}
