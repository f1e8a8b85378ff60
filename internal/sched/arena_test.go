package sched

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/robustness"
)

// TestArenaMatchesFreshAllocation: running the same mapping decision with
// and without a caller-owned arena must pick the same assignment and score
// every candidate bit-identically — the arena changes where candidates
// live, never what they contain.
func TestArenaMatchesFreshAllocation(t *testing.T) {
	f := newFixture(t, 11)
	f.view.push(0, robustness.QueuedTask{Type: 1, PState: cluster.P0, Deadline: 1e9, Started: true, StartAt: 50})
	f.view.push(0, robustness.QueuedTask{Type: 3, PState: cluster.P1, Deadline: 1e9})
	f.view.push(2, robustness.QueuedTask{Type: 0, PState: cluster.P2, Deadline: 1e9})

	mkCtx := func(arena *Arena) *Context {
		ctx := f.ctx()
		ctx.FreeTimes = robustness.NewFreeTimeEngine(f.calc, f.view.NumCores())
		ctx.Arena = arena
		return ctx
	}

	fresh := mkCtx(nil)
	want := BuildCandidates(fresh, f.view)

	arena := NewArena()
	m := &Mapper{Heuristic: LightestLoad{}, Filters: EnergyAndRobustness.Filters()}
	// Several rounds over the same arena: steady-state reuse must not
	// leak one decision's state into the next.
	for round := 0; round < 3; round++ {
		ctx := mkCtx(arena)
		got := BuildCandidates(ctx, f.view)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d candidates, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i].Core != want[i].Core || got[i].PState != want[i].PState {
				t.Fatalf("round %d cand %d: (%v,%v) vs (%v,%v)",
					round, i, got[i].Core, got[i].PState, want[i].Core, want[i].PState)
			}
			if got[i].EET != want[i].EET || got[i].EEC != want[i].EEC || got[i].ECT() != want[i].ECT() {
				t.Fatalf("round %d cand %d: EET/EEC/ECT diverge", round, i)
			}
			if g, w := got[i].Rho(), want[i].Rho(); g != w {
				t.Fatalf("round %d cand %d: arena Rho %v, fresh Rho %v", round, i, g, w)
			}
		}
	}

	// Full decision parity, including the in-place Map filter.
	freshCtx := mkCtx(nil)
	wantDec := m.Map(freshCtx, BuildCandidates(freshCtx, f.view))
	arenaCtx := mkCtx(arena)
	gotDec := m.Map(arenaCtx, BuildCandidates(arenaCtx, f.view))
	if (wantDec == nil) != (gotDec == nil) {
		t.Fatalf("map outcomes diverge: %v vs %v", wantDec, gotDec)
	}
	if wantDec != nil {
		if gotDec.Core != wantDec.Core || gotDec.PState != wantDec.PState {
			t.Fatalf("arena chose (%v,%v), fresh chose (%v,%v)",
				gotDec.Core, gotDec.PState, wantDec.Core, wantDec.PState)
		}
		if gotDec.Rho() != wantDec.Rho() || gotDec.ECT() != wantDec.ECT() {
			t.Fatalf("decision scores diverge: %+v vs %+v", gotDec, wantDec)
		}
	}
}

// TestArenaSteadyStateAllocs pins the tentpole's zero-alloc claim: once the
// arena has grown to the cluster's candidate count, a full
// enumerate-filter-score decision through the engine stays allocation-free.
func TestArenaSteadyStateAllocs(t *testing.T) {
	f := newFixture(t, 12)
	f.view.push(0, robustness.QueuedTask{Type: 1, PState: cluster.P0, Deadline: 1e9, Started: true, StartAt: 80})
	f.view.push(1, robustness.QueuedTask{Type: 2, PState: cluster.P1, Deadline: 1e9})

	eng := robustness.NewFreeTimeEngine(f.calc, f.view.NumCores())
	arena := NewArena()
	ctx := f.ctx()
	ctx.FreeTimes = eng
	ctx.Arena = arena
	m := &Mapper{Heuristic: LightestLoad{}, Filters: EnergyAndRobustness.Filters()}

	decide := func() {
		if c := m.Map(ctx, BuildCandidates(ctx, f.view)); c == nil {
			t.Fatal("decision filtered out every candidate")
		}
	}
	decide() // warm: grows the arena, fills engine caches
	if n := testing.AllocsPerRun(50, decide); n > 0 {
		t.Fatalf("steady-state decision allocates %v times, want 0", n)
	}
}

// TestArenaAllocsAsCutMoves: TestArenaSteadyStateAllocs holds now fixed, so
// a started head's truncation cut never moves and the engine serves the
// head from cache. Here now advances one lattice step per decision past a
// started head, so its cut moves, and a steady-state MECT+en decision —
// which reads every core's free-time mean — must still allocate nothing.
func TestArenaAllocsAsCutMoves(t *testing.T) {
	f := newFixture(t, 13)
	head := robustness.QueuedTask{Type: 1, PState: cluster.P0, Deadline: 1e9, Started: true, StartAt: 80}
	f.view.push(0, head)
	f.view.push(0, robustness.QueuedTask{Type: 3, PState: cluster.P1, Deadline: 1e9})
	f.view.push(1, robustness.QueuedTask{Type: 2, PState: cluster.P2, Deadline: 1e9, Started: true, StartAt: 60})
	lat := f.model.ExecLattice(head.Type, f.view.queues[0].Node, head.PState).Lat.Shift(head.StartAt)
	if lat.Len() < 3 {
		t.Fatalf("head lattice has %d impulses; the cut cannot move", lat.Len())
	}

	ctx := f.ctx()
	ctx.FreeTimes = robustness.NewFreeTimeEngine(f.calc, f.view.NumCores())
	ctx.Arena = NewArena()
	m := &Mapper{Heuristic: MinExpectedCompletionTime{}, Filters: EnergyOnly.Filters()}

	// Sweep now across the head's support, from past its first impulse to
	// before its last, so the cut is always > 0 and some mass survives.
	step := f.model.LatticeStep()
	lo, hi := lat.Min()+step, lat.Value(lat.Len()-1)
	now, cut, moves := lo, -1, 0
	decide := func() {
		if now += step; now >= hi {
			now = lo
		}
		if k := lat.SearchValue(now); k != cut {
			cut = k
			moves++
		}
		ctx.Now = now
		if c := m.Map(ctx, BuildCandidates(ctx, f.view)); c == nil {
			t.Fatal("decision filtered out every candidate")
		}
	}
	decide() // warm: grows the arena
	if n := testing.AllocsPerRun(50, decide); n > 0 {
		t.Fatalf("decision with a moving cut allocates %v times, want 0", n)
	}
	if moves < 10 {
		t.Fatalf("the head's cut moved %d times over 51 decisions; the test does not exercise it", moves)
	}
}

// TestArenaAllocsAsCutMovesRho is TestArenaAllocsAsCutMoves on the ρ path:
// an LL+en+rob decision evaluates ρ on the core whose started head's cut
// moves with every decision, so the engine re-truncates that head each
// time, and the decision — counts flushed as the engines flush them —
// must still allocate nothing.
func TestArenaAllocsAsCutMovesRho(t *testing.T) {
	f := newFixture(t, 13)
	head := robustness.QueuedTask{Type: 1, PState: cluster.P0, Deadline: 1e9, Started: true, StartAt: 80}
	f.view.push(0, head)
	f.view.push(0, robustness.QueuedTask{Type: 3, PState: cluster.P1, Deadline: 1e9})
	f.view.push(1, robustness.QueuedTask{Type: 2, PState: cluster.P2, Deadline: 1e9, Started: true, StartAt: 60})
	lat := f.model.ExecLattice(head.Type, f.view.queues[0].Node, head.PState).Lat.Shift(head.StartAt)
	if lat.Len() < 3 {
		t.Fatalf("head lattice has %d impulses; the cut cannot move", lat.Len())
	}

	m := &Mapper{Heuristic: LightestLoad{}, Filters: EnergyAndRobustness.Filters()}
	eng := robustness.NewFreeTimeEngine(f.calc, f.view.NumCores())
	counters := NewCounters(metrics.NewRegistry(), m.Filters)
	counters.InstrumentFreeTimes(eng)
	ctx := f.ctx()
	ctx.FreeTimes = eng
	ctx.Counters = counters
	ctx.Arena = NewArena()

	step := f.model.LatticeStep()
	lo, hi := lat.Min()+step, lat.Value(lat.Len()-1)
	now, cut, moves := lo, -1, 0
	decisions, kernel := 0, 0
	decide := func() {
		decisions++
		if now += step; now >= hi {
			now = lo
		}
		if k := lat.SearchValue(now); k != cut {
			cut = k
			moves++
		}
		ctx.Now = now
		ctx.Task.Deadline = now + 3*f.model.TAvg()
		cands := BuildCandidates(ctx, f.view)
		first := cands[0] // core 0 leads the core-major order
		if c := m.Map(ctx, cands); c == nil {
			t.Fatal("decision filtered out every candidate")
		}
		// The infeasibility skip answers exactly 0; anything above it
		// came from the kernel on the re-truncated head.
		if first.CoreIdx == 0 && first.Rho() > 0 {
			kernel++
		}
		eng.Flush()
		counters.Flush()
	}
	decide() // warm: grows the arena and the head's scratch
	if n := testing.AllocsPerRun(50, decide); n > 0 {
		t.Fatalf("ρ decision with a moving cut allocates %v times, want 0", n)
	}
	if moves < 10 {
		t.Fatalf("the head's cut moved %d times over %d decisions; the test does not exercise it", moves, decisions)
	}
	if kernel != decisions {
		t.Fatalf("the kernel answered ρ on the moving head's core in %d of %d decisions", kernel, decisions)
	}
	if counters.GridRho.Value() == 0 || counters.RhoEvals.Value() == 0 {
		t.Fatal("no kernel ρ evaluation was published")
	}
}

// TestArenaSlotsMatchFreshAcrossLayouts: one arena serves rounds whose
// candidate layout shifts — all cores up, core 2 down, a P2 floor, back
// to P0, then a changed queue on core 0 — so persistent slots are reused
// where the layout repeats and rewritten where it shifted. Every round
// must match a fresh no-arena enumeration field by field and pick the
// same assignment under both a ρ-reading and a mean-reading policy.
func TestArenaSlotsMatchFreshAcrossLayouts(t *testing.T) {
	f := newFixture(t, 14)
	f.view.push(0, robustness.QueuedTask{Type: 1, PState: cluster.P0, Deadline: 1e9, Started: true, StartAt: 50})
	f.view.push(0, robustness.QueuedTask{Type: 3, PState: cluster.P1, Deadline: 1e9})
	f.view.push(3, robustness.QueuedTask{Type: 0, PState: cluster.P2, Deadline: 1e9, Started: true, StartAt: 70})

	type layout struct {
		name    string
		coreUp  func(int) bool
		floor   cluster.PState
		enqueue bool
	}
	layouts := []layout{
		{name: "all up"},
		{name: "core 2 down", coreUp: func(idx int) bool { return idx != 2 }},
		{name: "floor P2", floor: cluster.P2},
		{name: "floor P0", floor: cluster.P0},
		{name: "core 0 queue changed", enqueue: true},
	}
	mappers := []*Mapper{
		{Heuristic: LightestLoad{}, Filters: EnergyAndRobustness.Filters()},
		{Heuristic: MinExpectedCompletionTime{}, Filters: NoFilter.Filters()},
	}
	arena := NewArena()
	eng := robustness.NewFreeTimeEngine(f.calc, f.view.NumCores())
	chosen := 0
	for round := 0; round < 3*len(layouts); round++ {
		l := layouts[round%len(layouts)]
		if l.enqueue {
			f.view.push(0, robustness.QueuedTask{Type: round % 6, PState: cluster.P3, Deadline: 1e9})
			eng.Invalidate(0)
		}
		now := f.task.Arrival + float64(round)*0.1*f.model.TAvg()
		mkCtx := func(a *Arena, ft *robustness.FreeTimeEngine) *Context {
			ctx := f.ctx()
			ctx.Now = now
			ctx.Task.Deadline = now + 3*f.model.TAvg()
			ctx.CoreUp = l.coreUp
			ctx.PStateFloor = l.floor
			ctx.FreeTimes = ft
			ctx.Arena = a
			return ctx
		}
		fresh := mkCtx(nil, robustness.NewFreeTimeEngine(f.calc, f.view.NumCores()))
		reused := mkCtx(arena, eng)
		want := BuildCandidates(fresh, f.view)
		got := BuildCandidates(reused, f.view)
		if len(got) != len(want) {
			t.Fatalf("round %d (%s): %d candidates, want %d", round, l.name, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Core != w.Core || g.CoreIdx != w.CoreIdx || g.PState != w.PState || g.QueueLen != w.QueueLen {
				t.Fatalf("round %d (%s) cand %d: (%v,%d,%v,%d), want (%v,%d,%v,%d)", round, l.name, i,
					g.Core, g.CoreIdx, g.PState, g.QueueLen, w.Core, w.CoreIdx, w.PState, w.QueueLen)
			}
			if g.EET != w.EET || g.EEC != w.EEC || g.ECT() != w.ECT() || g.Rho() != w.Rho() {
				t.Fatalf("round %d (%s) cand %d: EET/EEC/ECT/ρ (%v,%v,%v,%v), want (%v,%v,%v,%v)",
					round, l.name, i, g.EET, g.EEC, g.ECT(), g.Rho(), w.EET, w.EEC, w.ECT(), w.Rho())
			}
		}
		for _, m := range mappers {
			wc := m.Map(fresh, BuildCandidates(fresh, f.view))
			gc := m.Map(reused, BuildCandidates(reused, f.view))
			if (wc == nil) != (gc == nil) || wc != nil && (gc.CoreIdx != wc.CoreIdx || gc.PState != wc.PState) {
				t.Fatalf("round %d (%s) %s: arena chose %v, fresh chose %v", round, l.name, m.Name(), gc, wc)
			}
			if gc != nil {
				chosen++
			}
		}
	}
	if chosen < len(layouts) {
		t.Fatalf("only %d decisions chose an assignment; the comparison is vacuous", chosen)
	}
}
