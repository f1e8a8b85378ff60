package sched

import (
	"math"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/randx"
	"repro/internal/robustness"
	"repro/internal/workload"
)

// fakeView is a minimal SystemView with configurable queues.
type fakeView struct {
	c      *cluster.Cluster
	queues []robustness.CoreQueue
}

func newFakeView(c *cluster.Cluster) *fakeView {
	v := &fakeView{c: c, queues: make([]robustness.CoreQueue, c.TotalCores())}
	for i, id := range c.Cores() {
		v.queues[i] = robustness.CoreQueue{Node: id.Node}
	}
	return v
}

func (v *fakeView) NumCores() int                    { return len(v.queues) }
func (v *fakeView) CoreID(i int) cluster.CoreID      { return v.c.Cores()[i] }
func (v *fakeView) Queue(i int) robustness.CoreQueue { return v.queues[i] }
func (v *fakeView) push(i int, t robustness.QueuedTask) {
	v.queues[i].Tasks = append(v.queues[i].Tasks, t)
}

type fixture struct {
	model *workload.Model
	calc  *robustness.Calculator
	view  *fakeView
	task  workload.Task
}

func newFixture(t *testing.T, seed uint64) *fixture {
	t.Helper()
	s := randx.NewStream(seed)
	c, err := cluster.Generate(s.Child("cluster"), cluster.PaperGenParams())
	if err != nil {
		t.Fatal(err)
	}
	p := workload.PaperParams()
	p.TaskTypes = 6
	p.WindowSize = 40
	p.BurstLen = 8
	p.PMFSamples = 300
	m, err := workload.BuildModel(s.Child("wl"), c, p)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		model: m,
		calc:  robustness.NewCalculator(m),
		view:  newFakeView(c),
		task:  workload.Task{ID: 0, Type: 2, Arrival: 100, Deadline: 100 + 3*m.TAvg(), U: 0.5, Priority: 1},
	}
}

// ctx is the fixture's decision context. Its free times are the oracle,
// which holds no state, so the fake view may change a queue between
// decisions without invalidating anything.
func (f *fixture) ctx() *Context {
	return &Context{
		Now:           f.task.Arrival,
		Task:          f.task,
		Model:         f.model,
		Calc:          f.calc,
		FreeTimes:     robustness.NewOracle(f.calc),
		EnergyLeft:    f.model.DefaultEnergyBudget(),
		TasksLeft:     f.model.Params.WindowSize - 1,
		AvgQueueDepth: 0.5,
		Rand:          randx.NewStream(999),
	}
}

func TestBuildCandidatesEnumeration(t *testing.T) {
	f := newFixture(t, 1)
	ctx := f.ctx()
	cands := BuildCandidates(ctx, f.view)
	wantN := f.view.NumCores() * cluster.NumPStates
	if len(cands) != wantN {
		t.Fatalf("got %d candidates, want %d", len(cands), wantN)
	}
	for _, c := range cands {
		node := f.model.Cluster.Node(c.Core)
		exec := f.model.ExecPMF(f.task.Type, c.Core.Node, c.PState)
		if math.Abs(c.EET-exec.Mean()) > 1e-12 {
			t.Fatalf("EET %v, want %v", c.EET, exec.Mean())
		}
		wantEEC := energy.ExpectedEnergy(node, c.PState, c.EET)
		if math.Abs(c.EEC-wantEEC) > 1e-12 {
			t.Fatalf("EEC %v, want %v", c.EEC, wantEEC)
		}
		if c.QueueLen != 0 {
			t.Fatalf("empty system but QueueLen %d", c.QueueLen)
		}
		// Empty queue: ECT = now + EET.
		if math.Abs(c.ECT()-(ctx.Now+c.EET)) > 1e-9 {
			t.Fatalf("ECT %v, want %v", c.ECT(), ctx.Now+c.EET)
		}
	}
}

func TestBuildCandidatesQueueLenAndECT(t *testing.T) {
	f := newFixture(t, 2)
	f.view.push(0, robustness.QueuedTask{Type: 1, PState: cluster.P0, Deadline: 1e9})
	f.view.push(0, robustness.QueuedTask{Type: 3, PState: cluster.P1, Deadline: 1e9})
	ctx := f.ctx()
	cands := BuildCandidates(ctx, f.view)
	c0 := cands[0] // core 0, P0
	if c0.QueueLen != 2 {
		t.Fatalf("QueueLen %d, want 2", c0.QueueLen)
	}
	node0 := f.view.CoreID(0).Node
	wait := ctx.Now + f.model.ExecPMF(1, node0, cluster.P0).Mean() + f.model.ExecPMF(3, node0, cluster.P1).Mean()
	if math.Abs(c0.ECT()-(wait+c0.EET)) > 1e-6 {
		t.Fatalf("ECT with queue %v, want %v", c0.ECT(), wait+c0.EET)
	}
	// Other cores still empty.
	if cands[cluster.NumPStates].QueueLen != 0 {
		t.Fatal("queue length leaked to other cores")
	}
}

func TestCandidateRhoCachedAndSane(t *testing.T) {
	f := newFixture(t, 3)
	ctx := f.ctx()
	cands := BuildCandidates(ctx, f.view)
	c := cands[0]
	r1 := c.Rho()
	r2 := c.Rho()
	if r1 != r2 {
		t.Fatal("Rho not cached/deterministic")
	}
	if r1 < 0 || r1 > 1 {
		t.Fatalf("rho %v outside [0,1]", r1)
	}
	// Generous deadline on an idle core: should be near-certain at P0.
	if c.PState == cluster.P0 && r1 < 0.99 {
		t.Fatalf("idle core, deadline 3·t_avg, P0: rho %v unexpectedly low", r1)
	}
}

func TestShortestQueueChoose(t *testing.T) {
	f := newFixture(t, 4)
	f.view.push(0, robustness.QueuedTask{Type: 0, PState: cluster.P0, Deadline: 1e9})
	ctx := f.ctx()
	cands := BuildCandidates(ctx, f.view)
	got := ShortestQueue{}.Choose(ctx, cands)
	if got.QueueLen != 0 {
		t.Fatalf("SQ picked a core with queue %d", got.QueueLen)
	}
	// Tie-break: minimum EET among empty cores — must be a P0 assignment
	// (P0 strictly dominates other P-states of the same node on EET).
	if got.PState != cluster.P0 {
		t.Fatalf("SQ tie-break chose %v, want P0", got.PState)
	}
	minEET := math.Inf(1)
	for _, c := range cands {
		if c.QueueLen == 0 && c.EET < minEET {
			minEET = c.EET
		}
	}
	if got.EET != minEET {
		t.Fatalf("SQ tie-break EET %v, want min %v", got.EET, minEET)
	}
}

func TestMECTChoose(t *testing.T) {
	f := newFixture(t, 5)
	ctx := f.ctx()
	cands := BuildCandidates(ctx, f.view)
	got := MinExpectedCompletionTime{}.Choose(ctx, cands)
	min := math.Inf(1)
	for _, c := range cands {
		if c.ECT() < min {
			min = c.ECT()
		}
	}
	if got.ECT() != min {
		t.Fatalf("MECT chose ECT %v, want min %v", got.ECT(), min)
	}
	// On an idle cluster MECT must choose P0 somewhere (§VII: "MECT will
	// choose P0 to get a smaller completion time").
	if got.PState != cluster.P0 {
		t.Fatalf("MECT chose %v on idle cluster, want P0", got.PState)
	}
}

func TestLightestLoadChoose(t *testing.T) {
	f := newFixture(t, 6)
	ctx := f.ctx()
	cands := BuildCandidates(ctx, f.view)
	got := LightestLoad{}.Choose(ctx, cands)
	min := math.Inf(1)
	var want *Candidate
	for _, c := range cands {
		// Reference implementation of Eq. 5 with first-wins ties, matching
		// the documented paper-faithful tie-break.
		if l := c.EEC * (1 - c.Rho()); l < min {
			min, want = l, c
		}
	}
	if got != want {
		t.Fatalf("LL chose %v (L=%v), want %v (L=%v)",
			got.Assignment, got.EEC*(1-got.Rho()), want.Assignment, min)
	}
}

func TestLLPrefersLowEnergyWhenDeadlineGenerous(t *testing.T) {
	// With an extremely generous deadline every rho ≈ 1, so (1−ρ) ≈ 0 for
	// all candidates; with a hopeless deadline every rho ≈ 0 and LL
	// minimizes EEC — the congestion behaviour §VII describes.
	f := newFixture(t, 7)
	f.task.Deadline = f.task.Arrival - 1 // already missed
	ctx := f.ctx()
	cands := BuildCandidates(ctx, f.view)
	got := LightestLoad{}.Choose(ctx, cands)
	min := math.Inf(1)
	for _, c := range cands {
		if c.EEC < min {
			min = c.EEC
		}
	}
	if got.EEC != min {
		t.Fatalf("under hopeless deadline LL chose EEC %v, want min %v", got.EEC, min)
	}
}

func TestGreenLLTieBreaksToMinEEC(t *testing.T) {
	f := newFixture(t, 30)
	f.task.Deadline = f.task.Arrival + 50*f.model.TAvg() // everything certain: all L = 0
	ctx := f.ctx()
	cands := BuildCandidates(ctx, f.view)
	got := GreenLightestLoad{}.Choose(ctx, cands)
	minEEC := math.Inf(1)
	for _, c := range cands {
		if c.Rho() == 1 && c.EEC < minEEC {
			minEEC = c.EEC
		}
	}
	if got.Rho() != 1 || got.EEC != minEEC {
		t.Fatalf("GreenLL chose EEC %v rho %v, want min certain EEC %v", got.EEC, got.Rho(), minEEC)
	}
	// Plain LL keeps the first zero-load candidate instead.
	ll := LightestLoad{}.Choose(ctx, cands)
	if ll != cands[0] && ll.EEC*(1-ll.Rho()) != 0 {
		t.Fatalf("LL tie behaviour changed: %v", ll.Assignment)
	}
}

func TestPriorityLightestLoad(t *testing.T) {
	f := newFixture(t, 31)
	ctx := f.ctx()
	cands := BuildCandidates(ctx, f.view)
	// With priority 1, PLL must agree with LL exactly.
	ctx.Task.Priority = 1
	if (PriorityLightestLoad{}).Choose(ctx, cands) != (LightestLoad{}).Choose(ctx, cands) {
		t.Fatal("PLL with unit priority diverged from LL")
	}
	// Zero/negative priorities are treated as 1 (defensive).
	ctx.Task.Priority = 0
	if (PriorityLightestLoad{}).Choose(ctx, cands) == nil {
		t.Fatal("PLL returned nil")
	}
}

func TestPriorityLightestLoadWeightShiftsChoice(t *testing.T) {
	// A high priority must weigh the miss probability more: the chosen
	// assignment's rho can only rise (weakly) with priority, and its EEC
	// can only rise with it. Use a moderately tight deadline so rho varies
	// across candidates.
	f := newFixture(t, 34)
	f.task.Deadline = f.task.Arrival + 0.9*f.model.TAvg()
	ctx := f.ctx()
	cands := BuildCandidates(ctx, f.view)
	ctx.Task.Priority = 1
	base := PriorityLightestLoad{}.Choose(ctx, cands)
	ctx.Task.Priority = 8
	hot := PriorityLightestLoad{}.Choose(ctx, cands)
	if hot.Rho() < base.Rho() {
		t.Fatalf("priority 8 chose rho %v below priority-1 rho %v", hot.Rho(), base.Rho())
	}
	if hot.Rho() == base.Rho() && hot != base {
		// Equal rho would mean the weighting did nothing on this instance;
		// allow it only when the same candidate is chosen.
		t.Fatalf("priority changed choice without improving rho")
	}
}

func TestMaxRobustnessChoose(t *testing.T) {
	f := newFixture(t, 32)
	ctx := f.ctx()
	cands := BuildCandidates(ctx, f.view)
	got := MaxRobustness{}.Choose(ctx, cands)
	for _, c := range cands {
		if c.Rho() > got.Rho() {
			t.Fatalf("MaxRho chose rho %v but %v exists", got.Rho(), c.Rho())
		}
	}
	// Among equal-rho candidates it must not waste energy.
	for _, c := range cands {
		if c.Rho() == got.Rho() && c.EEC < got.EEC {
			t.Fatalf("MaxRho tie-break wasted energy: %v vs %v", got.EEC, c.EEC)
		}
	}
}

func TestMinEnergyChoose(t *testing.T) {
	f := newFixture(t, 33)
	ctx := f.ctx()
	cands := BuildCandidates(ctx, f.view)
	got := MinEnergy{}.Choose(ctx, cands)
	for _, c := range cands {
		if c.EEC < got.EEC {
			t.Fatalf("MinEEC chose %v but %v exists", got.EEC, c.EEC)
		}
	}
}

func TestExtensionNames(t *testing.T) {
	if (PriorityLightestLoad{}).Name() != "PLL" || !(PriorityLightestLoad{}).NeedsRho() {
		t.Fatal("PLL metadata wrong")
	}
	if (GreenLightestLoad{}).Name() != "GreenLL" || !(GreenLightestLoad{}).NeedsRho() {
		t.Fatal("GreenLL metadata wrong")
	}
	if (MaxRobustness{}).Name() != "MaxRho" || !(MaxRobustness{}).NeedsRho() {
		t.Fatal("MaxRho metadata wrong")
	}
	if (MinEnergy{}).Name() != "MinEEC" || (MinEnergy{}).NeedsRho() {
		t.Fatal("MinEEC metadata wrong")
	}
}

func TestRandomChoose(t *testing.T) {
	f := newFixture(t, 8)
	ctx := f.ctx()
	cands := BuildCandidates(ctx, f.view)
	seen := map[Assignment]bool{}
	for i := 0; i < 200; i++ {
		got := Random{}.Choose(ctx, cands)
		seen[got.Assignment] = true
	}
	if len(seen) < 10 {
		t.Fatalf("Random hit only %d distinct assignments in 200 draws", len(seen))
	}
	// Determinism under fixed stream.
	a := Random{}.Choose(&Context{Rand: randx.NewStream(5)}, cands)
	b := Random{}.Choose(&Context{Rand: randx.NewStream(5)}, cands)
	if a != b {
		t.Fatal("Random not deterministic for equal streams")
	}
}

func TestPaperZetaMulBands(t *testing.T) {
	cases := []struct{ depth, want float64 }{
		{0, 0.8}, {0.79, 0.8}, {0.8, 1.0}, {1.0, 1.0}, {1.2, 1.0}, {1.21, 1.2}, {5, 1.2},
	}
	for _, c := range cases {
		if got := PaperZetaMul(c.depth); got != c.want {
			t.Errorf("PaperZetaMul(%v) = %v, want %v", c.depth, got, c.want)
		}
	}
}

func TestEnergyFilterThreshold(t *testing.T) {
	f := newFixture(t, 9)
	ctx := f.ctx()
	ctx.EnergyLeft = 1000
	ctx.TasksLeft = 10
	ctx.AvgQueueDepth = 0.5 // ζ_mul = 0.8
	ef := EnergyFilter{}
	want := 0.8 * 1000 / 10
	if got := ef.Threshold(ctx); math.Abs(got-want) > 1e-12 {
		t.Fatalf("threshold %v, want %v", got, want)
	}
	ctx.TasksLeft = 0
	if !math.IsInf(ef.Threshold(ctx), 1) {
		t.Fatal("threshold with no tasks left should be +Inf")
	}
	ctx.TasksLeft = 10
	ctx.EnergyLeft = -5
	if ef.Threshold(ctx) != 0 {
		t.Fatal("threshold with exhausted estimate should be 0")
	}
}

func TestEnergyFilterKeep(t *testing.T) {
	f := newFixture(t, 10)
	ctx := f.ctx()
	cands := BuildCandidates(ctx, f.view)
	// Choose a budget that passes some candidates and rejects others.
	var eecs []float64
	for _, c := range cands {
		eecs = append(eecs, c.EEC)
	}
	mid := eecs[len(eecs)/2]
	ctx.AvgQueueDepth = 1.0 // ζ_mul = 1
	ctx.TasksLeft = 1
	ctx.EnergyLeft = mid
	ef := EnergyFilter{}
	kept, rejected := 0, 0
	for _, c := range cands {
		if ef.Keep(ctx, c) {
			kept++
			if c.EEC > mid {
				t.Fatalf("kept candidate with EEC %v above threshold %v", c.EEC, mid)
			}
		} else {
			rejected++
		}
	}
	if kept == 0 || rejected == 0 {
		t.Fatalf("degenerate filter split kept=%d rejected=%d", kept, rejected)
	}
}

func TestEnergyFilterCustomMul(t *testing.T) {
	ctx := &Context{EnergyLeft: 100, TasksLeft: 10, AvgQueueDepth: 99}
	ef := EnergyFilter{Mul: FixedZetaMul(2)}
	if got := ef.Threshold(ctx); math.Abs(got-20) > 1e-12 {
		t.Fatalf("threshold %v, want 20", got)
	}
}

func TestRobustnessFilterKeep(t *testing.T) {
	f := newFixture(t, 11)
	ctx := f.ctx()
	cands := BuildCandidates(ctx, f.view)
	rf := RobustnessFilter{}
	for _, c := range cands {
		want := c.Rho() >= PaperRhoThresh
		if rf.Keep(ctx, c) != want {
			t.Fatalf("robustness filter disagreement at rho %v", c.Rho())
		}
	}
	strict := RobustnessFilter{Thresh: 1.1} // impossible
	for _, c := range cands {
		if strict.Keep(ctx, c) {
			t.Fatal("threshold 1.1 should reject everything")
		}
	}
}

func TestMapperFiltersThenChooses(t *testing.T) {
	f := newFixture(t, 12)
	ctx := f.ctx()
	cands := BuildCandidates(ctx, f.view)
	m := &Mapper{Heuristic: MinExpectedCompletionTime{}, Filters: []Filter{RobustnessFilter{}}}
	got := m.Map(ctx, cands)
	if got == nil {
		t.Fatal("expected a feasible assignment")
	}
	if got.Rho() < PaperRhoThresh {
		t.Fatalf("mapper returned filtered-out candidate (rho %v)", got.Rho())
	}
}

func TestMapperDiscardsWhenAllFiltered(t *testing.T) {
	f := newFixture(t, 13)
	ctx := f.ctx()
	ctx.EnergyLeft = 0 // energy filter rejects everything
	cands := BuildCandidates(ctx, f.view)
	m := &Mapper{Heuristic: ShortestQueue{}, Filters: []Filter{EnergyFilter{}}}
	if got := m.Map(ctx, cands); got != nil {
		t.Fatalf("expected discard, got %v", got.Assignment)
	}
}

func TestMapperName(t *testing.T) {
	m := &Mapper{Heuristic: LightestLoad{}, Filters: []Filter{EnergyFilter{}, RobustnessFilter{}}}
	if m.Name() != "LL+en+rob" {
		t.Fatalf("name %q", m.Name())
	}
	m2 := &Mapper{Heuristic: Random{}}
	if m2.Name() != "Random" {
		t.Fatalf("name %q", m2.Name())
	}
}

func TestFilterVariants(t *testing.T) {
	wantNames := map[FilterVariant]string{
		NoFilter: "none", EnergyOnly: "en", RobustnessOnly: "rob", EnergyAndRobustness: "en+rob",
	}
	for v, want := range wantNames {
		if v.String() != want {
			t.Errorf("variant %d name %q, want %q", v, v.String(), want)
		}
	}
	if FilterVariant(99).String() != "unknown" {
		t.Error("unknown variant should stringify as unknown")
	}
	if len(NoFilter.Filters()) != 0 {
		t.Error("none variant should have no filters")
	}
	if len(EnergyAndRobustness.Filters()) != 2 {
		t.Error("en+rob should have two filters")
	}
	if len(AllFilterVariants()) != 4 {
		t.Error("expected 4 variants")
	}
}

func TestByNameAndAll(t *testing.T) {
	for _, h := range AllHeuristics() {
		if got := ByName(h.Name()); got == nil || got.Name() != h.Name() {
			t.Errorf("ByName(%q) failed", h.Name())
		}
	}
	if ByName("bogus") != nil {
		t.Error("ByName should return nil for unknown names")
	}
	if len(AllHeuristics()) != 4 {
		t.Error("expected 4 heuristics")
	}
}

func TestAssignmentString(t *testing.T) {
	a := Assignment{Core: cluster.CoreID{Node: 1, Proc: 2, Core: 3}, PState: cluster.P2}
	if a.String() != "n1.p2.c3@P2" {
		t.Fatalf("assignment string %q", a.String())
	}
}

// feasibleRecorder is a heuristic that records the feasible set it is
// handed and picks its first member.
type feasibleRecorder struct{ got []*Candidate }

func (*feasibleRecorder) Name() string   { return "rec" }
func (*feasibleRecorder) NeedsRho() bool { return false }
func (r *feasibleRecorder) Choose(_ *Context, feasible []*Candidate) *Candidate {
	r.got = append(r.got[:0], feasible...)
	return feasible[0]
}

// TestMapEECBoundMatchesKeep: Map reads an EEC filter's bound once per
// decision instead of calling Keep per candidate; the survivors must be
// exactly the candidates Keep retains, for the energy filter and for the
// cap, disabled or binding.
func TestMapEECBoundMatchesKeep(t *testing.T) {
	f := newFixture(t, 14)
	ctx := f.ctx()
	cands := BuildCandidates(ctx, f.view)
	eecs := make([]float64, len(cands))
	for i, c := range cands {
		eecs[i] = c.EEC
	}
	sort.Float64s(eecs)
	for _, flt := range []Filter{
		EnergyFilter{},
		EnergyFilter{Mul: FixedZetaMul(0.05)},
		EECCapFilter{},
		EECCapFilter{Cap: eecs[len(eecs)/2]},
	} {
		var want []*Candidate
		for _, c := range cands {
			if flt.Keep(ctx, c) {
				want = append(want, c)
			}
		}
		rec := &feasibleRecorder{}
		chosen := (&Mapper{Heuristic: rec, Filters: []Filter{flt}}).Map(ctx, cands)
		if len(want) == 0 {
			if chosen != nil {
				t.Fatalf("%#v: Keep rejects every candidate but Map chose one", flt)
			}
			continue
		}
		if len(rec.got) != len(want) {
			t.Fatalf("%#v: Map kept %d candidates, Keep %d", flt, len(rec.got), len(want))
		}
		for i := range want {
			if rec.got[i] != want[i] {
				t.Fatalf("%#v: survivor %d differs", flt, i)
			}
		}
	}
}
