package robustness

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/pmf"
	"repro/internal/randx"
	"repro/internal/workload"
)

func buildModel(t *testing.T, seed uint64) *workload.Model {
	t.Helper()
	s := randx.NewStream(seed)
	c, err := cluster.Generate(s.Child("cluster"), cluster.PaperGenParams())
	if err != nil {
		t.Fatal(err)
	}
	p := workload.PaperParams()
	p.TaskTypes = 8
	p.WindowSize = 50
	p.BurstLen = 10
	p.PMFSamples = 300
	m, err := workload.BuildModel(s.Child("wl"), c, p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFreeTimeEmptyQueue(t *testing.T) {
	m := buildModel(t, 1)
	calc := NewCalculator(m)
	free := calc.FreeTime(CoreQueue{Node: 0}, 123.5)
	if free.Len() != 1 || free.Value(0) != 123.5 {
		t.Fatalf("empty queue free time %v, want point at 123.5", free)
	}
}

func TestFreeTimeWaitingOnly(t *testing.T) {
	m := buildModel(t, 2)
	calc := NewCalculator(m)
	q := CoreQueue{Node: 0, Tasks: []QueuedTask{
		{Type: 0, PState: cluster.P0, Deadline: 1e9},
		{Type: 1, PState: cluster.P2, Deadline: 1e9},
	}}
	now := 100.0
	free := calc.FreeTime(q, now)
	if err := free.Validate(); err != nil {
		t.Fatal(err)
	}
	want := now + m.ExecPMF(0, 0, cluster.P0).Mean() + m.ExecPMF(1, 0, cluster.P2).Mean()
	if math.Abs(free.Mean()-want) > 1e-6*want {
		t.Fatalf("free mean %v, want %v", free.Mean(), want)
	}
	if free.Min() < now {
		t.Fatalf("free time %v before now %v", free.Min(), now)
	}
}

func TestFreeTimeRunningTaskTruncation(t *testing.T) {
	m := buildModel(t, 3)
	calc := NewCalculator(m)
	exec := m.ExecPMF(2, 1, cluster.P1)
	start := 50.0
	// Pick a "now" well inside the completion distribution's support so
	// truncation really removes mass.
	now := start + exec.Mean()
	q := CoreQueue{Node: 1, Tasks: []QueuedTask{
		{Type: 2, PState: cluster.P1, Deadline: 1e9, Started: true, StartAt: start},
	}}
	free := calc.FreeTime(q, now)
	if err := free.Validate(); err != nil {
		t.Fatal(err)
	}
	if free.Min() < now {
		t.Fatalf("running-task completion %v in the past (now %v)", free.Min(), now)
	}
	// The conditional mean must be at least the unconditional shifted mean.
	if free.Mean() < start+exec.Mean()-1e-9 {
		t.Fatalf("truncated mean %v below unconditional %v", free.Mean(), start+exec.Mean())
	}
	// Reference: manual §IV-B pipeline.
	ref := exec.Shift(start)
	ref, _ = ref.TruncateBelow(now)
	if !free.ApproxEqual(ref, 1e-12) {
		t.Fatal("FreeTime deviates from the manual shift/truncate/renormalize pipeline")
	}
}

func TestFreeTimeOverdueRunningTask(t *testing.T) {
	m := buildModel(t, 4)
	calc := NewCalculator(m)
	exec := m.ExecPMF(0, 0, cluster.P0)
	// now beyond the whole support: the task "should" be done already.
	now := 10 + exec.Max() + 1000
	q := CoreQueue{Node: 0, Tasks: []QueuedTask{
		{Type: 0, PState: cluster.P0, Deadline: 1e9, Started: true, StartAt: 10},
	}}
	free := calc.FreeTime(q, now)
	if free.Len() != 1 || free.Value(0) != now {
		t.Fatalf("overdue task should yield point at now, got %v", free)
	}
}

func TestCompletionAndProbOnTime(t *testing.T) {
	m := buildModel(t, 5)
	calc := NewCalculator(m)
	free := pmf.Point(200.0)
	comp := calc.CompletionPMF(free, 3, 2, cluster.P3)
	exec := m.ExecPMF(3, 2, cluster.P3)
	if math.Abs(comp.Mean()-(200+exec.Mean())) > 1e-9 {
		t.Fatalf("completion mean %v, want %v", comp.Mean(), 200+exec.Mean())
	}
	// Monotone in deadline; 0 before support; 1 after.
	if p := calc.ProbOnTime(free, 3, 2, cluster.P3, 200); p != 0 {
		t.Fatalf("prob before any completion %v, want 0", p)
	}
	if p := calc.ProbOnTime(free, 3, 2, cluster.P3, 200+exec.Max()+1); p != 1 {
		t.Fatalf("prob after full support %v, want 1", p)
	}
	mid := calc.ProbOnTime(free, 3, 2, cluster.P3, 200+exec.Mean())
	if mid <= 0 || mid >= 1 {
		t.Fatalf("prob at mean %v, want strictly inside (0,1)", mid)
	}
}

func TestProbOnTimeDecreasesWithSlowerPState(t *testing.T) {
	m := buildModel(t, 6)
	calc := NewCalculator(m)
	free := pmf.Point(0.0)
	exec0 := m.ExecPMF(1, 0, cluster.P0)
	deadline := exec0.Mean() * 1.3
	p0 := calc.ProbOnTime(free, 1, 0, cluster.P0, deadline)
	p4 := calc.ProbOnTime(free, 1, 0, cluster.P4, deadline)
	if p4 > p0 {
		t.Fatalf("P4 on-time prob %v exceeds P0 %v for same tight deadline", p4, p0)
	}
}

func TestCoreRobustnessEq3(t *testing.T) {
	m := buildModel(t, 8)
	calc := NewCalculator(m)
	now := 0.0
	// Two waiting tasks with generous deadlines: both probabilities ≈ 1, so
	// ρ(core) ≈ 2.
	q := CoreQueue{Node: 0, Tasks: []QueuedTask{
		{Type: 0, PState: cluster.P0, Deadline: 1e9},
		{Type: 1, PState: cluster.P0, Deadline: 1e9},
	}}
	if rho := calc.CoreRobustness(q, now); math.Abs(rho-2) > 1e-9 {
		t.Fatalf("core robustness %v, want 2", rho)
	}
	// Impossible deadlines: ρ ≈ 0.
	q.Tasks[0].Deadline = -1
	q.Tasks[1].Deadline = -1
	if rho := calc.CoreRobustness(q, now); rho != 0 {
		t.Fatalf("core robustness %v, want 0", rho)
	}
	if rho := calc.CoreRobustness(CoreQueue{Node: 0}, now); rho != 0 {
		t.Fatalf("empty core robustness %v, want 0", rho)
	}
}

func TestCoreRobustnessQueuePositionMatters(t *testing.T) {
	m := buildModel(t, 9)
	calc := NewCalculator(m)
	exec := m.ExecPMF(0, 0, cluster.P0)
	// Deadline that the first task meets comfortably but the second
	// (which must wait for the first) cannot.
	deadline := exec.Mean() * 1.5
	q := CoreQueue{Node: 0, Tasks: []QueuedTask{
		{Type: 0, PState: cluster.P0, Deadline: deadline},
		{Type: 0, PState: cluster.P0, Deadline: deadline},
	}}
	rho := calc.CoreRobustness(q, 0)
	if rho < 0.5 || rho > 1.6 {
		t.Fatalf("robustness %v: expected first task ~certain, second ~unlikely", rho)
	}
}

func TestNewCalculatorNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil model")
		}
	}()
	NewCalculator(nil)
}

// TestNilCalculatorPanics: the oracle and the engine refuse a nil
// calculator when they are built, not at their first query.
func TestNilCalculatorPanics(t *testing.T) {
	for name, build := range map[string]func(){
		"NewOracle":         func() { NewOracle(nil) },
		"NewFreeTimeEngine": func() { NewFreeTimeEngine(nil, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s(nil) did not panic", name)
				}
			}()
			build()
		}()
	}
}

func TestCalculatorString(t *testing.T) {
	m := buildModel(t, 11)
	if NewCalculator(m).String() == "" {
		t.Fatal("empty String()")
	}
}
