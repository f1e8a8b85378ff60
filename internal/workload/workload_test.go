package workload

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/pmf"
	"repro/internal/randx"
)

// testParams shrinks the paper parameters so model construction stays fast
// in unit tests while exercising every code path.
func testParams() Params {
	p := PaperParams()
	p.TaskTypes = 12
	p.WindowSize = 100
	p.BurstLen = 20
	p.PMFSamples = 400
	return p
}

func buildTestModel(t *testing.T, seed uint64) *Model {
	t.Helper()
	s := randx.NewStream(seed)
	c, err := cluster.Generate(s.Child("cluster"), cluster.PaperGenParams())
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildModel(s.Child("workload"), c, testParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestLatticeTable: every model carries its execution PMFs snapped at
// t_avg/LatticeRes, a slice shares its parent's rows instead of re-snapping
// them, and a model loaded from JSON builds its table from the loaded pmfs.
func TestLatticeTable(t *testing.T) {
	m := buildTestModel(t, 17)
	if m.LatticeStep() != m.TAvg()/LatticeRes {
		t.Fatalf("lattice step %v, want t_avg/%d = %v", m.LatticeStep(), LatticeRes, m.TAvg()/LatticeRes)
	}
	nodes := []int{2, 0}
	sub, err := m.Slice(nodes)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadModelJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < m.Params.TaskTypes; ti++ {
		for _, ps := range cluster.AllPStates() {
			for ni := 0; ni < m.Cluster.N(); ni++ {
				for _, mod := range []*Model{m, loaded} {
					got := mod.ExecLattice(ti, ni, ps)
					want := pmf.ToLattice(mod.ExecPMF(ti, ni, ps), mod.LatticeStep())
					if got.Mean != want.Mean() || got.Min != want.Min() || got.Lat.Len() != want.Len() {
						t.Fatalf("(%d,%d,%v): table entry differs from ToLattice of the pmf", ti, ni, ps)
					}
				}
			}
			for j, ni := range nodes {
				if sub.ExecLattice(ti, j, ps) != m.ExecLattice(ti, ni, ps) {
					t.Fatalf("(%d,%d,%v): slice re-snapped its parent's row", ti, ni, ps)
				}
			}
		}
	}
}

func TestPaperParamsValues(t *testing.T) {
	p := PaperParams()
	if p.TaskTypes != 100 || p.WindowSize != 1000 || p.BurstLen != 200 {
		t.Fatalf("paper workload size drifted: %+v", p)
	}
	if p.FastRate != 1.0/8 || p.SlowRate != 1.0/48 {
		t.Fatalf("paper rates drifted: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	phases := p.Phases()
	if len(phases) != 3 || phases[0].Count != 200 || phases[1].Count != 600 || phases[2].Count != 200 {
		t.Fatalf("phases wrong: %+v", phases)
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.TaskTypes = 0 },
		func(p *Params) { p.WindowSize = 0 },
		func(p *Params) { p.ExecCV = 0 },
		func(p *Params) { p.PMFBins = 0 },
		func(p *Params) { p.PMFSamples = 1 },
		func(p *Params) { p.CalibrateRates = false; p.FastRate = 0 },
		func(p *Params) { p.CalibrateRates = false; p.SlowRate = -1 },
		func(p *Params) { p.FastFactor = 0 },
		func(p *Params) { p.SlowFactor = -1 },
		func(p *Params) { p.BurstLen = 600 }, // 2·600 > 1000
		func(p *Params) { p.LoadFactorMult = -1 },
		func(p *Params) { p.CVB.TaskMean = 0 },
	}
	for i, mut := range bad {
		p := PaperParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestBuildModelTable(t *testing.T) {
	m := buildTestModel(t, 1)
	c := m.Cluster
	for ti := 0; ti < m.Params.TaskTypes; ti++ {
		for ni := 0; ni < c.N(); ni++ {
			base := m.ExecPMF(ti, ni, cluster.P0)
			if err := base.Validate(); err != nil {
				t.Fatalf("pmf (%d,%d,P0): %v", ti, ni, err)
			}
			if base.Len() > m.Params.PMFBins {
				t.Fatalf("pmf (%d,%d,P0) has %d impulses, cap %d", ti, ni, base.Len(), m.Params.PMFBins)
			}
			for _, st := range cluster.AllPStates() {
				p := m.ExecPMF(ti, ni, st)
				wantMean := base.Mean() * c.Nodes[ni].TimeMult(st)
				if math.Abs(p.Mean()-wantMean) > 1e-6*wantMean {
					t.Fatalf("pmf (%d,%d,%v) mean %v, want %v", ti, ni, st, p.Mean(), wantMean)
				}
				if p.Min() <= 0 {
					t.Fatalf("pmf (%d,%d,%v) has non-positive support %v", ti, ni, st, p.Min())
				}
			}
		}
	}
}

func TestBuildModelDeterministic(t *testing.T) {
	a := buildTestModel(t, 7)
	b := buildTestModel(t, 7)
	if a.TAvg() != b.TAvg() {
		t.Fatal("model build not deterministic")
	}
	pa := a.ExecPMF(3, 2, cluster.P2)
	pb := b.ExecPMF(3, 2, cluster.P2)
	if !pa.ApproxEqual(pb, 0) {
		t.Fatal("pmf tables differ across identical seeds")
	}
}

func TestModelMeansConsistent(t *testing.T) {
	m := buildTestModel(t, 2)
	// TAvg must equal the average of per-type means, and each per-type mean
	// the average of the pmf means across nodes and P-states.
	sum := 0.0
	for ti := 0; ti < m.Params.TaskTypes; ti++ {
		typeSum := 0.0
		for ni := 0; ni < m.Cluster.N(); ni++ {
			for _, st := range cluster.AllPStates() {
				typeSum += m.ExecPMF(ti, ni, st).Mean()
			}
		}
		want := typeSum / float64(m.Cluster.N()*cluster.NumPStates)
		if math.Abs(m.TypeMeanExec(ti)-want) > 1e-9*want {
			t.Fatalf("type %d mean %v, want %v", ti, m.TypeMeanExec(ti), want)
		}
		sum += want
	}
	want := sum / float64(m.Params.TaskTypes)
	if math.Abs(m.TAvg()-want) > 1e-9*want {
		t.Fatalf("TAvg %v, want %v", m.TAvg(), want)
	}
}

func TestTAvgMagnitude(t *testing.T) {
	// With μ_task=750 and 15–25% P-state steps, t_avg should land roughly
	// in the paper's regime (≈1.4–1.9× the P0 mean).
	m := buildTestModel(t, 3)
	if m.TAvg() < 800 || m.TAvg() > 1800 {
		t.Fatalf("TAvg %v outside plausible range for paper parameters", m.TAvg())
	}
}

func TestDefaultEnergyBudget(t *testing.T) {
	m := buildTestModel(t, 4)
	want := m.TAvg() * m.Cluster.AvgPower() * float64(m.Params.WindowSize)
	if math.Abs(m.DefaultEnergyBudget()-want) > 1e-9*want {
		t.Fatalf("budget %v, want %v", m.DefaultEnergyBudget(), want)
	}
}

func TestGenerateTrial(t *testing.T) {
	m := buildTestModel(t, 5)
	tr, err := GenerateTrial(randx.NewStream(100), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tasks) != m.Params.WindowSize {
		t.Fatalf("trial has %d tasks, want %d", len(tr.Tasks), m.Params.WindowSize)
	}
	lf := m.Params.LoadFactorMult * m.TAvg()
	for i, task := range tr.Tasks {
		if task.ID != i {
			t.Fatalf("task %d has ID %d", i, task.ID)
		}
		if task.Type < 0 || task.Type >= m.Params.TaskTypes {
			t.Fatalf("task %d type %d out of range", i, task.Type)
		}
		if i > 0 && task.Arrival <= tr.Tasks[i-1].Arrival {
			t.Fatalf("arrivals not increasing at %d", i)
		}
		wantDL := task.Arrival + m.TypeMeanExec(task.Type) + lf
		if math.Abs(task.Deadline-wantDL) > 1e-9 {
			t.Fatalf("task %d deadline %v, want %v", i, task.Deadline, wantDL)
		}
		if task.U <= 0 || task.U >= 1 {
			t.Fatalf("task %d quantile %v outside (0,1)", i, task.U)
		}
		if task.Priority != 1 {
			t.Fatalf("task %d priority %v, want 1", i, task.Priority)
		}
	}
}

func TestGenerateTrialDeterministicAndVarying(t *testing.T) {
	m := buildTestModel(t, 6)
	a, _ := GenerateTrial(randx.NewStream(9), m)
	b, _ := GenerateTrial(randx.NewStream(9), m)
	for i := range a.Tasks {
		if a.Tasks[i] != b.Tasks[i] {
			t.Fatal("trial generation not deterministic")
		}
	}
	c, _ := GenerateTrial(randx.NewStream(10), m)
	same := true
	for i := range a.Tasks {
		if a.Tasks[i] != c.Tasks[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical trials")
	}
}

func TestActualExecTime(t *testing.T) {
	m := buildTestModel(t, 8)
	tr, _ := GenerateTrial(randx.NewStream(3), m)
	task := tr.Tasks[0]
	for ni := 0; ni < m.Cluster.N(); ni++ {
		t0 := m.ActualExecTime(task, ni, cluster.P0)
		t4 := m.ActualExecTime(task, ni, cluster.P4)
		if t0 <= 0 {
			t.Fatalf("non-positive exec time %v", t0)
		}
		// Same quantile at a slower P-state must take at least as long.
		if t4 < t0 {
			t.Fatalf("P4 time %v < P0 time %v for same quantile", t4, t0)
		}
		p := m.ExecPMF(task.Type, ni, cluster.P0)
		if t0 < p.Min() || t0 > p.Max() {
			t.Fatalf("actual time %v outside pmf support [%v,%v]", t0, p.Min(), p.Max())
		}
	}
}

func TestGenerateTrialWithPriorities(t *testing.T) {
	m := buildTestModel(t, 11)
	classes := []PriorityClass{
		{Weight: 4, Fraction: 0.25},
		{Weight: 1, Fraction: 0.75},
	}
	tr, err := GenerateTrialWithPriorities(randx.NewStream(5), m, classes)
	if err != nil {
		t.Fatal(err)
	}
	hi := 0
	for _, task := range tr.Tasks {
		switch task.Priority {
		case 4:
			hi++
		case 1:
		default:
			t.Fatalf("unexpected priority %v", task.Priority)
		}
	}
	if hi == 0 || hi == len(tr.Tasks) {
		t.Fatalf("degenerate priority split: %d high of %d", hi, len(tr.Tasks))
	}
	// Bad class mixes are rejected.
	if _, err := GenerateTrialWithPriorities(randx.NewStream(5), m, []PriorityClass{{Weight: 1, Fraction: 0.5}}); err == nil {
		t.Fatal("expected error for fractions not summing to 1")
	}
	if _, err := GenerateTrialWithPriorities(randx.NewStream(5), m, []PriorityClass{{Weight: 0, Fraction: 1}}); err == nil {
		t.Fatal("expected error for zero weight")
	}
	// Empty class list leaves priorities at 1.
	tr2, err := GenerateTrialWithPriorities(randx.NewStream(5), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tr2.Tasks {
		if task.Priority != 1 {
			t.Fatal("nil classes should leave priority 1")
		}
	}
}

func TestTaskString(t *testing.T) {
	task := Task{ID: 3, Type: 9, Arrival: 1.5, Deadline: 100}
	if task.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestBuildModelRejectsBadInput(t *testing.T) {
	s := randx.NewStream(1)
	c, _ := cluster.Generate(s.Child("c"), cluster.PaperGenParams())
	p := testParams()
	p.TaskTypes = 0
	if _, err := BuildModel(s, c, p); err == nil {
		t.Fatal("expected error for bad params")
	}
	if _, err := BuildModel(s, &cluster.Cluster{}, testParams()); err == nil {
		t.Fatal("expected error for invalid cluster")
	}
}
