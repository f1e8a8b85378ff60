package robustness

import (
	"math"
	"os"
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/pmf"
	"repro/internal/randx"
)

// assertBitIdentical fails unless got and want have exactly the same
// impulses — same length, same values, same probabilities, bit for bit.
func assertBitIdentical(t *testing.T, step int, got, want pmf.PMF) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("step %d: support size %d, want %d", step, got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if got.Value(i) != want.Value(i) || got.Prob(i) != want.Prob(i) {
			t.Fatalf("step %d impulse %d: (%v, %v), want (%v, %v)",
				step, i, got.Value(i), got.Prob(i), want.Value(i), want.Prob(i))
		}
	}
}

// propSteps returns the mutation budget for the property test; verify.sh
// tier 2 raises it via FREETIME_PROP_STEPS.
func propSteps(t *testing.T, def int) int {
	if s := os.Getenv("FREETIME_PROP_STEPS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad FREETIME_PROP_STEPS %q: %v", s, err)
		}
		return n
	}
	return def
}

// TestExactRhoParity bounds the divergence between the paper's compacted
// completion-PMF pipeline and the exact double-sum oracle: both are
// estimates of the same P(free + exec <= deadline); they may differ only
// by the compaction's support distortion.
func TestExactRhoParity(t *testing.T) {
	m := buildModel(t, 12)
	def := NewCalculator(m)
	ex := NewCalculator(m)
	ex.SetExactRho(true)
	if !ex.ExactRho() || def.ExactRho() {
		t.Fatal("ExactRho flag not plumbed")
	}
	rng := randx.NewStream(42)
	tavg := m.TAvg()
	types := m.Params.TaskTypes
	worst := 0.0
	for trial := 0; trial < 300; trial++ {
		node := rng.IntN(m.Cluster.N())
		depth := rng.IntN(4)
		now := tavg * rng.Float64()
		q := CoreQueue{Node: node}
		for i := 0; i < depth; i++ {
			qt := QueuedTask{
				Type:     rng.IntN(types),
				PState:   cluster.PState(rng.IntN(cluster.NumPStates)),
				Deadline: 1e18,
			}
			if i == 0 && rng.IntN(2) == 0 {
				qt.Started = true
				qt.StartAt = now * rng.Float64()
			}
			q.Tasks = append(q.Tasks, qt)
		}
		free := def.FreeTime(q, now)
		ty := rng.IntN(types)
		ps := cluster.PState(rng.IntN(cluster.NumPStates))
		eet := m.ExecPMF(ty, node, ps).Mean()
		// Deadlines swept across the interesting range: hopeless to safe.
		deadline := free.Mean() + eet*(4*rng.Float64()-1)
		pd := def.ProbOnTime(free, ty, node, ps, deadline)
		pe := ex.ProbOnTime(free, ty, node, ps, deadline)
		if pe < 0 || pe > 1 {
			t.Fatalf("trial %d: exact ρ %v out of [0,1]", trial, pe)
		}
		if d := math.Abs(pd - pe); d > worst {
			worst = d
		}
	}
	// The divergence is pure compaction error; empirically it stays well
	// under this bound across seeds.
	if worst > 0.05 {
		t.Fatalf("default vs exact ρ diverged by %v, want <= 0.05", worst)
	}
	t.Logf("max |default - exact| ρ divergence: %v", worst)
}

// TestExactRhoTightCaseMatches: when the completion support is small
// enough that no compaction happens, the two pipelines compute the same
// sum up to floating-point association.
func TestExactRhoTightCaseMatches(t *testing.T) {
	free, err := pmf.New([]float64{10, 12, 15}, []float64{0.2, 0.5, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	m := buildModel(t, 13)
	def := NewCalculator(m)
	ex := NewCalculator(m)
	ex.SetExactRho(true)
	exec := m.ExecPMF(0, 0, cluster.P0)
	if free.Len()*exec.Len() > pmf.DefaultMaxImpulses {
		t.Skipf("support product %d too large for the uncompacted case", free.Len()*exec.Len())
	}
	deadline := 10 + exec.Mean()
	pd := def.ProbOnTime(free, 0, 0, cluster.P0, deadline)
	pe := ex.ProbOnTime(free, 0, 0, cluster.P0, deadline)
	if math.Abs(pd-pe) > 1e-9 {
		t.Fatalf("uncompacted case: default %v vs exact %v", pd, pe)
	}
}
