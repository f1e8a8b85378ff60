package sim

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/randx"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestRunAllocsFlatInTasks pins the event loop's allocation discipline:
// once a run is set up, simulating more tasks allocates (almost) nothing
// more — no queue snapshot copies, no event boxing, no per-decision
// context. The measure is the difference between a paper-cluster trial
// and its first half, per extra task, so set-up costs cancel.
//
// LL+en+rob is left out on purpose: the robustness filter's free-time
// engine builds a tail product per enqueue (OnEnqueue), about 1.5
// allocations per task, which belongs to the ρ path and not to the loop.
func TestRunAllocsFlatInTasks(t *testing.T) {
	s := randx.NewStream(17)
	c, err := cluster.Generate(s.Child("cluster"), cluster.PaperGenParams())
	if err != nil {
		t.Fatal(err)
	}
	p := workload.PaperParams()
	p.TaskTypes = 20
	p.PMFSamples = 500
	m, err := workload.BuildModel(s.Child("wl"), c, p)
	if err != nil {
		t.Fatal(err)
	}
	full, err := workload.GenerateTrial(randx.NewStream(5), m)
	if err != nil {
		t.Fatal(err)
	}
	half := &workload.Trial{Tasks: full.Tasks[:len(full.Tasks)/2]}
	extra := float64(len(full.Tasks) - len(half.Tasks))

	cases := []struct {
		name   string
		mapper *sched.Mapper
		budget float64
	}{
		{"MECT_none", mapperFor(sched.MinExpectedCompletionTime{}, sched.NoFilter), math.Inf(1)},
		{"SQ_en", mapperFor(sched.ShortestQueue{}, sched.EnergyOnly), m.DefaultEnergyBudget()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(tr *workload.Trial) float64 {
				cfg := Config{Model: m, Mapper: tc.mapper, EnergyBudget: tc.budget}
				return testing.AllocsPerRun(3, func() {
					if _, err := Run(cfg, tr, randx.NewStream(9)); err != nil {
						t.Fatal(err)
					}
				})
			}
			a, b := allocs(full), allocs(half)
			perTask := (a - b) / extra
			t.Logf("%.0f allocs for %d tasks, %.0f for %d: %.3f per extra task",
				a, len(full.Tasks), b, len(half.Tasks), perTask)
			if perTask > 0.25 {
				t.Fatalf("%.3f allocations per extra task, want <= 0.25", perTask)
			}
		})
	}
}
