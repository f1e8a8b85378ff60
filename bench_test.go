package repro

// Reduced-scale benchmarks of the ablation and extension studies (scale up
// with cmd/ecfig for the real numbers), plus micro-benchmarks of the
// simulator's hot paths. The paper figures and the §VII table are not timed
// here — a repeat Env.Figure call is a memo hit — their medians are pinned
// by golden_test.go instead.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/pmf"
	"repro/internal/randx"
	"repro/internal/robustness"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchSpec is the reduced-scale experiment used by the study benches and
// the golden test: the paper's cluster and parameter structure with 3
// trials of 300 tasks.
func benchSpec() experiment.Spec {
	s := experiment.PaperSpec()
	s.Trials = 3
	s.Workload.WindowSize = 300
	s.Workload.BurstLen = 60
	return s
}

var (
	benchEnvOnce sync.Once
	benchEnv     *experiment.Env
	benchEnvErr  error
)

func sharedEnv(b *testing.B) *experiment.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = experiment.Build(benchSpec())
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

// BenchmarkAblationZetaMul sweeps fixed ζ_mul values against the adaptive
// schedule (design-choice ablation from §V-F).
func BenchmarkAblationZetaMul(b *testing.B) {
	env := sharedEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.AblateZetaMul(sched.ShortestQueue{}, []float64{0.8, 1.0, 1.2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRhoThresh sweeps the robustness threshold ρ_thresh.
func BenchmarkAblationRhoThresh(b *testing.B) {
	env := sharedEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.AblateRhoThresh(sched.LightestLoad{}, []float64{0.25, 0.5, 0.75}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBudget sweeps the energy budget scale.
func BenchmarkAblationBudget(b *testing.B) {
	env := sharedEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.AblateBudget(sched.LightestLoad{}, []float64{0.75, 1.0, 1.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationArrivals runs the §VIII arrival-pattern study.
func BenchmarkAblationArrivals(b *testing.B) {
	spec := benchSpec()
	spec.Trials = 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblateArrivals(spec, sched.ShortestQueue{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPriority runs the §VIII priority extension study.
func BenchmarkAblationPriority(b *testing.B) {
	env := sharedEnv(b)
	classes := []workload.PriorityClass{{Weight: 4, Fraction: 0.25}, {Weight: 1, Fraction: 0.75}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.PriorityStudy(classes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLLTieBreak quantifies the design decision documented in
// sched.LightestLoad: the paper-faithful first-candidate tie-break versus
// the min-EEC repair (GreenLL), which finishes far more of the window.
func BenchmarkAblationLLTieBreak(b *testing.B) {
	env := sharedEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	var paper, green float64
	for i := 0; i < b.N; i++ {
		p, err := env.RunVariant(sched.LightestLoad{}, sched.NoFilter)
		if err != nil {
			b.Fatal(err)
		}
		g, err := env.RunVariant(sched.GreenLightestLoad{}, sched.NoFilter)
		if err != nil {
			b.Fatal(err)
		}
		paper, green = p.Summary.Median, g.Summary.Median
	}
	b.ReportMetric(paper, "LL_med_missed")
	b.ReportMetric(green, "GreenLL_med_missed")
}

// BenchmarkAblationParking runs the §VIII power-gating study.
func BenchmarkAblationParking(b *testing.B) {
	env := sharedEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.ParkingStudy(sched.ShortestQueue{}, []float64{0.25, 1.0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPowerNoise runs the §VIII stochastic-power study.
func BenchmarkAblationPowerNoise(b *testing.B) {
	env := sharedEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.PowerNoiseStudy(sched.ShortestQueue{}, []float64{0.25}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCancellation runs the §VIII cancel/reschedule study.
func BenchmarkAblationCancellation(b *testing.B) {
	env := sharedEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.CancellationStudy(sched.ShortestQueue{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the hot paths ---

func microModel(b *testing.B) *workload.Model {
	b.Helper()
	s := randx.NewStream(42)
	c, err := cluster.Generate(s.Child("cluster"), cluster.PaperGenParams())
	if err != nil {
		b.Fatal(err)
	}
	p := workload.PaperParams()
	p.TaskTypes = 20
	p.WindowSize = 200
	p.BurstLen = 40
	p.PMFSamples = 1000
	m, err := workload.BuildModel(s.Child("wl"), c, p)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// mkBenchPMF builds an n-impulse pmf with impulses spaced scale apart.
func mkBenchPMF(n int, scale float64) pmf.PMF {
	vals := make([]float64, n)
	probs := make([]float64, n)
	for i := range vals {
		vals[i] = scale * float64(i+1)
		probs[i] = float64(1 + i%7)
	}
	return pmf.MustNew(vals, probs)
}

// BenchmarkConvolve measures the sparse pmf convolution at
// scheduler-typical operand sizes (a 64-impulse free-time distribution × a
// 24-impulse execution pmf). The sort-merge-compact stage sorts paired
// impulses with slices.SortFunc (one pdqsort over 16-byte elements instead
// of an index permutation with two indirections per comparison), worth
// ~1-2% at this shape and two fewer scratch slices in the pool.
func BenchmarkConvolve(b *testing.B) {
	free := mkBenchPMF(64, 13.7)
	exec := mkBenchPMF(24, 31.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pmf.Convolve(free, exec)
	}
}

// BenchmarkGridConvolve measures the fixed-grid kernels that replace the
// sparse pipeline on the scheduler's hot path.
//
//   - lattice: Grid⊛Lattice axpy fold at tail-extension shape (dense
//     accumulator × 24-impulse operand) — the OnEnqueue extend cost.
//   - dispatch/sizeN: dense Grid⊛Grid products at increasing support;
//     Convolve picks direct or FFT per the crossover rule, and the
//     fft_frac metric reports which side of the boundary each size landed
//     on — re-run after hardware changes to recalibrate fftCostFactor.
func BenchmarkGridConvolve(b *testing.B) {
	const step = 13.7
	exec := pmf.ToLattice(mkBenchPMF(24, step), step)
	b.Run("lattice", func(b *testing.B) {
		w := pmf.IdentityGrid(step)
		for k := 0; k < 3; k++ {
			w = w.ConvolveLattice(exec)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = w.ConvolveLattice(exec)
		}
	})
	for _, n := range []int{64, 256, 1024, 4096} {
		n := n
		b.Run(fmt.Sprintf("dispatch/size%d", n), func(b *testing.B) {
			ga := pmf.ToGrid(mkBenchPMF(n, step), step)
			gb := pmf.ToGrid(mkBenchPMF(n/2, step), step)
			b.ReportAllocs()
			before := pmf.ReadOpCounts()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = ga.Convolve(gb)
			}
			b.StopTimer()
			d := pmf.ReadOpCounts().Sub(before)
			b.ReportMetric(float64(d.FFTConvolutions)/float64(d.GridConvolutions), "fft_frac")
		})
	}
}

// BenchmarkTripleConvCDF measures one grid-mode ρ evaluation: the
// prefix-sum double loop over head × candidate impulses against the cached
// waiting-tail grid, with nothing materialized. This is the kernel behind
// every admission decision in grid mode.
func BenchmarkTripleConvCDF(b *testing.B) {
	const step = 13.7
	h := pmf.ToLattice(mkBenchPMF(24, step), step)
	e := pmf.ToLattice(mkBenchPMF(24, step), step)
	w := pmf.IdentityGrid(step)
	for k := 0; k < 3; k++ {
		w = w.ConvolveLattice(h)
	}
	x := w.Mean() + h.Mean() + e.Mean()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pmf.TripleConvCDF(&h, &w, &e, x)
	}
}

// BenchmarkRho measures one ρ(i,j,k,π,t_l,z) evaluation: free-time of a
// 3-deep queue plus the candidate convolution and CDF.
func BenchmarkRho(b *testing.B) {
	m := microModel(b)
	calc := robustness.NewCalculator(m)
	q := robustness.CoreQueue{Node: 0, Tasks: []robustness.QueuedTask{
		{Type: 0, PState: cluster.P1, Deadline: 5000, Started: true, StartAt: 0},
		{Type: 1, PState: cluster.P2, Deadline: 6000},
		{Type: 2, PState: cluster.P0, Deadline: 7000},
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		free := calc.FreeTime(q, 500)
		_ = calc.ProbOnTime(free, 3, 0, cluster.P1, 6500)
	}
}

// BenchmarkDecision measures one full immediate-mode mapping decision for
// the most expensive configuration (LL+en+rob: candidate enumeration, both
// filters, ρ for every surviving candidate) on the path sim and server
// take: the free-time engine plus a per-decision arena.
func BenchmarkDecision(b *testing.B) {
	m := microModel(b)
	calc := robustness.NewCalculator(m)
	view := benchView{c: m.Cluster}
	ft := robustness.NewFreeTimeEngine(calc, view.NumCores())
	arena := sched.NewArena()
	mapper := &sched.Mapper{Heuristic: sched.LightestLoad{}, Filters: sched.EnergyAndRobustness.Filters()}
	task := workload.Task{ID: 0, Type: 3, Arrival: 100, Deadline: 100 + 2.5*m.TAvg(), U: 0.5, Priority: 1}
	rng := randx.NewStream(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := &sched.Context{
			Now: 100, Task: task, Model: m, Calc: calc,
			EnergyLeft: m.DefaultEnergyBudget(), TasksLeft: 500, AvgQueueDepth: 0.9, Rand: rng,
			FreeTimes: ft, Arena: arena,
		}
		cands := sched.BuildCandidates(ctx, view)
		_ = mapper.Map(ctx, cands)
	}
}

// benchView is an idle-cluster SystemView.
type benchView struct{ c *cluster.Cluster }

func (v benchView) NumCores() int               { return v.c.TotalCores() }
func (v benchView) CoreID(i int) cluster.CoreID { return v.c.Cores()[i] }
func (v benchView) Queue(i int) robustness.CoreQueue {
	return robustness.CoreQueue{Node: v.c.Cores()[i].Node}
}

// BenchmarkTrial measures one full simulated trial (200 tasks) for a cheap
// heuristic and for the convolution-heavy one.
func BenchmarkTrial(b *testing.B) {
	m := microModel(b)
	tr, err := workload.GenerateTrial(randx.NewStream(3), m)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name   string
		mapper *sched.Mapper
	}{
		{"MECT_none", &sched.Mapper{Heuristic: sched.MinExpectedCompletionTime{}}},
		{"LL_en_rob", &sched.Mapper{Heuristic: sched.LightestLoad{}, Filters: sched.EnergyAndRobustness.Filters()}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := sim.Config{Model: m, Mapper: c.mapper, EnergyBudget: math.Inf(1)}
			b.ReportAllocs()
			before := pmf.ReadOpCounts()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(cfg, tr, randx.NewStream(9)); err != nil {
					b.Fatal(err)
				}
			}
			d := pmf.ReadOpCounts().Sub(before)
			b.ReportMetric(float64(d.Convolutions)/float64(b.N), "conv/trial")
			b.ReportMetric(float64(d.GridConvolutions)/float64(b.N), "gridconv/trial")
		})
	}
}

// BenchmarkModelBuild measures workload model construction (CVB + pmf
// table generation), the per-experiment fixed cost.
func BenchmarkModelBuild(b *testing.B) {
	s := randx.NewStream(42)
	c, err := cluster.Generate(s.Child("cluster"), cluster.PaperGenParams())
	if err != nil {
		b.Fatal(err)
	}
	p := workload.PaperParams()
	p.TaskTypes = 20
	p.PMFSamples = 1000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.BuildModel(s.Child("wl"), c, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrialFaults measures the fault machinery's cost on the same
// trial as BenchmarkTrial. The "off" case runs with the zero-valued
// fault.Spec — the default every paper figure uses — and should be
// indistinguishable from BenchmarkTrial/MECT_none, demonstrating the
// disabled path adds no per-event work. "on" injects aggressive transient
// faults with requeue recovery plus the staged brownout, bounding the cost
// of full resilience mode.
func BenchmarkTrialFaults(b *testing.B) {
	m := microModel(b)
	tr, err := workload.GenerateTrial(randx.NewStream(3), m)
	if err != nil {
		b.Fatal(err)
	}
	newMapper := func() *sched.Mapper {
		return &sched.Mapper{Heuristic: sched.MinExpectedCompletionTime{}}
	}
	b.Run("off", func(b *testing.B) {
		cfg := sim.Config{Model: m, Mapper: newMapper(), EnergyBudget: math.Inf(1)}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(cfg, tr, randx.NewStream(9)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		cfg := sim.Config{
			Model: m, Mapper: newMapper(),
			EnergyBudget: 0.8 * m.DefaultEnergyBudget(),
			Faults: fault.Spec{
				Transient:  fault.Process{Enabled: true, MTBF: 2 * m.TAvg()},
				RepairTime: 0.3 * m.TAvg(),
				Recovery:   fault.Recovery{Mode: fault.Requeue, MaxRetries: 2, Backoff: 0.05 * m.TAvg(), DeadlineAware: true},
			},
			Brownout: energy.DefaultBrownoutStages(),
		}
		b.ReportAllocs()
		var faults int
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(cfg, tr, randx.NewStream(9))
			if err != nil {
				b.Fatal(err)
			}
			faults = res.Faults
		}
		b.ReportMetric(float64(faults), "faults")
	})
}

// BenchmarkAblationMTBF runs the §VIII fault-rate study.
func BenchmarkAblationMTBF(b *testing.B) {
	env := sharedEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.MTBFStudy(sched.LightestLoad{}, []float64{8, 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBrownout runs the §VIII degradation-policy study.
func BenchmarkAblationBrownout(b *testing.B) {
	env := sharedEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.BrownoutStudy(sched.LightestLoad{}, []float64{0.7, 1.0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFreeTimeCached measures the free-time engine's materialized
// chain on its paths: a hit returns the cached chain with zero
// convolutions, a miss refolds the waiting tail and the head after an
// invalidation, a rebuild re-derives the tail⊛head product because the
// running head's truncation cut drifted, and extend measures the full
// invalidate→rebuild→enqueue-extend→query cycle.
func BenchmarkFreeTimeCached(b *testing.B) {
	m := microModel(b)
	calc := robustness.NewCalculator(m)
	q := robustness.CoreQueue{Node: 0, Tasks: []robustness.QueuedTask{
		{Type: 0, PState: cluster.P1, Deadline: 5000, Started: true, StartAt: 0},
		{Type: 1, PState: cluster.P2, Deadline: 6000},
		{Type: 2, PState: cluster.P0, Deadline: 7000},
	}}
	now := 500.0
	b.Run("hit", func(b *testing.B) {
		eng := robustness.NewFreeTimeEngine(calc, 1)
		eng.FreeTime(0, q, now)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = eng.FreeTime(0, q, now)
		}
	})
	b.Run("miss", func(b *testing.B) {
		eng := robustness.NewFreeTimeEngine(calc, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Invalidate(0)
			_ = eng.FreeTime(0, q, now)
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		// Alternate between two instants with different truncation cuts in
		// the running head's support, so every query re-derives the chain.
		head := m.ExecPMF(0, 0, cluster.P1)
		nows := [2]float64{head.Value(head.Len() / 4), head.Value(head.Len() / 2)}
		eng := robustness.NewFreeTimeEngine(calc, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = eng.FreeTime(0, q, nows[i%2])
		}
	})
	b.Run("extend", func(b *testing.B) {
		q4 := robustness.CoreQueue{Node: 0, Tasks: append(append([]robustness.QueuedTask(nil), q.Tasks...),
			robustness.QueuedTask{Type: 3, PState: cluster.P1, Deadline: 8000})}
		eng := robustness.NewFreeTimeEngine(calc, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Invalidate(0)
			_ = eng.FreeTime(0, q, now)
			eng.OnEnqueue(0, 0, 3, cluster.P1, len(q4.Tasks))
			_ = eng.FreeTime(0, q4, now)
		}
	})
}

// busyView is a SystemView with populated, stable core queues (depth 1–3,
// heads running), the steady-state shape BuildCandidates sees mid-window.
type busyView struct {
	c      *cluster.Cluster
	queues []robustness.CoreQueue
}

func newBusyView(m *workload.Model) *busyView {
	v := &busyView{c: m.Cluster}
	cores := m.Cluster.Cores()
	v.queues = make([]robustness.CoreQueue, len(cores))
	for i, id := range cores {
		q := robustness.CoreQueue{Node: id.Node}
		depth := 1 + i%3
		for d := 0; d < depth; d++ {
			qt := robustness.QueuedTask{
				Type:     (i + d) % m.Params.TaskTypes,
				PState:   cluster.PState((i + d) % cluster.NumPStates),
				Deadline: 1e9,
			}
			if d == 0 {
				qt.Started = true
				qt.StartAt = 0
			}
			q.Tasks = append(q.Tasks, qt)
		}
		v.queues[i] = q
	}
	return v
}

func (v *busyView) NumCores() int                    { return v.c.TotalCores() }
func (v *busyView) CoreID(i int) cluster.CoreID      { return v.c.Cores()[i] }
func (v *busyView) Queue(i int) robustness.CoreQueue { return v.queues[i] }

// BenchmarkBuildCandidates measures candidate enumeration plus the full
// LL+en+rob filter chain over a busy cluster — the mapping hot path — on
// both ρ paths. "fresh" is the engine-less reference: every core's sparse
// chain derived per decision (what the exact-ρ oracle pays); "cached" is
// production: the engine's per-core lattice chains plus the arena, as the
// engines run between queue mutations.
func BenchmarkBuildCandidates(b *testing.B) {
	m := microModel(b)
	calc := robustness.NewCalculator(m)
	view := newBusyView(m)
	mapper := &sched.Mapper{Heuristic: sched.LightestLoad{}, Filters: sched.EnergyAndRobustness.Filters()}
	task := workload.Task{ID: 0, Type: 3, Arrival: 100, Deadline: 100 + 2.5*m.TAvg(), U: 0.5, Priority: 1}
	now := 100.0
	run := func(b *testing.B, ft *robustness.FreeTimeEngine, arena *sched.Arena) {
		rng := randx.NewStream(7)
		b.ReportAllocs()
		b.ResetTimer()
		before := pmf.ReadOpCounts()
		for i := 0; i < b.N; i++ {
			ctx := &sched.Context{
				Now: now, Task: task, Model: m, Calc: calc,
				EnergyLeft: m.DefaultEnergyBudget(), TasksLeft: 500, AvgQueueDepth: 1.8, Rand: rng,
				FreeTimes: ft, Arena: arena,
			}
			cands := sched.BuildCandidates(ctx, view)
			_ = mapper.Map(ctx, cands)
		}
		d := pmf.ReadOpCounts().Sub(before)
		b.ReportMetric(float64(d.Convolutions)/float64(b.N), "conv/decision")
	}
	b.Run("fresh", func(b *testing.B) { run(b, nil, nil) })
	b.Run("cached", func(b *testing.B) {
		run(b, robustness.NewFreeTimeEngine(calc, view.NumCores()), sched.NewArena())
	})
}

// BenchmarkServeAdmit measures the serving engine's full admission path —
// Submit, the four-stage pipeline, mapping, placement — against a manual
// clock advanced at the equilibrium arrival spacing so completions retire
// and core queues stay at steady-state depth rather than growing with b.N.
func BenchmarkServeAdmit(b *testing.B) {
	s := randx.NewStream(99)
	c, err := cluster.Generate(s.Child("cluster"), cluster.PaperGenParams())
	if err != nil {
		b.Fatal(err)
	}
	p := workload.PaperParams()
	p.TaskTypes = 10
	p.PMFSamples = 300
	m, err := workload.BuildModel(s.Child("wl"), c, p)
	if err != nil {
		b.Fatal(err)
	}
	clk := server.NewManualClock()
	eng, err := server.New(server.Config{
		Model:  m,
		Mapper: &sched.Mapper{Heuristic: sched.LightestLoad{}, Filters: sched.EnergyAndRobustness.Filters()},
		Clock:  clk,
		Seed:   7,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	dt := m.TAvg() / float64(m.Cluster.TotalCores())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Submit(server.TaskRequest{Type: i % p.TaskTypes}); err != nil {
			b.Fatal(err)
		}
		clk.Advance(dt)
	}
}

// BenchmarkServeAdmitWAL is BenchmarkServeAdmit with durability armed: every
// admission is logged to the write-ahead log and group-committed (fsync)
// before its decision returns. The acceptance bar for the durable path is
// staying under 2× the WAL-off admit figure — on this path each Submit pays
// one worst-case single-record commit, since the manual clock serializes the
// benchmark to one decision per group.
func BenchmarkServeAdmitWAL(b *testing.B) {
	s := randx.NewStream(99)
	c, err := cluster.Generate(s.Child("cluster"), cluster.PaperGenParams())
	if err != nil {
		b.Fatal(err)
	}
	p := workload.PaperParams()
	p.TaskTypes = 10
	p.PMFSamples = 300
	m, err := workload.BuildModel(s.Child("wl"), c, p)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	clk := server.NewManualClock()
	eng, err := server.New(server.Config{
		Model:          m,
		Mapper:         &sched.Mapper{Heuristic: sched.LightestLoad{}, Filters: sched.EnergyAndRobustness.Filters()},
		Clock:          clk,
		Seed:           7,
		WALPath:        dir + "/wal",
		CheckpointPath: dir + "/ckpt",
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	dt := m.TAvg() / float64(m.Cluster.TotalCores())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Submit(server.TaskRequest{Type: i % p.TaskTypes}); err != nil {
			b.Fatal(err)
		}
		clk.Advance(dt)
	}
}
