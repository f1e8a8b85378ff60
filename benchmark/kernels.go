package main

import (
	"bytes"
	"math"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/experiment"
	"repro/internal/pmf"
	"repro/internal/randx"
	"repro/internal/robustness"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/workload"
)

// sink keeps kernel results alive so the compiler cannot drop the calls.
var sink float64

// kernelLoops runs the kernel loops; scale shrinks every loop for runs
// shorter than the reference -seconds (the smoke tests) and is 1 at the
// reference length.
type kernelLoops struct{ scale float64 }

func newKernelLoops(seconds float64) kernelLoops {
	return kernelLoops{scale: math.Min(1, seconds/defaultSeconds)}
}

// ns times fn in `reps` batches of `iters` calls and returns the median
// batch's ns per call — the per-layer rows are medians for the same reason
// the end-to-end ones are.
func (k kernelLoops) ns(reps, iters int, fn func(i int)) float64 {
	iters = max(20, int(float64(iters)*k.scale))
	per := make([]float64, reps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn(i)
		}
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	}
	return median(per)
}

// modelLayerMetrics times the two set-up layers by direct calls with
// Build's own child streams.
func modelLayerMetrics(res *result, spec experiment.Spec) error {
	const reps = 3
	gen := make([]float64, reps)
	build := make([]float64, reps)
	for i := 0; i < reps; i++ {
		root := randx.NewStream(spec.Seed)
		t0 := time.Now()
		c, err := cluster.Generate(root.Child("cluster"), spec.ClusterGen)
		if err != nil {
			return err
		}
		gen[i] = float64(time.Since(t0)) / float64(time.Millisecond)
		t0 = time.Now()
		if _, err := workload.BuildModel(root.Child("model"), c, spec.Workload); err != nil {
			return err
		}
		build[i] = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	res.set("cluster.generate_ms", median(gen), reps)
	res.set("workload.build_model_ms", median(build), reps)
	return nil
}

// steadyView is a SystemView with populated, stable core queues (depth 1–3,
// heads running): the shape BuildCandidates sees mid-window.
type steadyView struct {
	cores  []cluster.CoreID
	queues []robustness.CoreQueue
}

func newSteadyView(m *workload.Model) *steadyView {
	v := &steadyView{cores: m.Cluster.Cores()}
	v.queues = make([]robustness.CoreQueue, len(v.cores))
	for i, id := range v.cores {
		q := robustness.CoreQueue{Node: id.Node}
		for d := 0; d < 1+i%3; d++ {
			qt := robustness.QueuedTask{
				Type:     (i + d) % m.Params.TaskTypes,
				PState:   cluster.PState((i + d) % cluster.NumPStates),
				Deadline: 1e9,
			}
			if d == 0 {
				qt.Started = true
			}
			q.Tasks = append(q.Tasks, qt)
		}
		v.queues[i] = q
	}
	return v
}

func (v *steadyView) NumCores() int                    { return len(v.cores) }
func (v *steadyView) CoreID(i int) cluster.CoreID      { return v.cores[i] }
func (v *steadyView) Queue(i int) robustness.CoreQueue { return v.queues[i] }

// kernelMetrics runs the kernel loops of every layer the workload
// exercises. The loops use the paper model itself, the grid free-time engine
// and a sched.Arena — the path both engines take.
func kernelMetrics(res *result, m *workload.Model, cfg runConfig) error {
	const reps = 5
	w := cfg.workload
	usesRho := w != wSimFloor

	res.set("host.nproc", float64(runtime.NumCPU()), 1)
	k := newKernelLoops(cfg.seconds)
	sleeps := max(10, int(200*k.scale))
	res.set("host.timer_overshoot_us", probeTimerOvershoot(sleeps), sleeps)

	calc := robustness.NewCalculator(m)
	view := newSteadyView(m)
	now := 100.0
	decide := func(mapper *sched.Mapper) float64 {
		ft := robustness.NewFreeTimeEngine(calc, view.NumCores())
		ft.SetGrid(true)
		arena := sched.NewArena()
		rng := randx.NewStream(7)
		task := workload.Task{Type: 3, Arrival: now, Deadline: now + 2.5*m.TAvg(), U: 0.5, Priority: 1}
		one := func(int) {
			ctx := &sched.Context{
				Now: now, Task: task, Model: m, Calc: calc,
				EnergyLeft: m.DefaultEnergyBudget(), TasksLeft: 500, AvgQueueDepth: 1.8, Rand: rng,
				FreeTimes: ft, Arena: arena,
			}
			if c := mapper.Map(ctx, sched.BuildCandidates(ctx, view)); c != nil {
				sink += c.EET
			}
		}
		one(0) // fill the per-core chains: the steady state is warm
		return k.ns(reps, 2000, one) / 1000
	}
	res.set("sched.decide_none_us",
		decide(&sched.Mapper{Heuristic: sched.MinExpectedCompletionTime{}, Filters: sched.NoFilter.Filters()}), reps)

	meter, err := energy.NewMeter(m.Cluster, cluster.P4, math.Inf(1), false)
	if err != nil {
		return err
	}
	nc := m.Cluster.TotalCores()
	tick := 0
	res.set("energy.meter_op_ns", k.ns(reps, 200000, func(int) {
		tick++
		meter.Advance(float64(tick))
		meter.SetPState(tick%nc, cluster.PState(tick%cluster.NumPStates))
	}), reps)

	if !usesRho {
		return nil
	}
	res.set("sched.decide_en_rob_us",
		decide(&sched.Mapper{Heuristic: sched.LightestLoad{}, Filters: sched.EnergyAndRobustness.Filters()}), reps)

	// robustness: one core with a depth-3 queue, grid mode.
	ft := robustness.NewFreeTimeEngine(calc, 1)
	ft.SetGrid(true)
	head := m.ExecPMF(0, 0, cluster.P1)
	at := head.Value(head.Len() / 4) // inside the running head's support
	q3 := robustness.CoreQueue{Node: 0, Tasks: []robustness.QueuedTask{
		{Type: 0, PState: cluster.P1, Deadline: 1e9, Started: true},
		{Type: 1, PState: cluster.P2, Deadline: 1e9},
		{Type: 2, PState: cluster.P0, Deadline: 1e9},
	}}
	q4 := robustness.CoreQueue{Node: 0, Tasks: append(append([]robustness.QueuedTask(nil), q3.Tasks...),
		robustness.QueuedTask{Type: 3, PState: cluster.P1, Deadline: 1e9})}
	deadline := at + 3*m.TAvg()
	ft.FreeTime(0, q3, at)
	res.set("robustness.rho_query_ns", k.ns(reps, 50000, func(int) {
		sink += ft.ProbOnTime(0, q3, at, 3, cluster.P1, deadline, nil)
	}), reps)
	rebuild := k.ns(reps, 2000, func(int) {
		ft.Invalidate(0)
		sink += ft.FreeTime(0, q3, at).Mean()
	})
	res.set("robustness.chain_rebuild_us", rebuild/1000, reps)
	// OnEnqueue cannot be called twice on one state, so the extend cost is
	// the rebuild→enqueue→query cycle minus the rebuild measured above.
	cycle := k.ns(reps, 2000, func(int) {
		ft.Invalidate(0)
		sink += ft.FreeTime(0, q3, at).Mean()
		ft.OnEnqueue(0, 0, 3, cluster.P1, len(q4.Tasks))
		sink += ft.ProbOnTime(0, q4, at, 3, cluster.P1, deadline, nil)
	})
	res.set("robustness.chain_extend_us", math.Max(cycle-rebuild, 0)/1000, reps)

	// pmf: the two kernels behind every grid-mode ρ, on the model's own
	// execution PMFs at the production lattice step.
	step := calc.GridStep()
	h := pmf.ToLattice(m.ExecPMF(0, 0, cluster.P1), step)
	e := pmf.ToLattice(m.ExecPMF(3, 0, cluster.P1), step)
	tail := pmf.IdentityGrid(step)
	for k := 1; k <= 3; k++ {
		tail = tail.ConvolveLattice(pmf.ToLattice(m.ExecPMF(k, 0, cluster.P2), step))
	}
	x := tail.Mean() + h.Mean() + e.Mean()
	res.set("pmf.triple_conv_cdf_ns", k.ns(reps, 20000, func(int) {
		sink += pmf.TripleConvCDF(&h, &tail, &e, x)
	}), reps)
	var scratch pmf.GridScratch
	res.set("pmf.conv_lattice_ns", k.ns(reps, 20000, func(int) {
		sink += float64(tail.ConvolveLatticeInto(e, &scratch).Len())
	}), reps)
	return nil
}

// decodeKernel times server.DecodeTask over the real request bodies.
func decodeKernel(k kernelLoops, bodies [][]byte, types int) float64 {
	n := min(len(bodies), 5000)
	var rd bytes.Reader
	return k.ns(5, n, func(i int) {
		rd.Reset(bodies[i])
		req, err := server.DecodeTask(&rd, types)
		if err != nil {
			panic("benchmark: own request body does not decode: " + err.Error())
		}
		sink += float64(req.Type)
	})
}
