package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/pmf"
	"repro/internal/randx"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	outDir   string
	// walRoot is where WAL scratch directories are made; empty means outDir.
	walRoot string
	// setups is how many times the sim_* set-up runs; setup_s is their
	// median. (serve_* sets up once per pass.)
	setups int
	// notes are copied into the result.
	notes []string
}

type simVariant struct {
	heuristic string
	filter    sched.FilterVariant
}

func (v simVariant) mapper() (*sched.Mapper, error) {
	h, err := experiment.HeuristicByName(v.heuristic)
	if err != nil {
		return nil, err
	}
	return &sched.Mapper{Heuristic: h, Filters: v.filter.Filters()}, nil
}

func (v simVariant) label() string { return v.heuristic + "+" + v.filter.String() }

// simPlan is the shape of a sim_* workload. The trial count scales with
// -seconds through a fixed reference rate — the inputs are a function of
// the flags, never of how fast this commit happens to run.
type simPlan struct {
	variants []simVariant
	passes   int
	trials   int
}

func planSim(workload string, seconds float64) simPlan {
	var p simPlan
	switch workload {
	case wSimRho:
		// ρ-dominated: every variant runs the robustness filter.
		for _, h := range []string{"SQ", "MECT", "LL", "Random"} {
			p.variants = append(p.variants, simVariant{h, sched.EnergyAndRobustness})
		}
		p.passes = 3
	case wSimFloor:
		// No heuristic or filter here touches ρ: the non-PMF floor.
		for _, f := range []sched.FilterVariant{sched.NoFilter, sched.EnergyOnly} {
			for _, h := range []string{"SQ", "MECT", "Random"} {
				p.variants = append(p.variants, simVariant{h, f})
			}
		}
		p.passes = 5
	}
	// Both shapes cost about 0.29 s per trial-of-every-variant-and-pass on
	// the reference host, so 3.4 trials per second of -seconds fills it.
	p.trials = max(1, int(math.Round(3.4*seconds)))
	return p
}

// genTrials makes the seeded inputs: the program receives task streams,
// never the seed.
func genTrials(seed uint64, n int, m *workload.Model) ([]*workload.Trial, []float64, error) {
	root := randx.NewStream(seed)
	trials := make([]*workload.Trial, n)
	ms := make([]float64, n)
	for i := range trials {
		t0 := time.Now()
		tr, err := workload.GenerateTrial(root.ChildN("trial", i), m)
		if err != nil {
			return nil, nil, err
		}
		ms[i] = float64(time.Since(t0)) / float64(time.Millisecond)
		trials[i] = tr
	}
	return trials, ms, nil
}

// passResult is one sweep of every variant over every trial.
type passResult struct {
	wall time.Duration
	// wallS[i] and cpuS[i] are variant i's run: the segments of the pass.
	wallS, cpuS []float64
	results     []*experiment.VariantResult
	errs        []error
}

func runSimPass(env *experiment.Env, mappers []*sched.Mapper, plan simPlan, trials []*workload.Trial, tr *tracer, parent int, pass int64) passResult {
	pr := passResult{
		wallS:   make([]float64, len(mappers)),
		cpuS:    make([]float64, len(mappers)),
		results: make([]*experiment.VariantResult, len(mappers)),
		errs:    make([]error, len(mappers)),
	}
	id := tr.start("bench.pass", parent, pass)
	t0 := time.Now()
	for i, m := range mappers {
		sp := tr.start("experiment.run_with_trials", id, pass)
		c0, v0 := cpuTime(), time.Now()
		pr.results[i], pr.errs[i] = env.RunWithTrials(m, trials, plan.variants[i].filter.String())
		pr.wallS[i], pr.cpuS[i] = time.Since(v0).Seconds(), (cpuTime() - c0).Seconds()
		tr.end(sp)
	}
	pr.wall = time.Since(t0)
	tr.end(id)
	return pr
}

// checkSimPass applies the per-variant invariants and, against the first
// pass, the reproduction check. It returns the number of trials that
// failed.
func checkSimPass(res *result, env *experiment.Env, plan simPlan, pr, first passResult, pass int) int64 {
	var failed int64
	window := float64(env.Model.Params.WindowSize)
	n := float64(plan.trials)
	for i, vr := range pr.results {
		label := plan.variants[i].label()
		if pr.errs[i] != nil {
			res.fail("pass %d %s: %v", pass, label, pr.errs[i])
			failed += int64(plan.trials)
			continue
		}
		missed := 0.0
		for _, m := range vr.Missed {
			missed += m
		}
		// Missed == Window − OnTime, summed over the variant's trials.
		if math.Abs(missed+vr.MeanOnTime*n-window*n) > 1e-6*window*n {
			res.fail("pass %d %s: missed %v + on-time %v != offered %v", pass, label, missed, vr.MeanOnTime*n, window*n)
			failed += int64(plan.trials)
		}
		if vr.MeanEnergy > env.Budget*(1+1e-9) {
			res.fail("pass %d %s: mean energy %v exceeds ζ_max %v", pass, label, vr.MeanEnergy, env.Budget)
			failed += int64(plan.trials)
		}
		ref := first.results[i]
		if ref == nil || pass == 1 {
			continue
		}
		diff := int64(0)
		for t := range vr.Missed {
			if vr.Missed[t] != ref.Missed[t] {
				diff++
			}
		}
		if diff == 0 && math.Float64bits(vr.MeanEnergy) != math.Float64bits(ref.MeanEnergy) {
			diff = 1
		}
		if diff > 0 {
			res.fail("pass %d %s: %d trial(s) differ from pass 1", pass, label, diff)
			failed += diff
		}
	}
	return failed
}

// checkBypass asserts what each sim workload promises about the PMF layers.
func checkBypass(res *result, workload string, ops pmf.OpCounts, snap *metrics.Snapshot) {
	res.check(ops.Convolutions == 0, "%d sparse convolutions in grid mode", ops.Convolutions)
	if workload != wSimFloor {
		return
	}
	res.check(ops.GridConvolutions == 0, "sim_floor ran %d lattice convolutions", ops.GridConvolutions)
	res.check(ops.GridRhoEvals == 0, "sim_floor ran %d grid ρ evaluations", ops.GridRhoEvals)
	rho := snap.SumByName("sched_rho_evaluations_total")
	res.check(rho == 0, "sim_floor ran %v ρ evaluations", rho)
}

func buildMappers(plan simPlan) ([]*sched.Mapper, error) {
	ms := make([]*sched.Mapper, len(plan.variants))
	for i, v := range plan.variants {
		m, err := v.mapper()
		if err != nil {
			return nil, err
		}
		ms[i] = m
	}
	return ms, nil
}

func simSpec() experiment.Spec {
	spec := experiment.PaperSpec()
	spec.Parallelism = workers()
	return spec
}

// runSim is the untraced run of sim_rho / sim_floor: set-up, then `passes`
// sweeps through Env.RunWithTrials — memo- and journal-free, on the worker
// pool RunVariant uses.
func runSim(cfg runConfig) (*result, error) {
	res := newResult(cfg.workload, cfg.seed, cfg.seconds, false)
	plan := planSim(cfg.workload, cfg.seconds)
	mappers, err := buildMappers(plan)
	if err != nil {
		return nil, err
	}
	var env *experiment.Env
	setup := make([]float64, cfg.setups)
	for i := range setup {
		t0 := time.Now()
		if env, err = experiment.Build(simSpec()); err != nil {
			return nil, err
		}
		setup[i] = time.Since(t0).Seconds()
	}
	trials, _, err := genTrials(cfg.seed, plan.trials, env.Model)
	if err != nil {
		return nil, err
	}
	window := env.Model.Params.WindowSize
	tasksPerPass := float64(len(mappers) * plan.trials * window)

	tr := newTracer(false)
	ops0 := pmf.ReadOpCounts()
	passes := make([]passResult, plan.passes)
	var wall, cpu [][]float64
	var failed int64
	for p := range passes {
		settle()
		passes[p] = runSimPass(env, mappers, plan, trials, tr, 0, int64(p+1))
		failed += checkSimPass(res, env, plan, passes[p], passes[0], p+1)
		wall, cpu = append(wall, passes[p].wallS), append(cpu, passes[p].cpuS)
	}
	checkBypass(res, cfg.workload, pmf.ReadOpCounts().Sub(ops0), env.MetricsSnapshot())
	variantS := medianAcross(wall) // per variant, the median over passes
	var onTime, missed float64
	for _, vr := range passes[0].results {
		if vr == nil {
			continue
		}
		onTime += vr.MeanOnTime * float64(plan.trials)
		for _, m := range vr.Missed {
			missed += m
		}
	}
	res.Attempted = int64(plan.passes * len(mappers) * plan.trials)
	res.Failed = min(failed, res.Attempted)
	res.Counts["ontime_tasks"] = int64(math.Round(onTime))
	res.Counts["missed_tasks"] = int64(math.Round(missed))

	res.set("setup_s", median(setup), len(setup))
	res.set("ops_per_s", tasksPerPass/sum(variantS), plan.passes)
	// What a researcher waits for is one variant run (one RunWithTrials
	// call). With four to six variants the slowest is the only tail the
	// sample supports.
	res.set("lat_p50_us", median(variantS)*1e6, len(variantS))
	res.set("lat_p99_us", sorted(variantS)[len(variantS)-1]*1e6, len(variantS))
	res.set("cpu_us_per_op", sum(medianAcross(cpu))*1e6/tasksPerPass, plan.passes)
	res.set("ontime_share", onTime/tasksPerPass, len(mappers)*plan.trials)
	res.set("failed_share", float64(res.Failed)/float64(res.Attempted), int(res.Attempted))
	res.set("peak_rss_mb", procStatusMB("VmHWM"), 1)
	return res, nil
}

// runSimTraced is the shorter second run that attributes the time: one
// reference pass with spans off, one pass with spans on, then every trial
// once more through sim.Run on a single thread with the configuration
// Env.runTrial builds, then the kernel loops.
func runSimTraced(cfg runConfig, tr *tracer) (*result, error) {
	res := newResult(cfg.workload, cfg.seed, cfg.seconds, true)
	plan := planSim(cfg.workload, cfg.seconds)
	mappers, err := buildMappers(plan)
	if err != nil {
		return nil, err
	}
	spec := simSpec()

	sp := tr.start("bench.setup", 0, 0)
	b0 := time.Now()
	bs := tr.start("experiment.build", sp, 0)
	env, err := experiment.Build(spec)
	tr.end(bs)
	if err != nil {
		return nil, err
	}
	buildS := time.Since(b0).Seconds()
	trials, genMs, err := genTrials(cfg.seed, plan.trials, env.Model)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if err := modelLayerMetrics(res, spec); err != nil {
		return nil, err
	}
	res.set("workload.generate_trial_ms", median(genMs), len(genMs))
	res.set("experiment.build_s", buildS, 1)

	window := env.Model.Params.WindowSize
	tasks := float64(len(mappers) * plan.trials * window)

	ref := runSimPass(env, mappers, plan, trials, newTracer(false), 0, 0)
	checkSimPass(res, env, plan, ref, ref, 1)

	ops0 := pmf.ReadOpCounts()
	mem0 := readMem()
	traced := runSimPass(env, mappers, plan, trials, tr, 0, 1)
	mem := memSince(mem0)
	ops := pmf.ReadOpCounts().Sub(ops0)
	res.Failed = checkSimPass(res, env, plan, traced, ref, 2)
	res.Attempted = int64(len(mappers) * plan.trials)

	res.set("experiment.variant_s_p50", median(traced.wallS), len(traced.wallS))
	res.set("trace.overhead_pct", 100*(traced.wall.Seconds()/ref.wall.Seconds()-1), 1)

	// Single-threaded leg: sim.Run per trial, as Env.runTrial configures it.
	root := randx.NewStream(spec.Seed)
	agg := &metrics.Snapshot{}
	var runMs, mergeUs []float64
	var serial time.Duration
	leg := tr.start("bench.serial_pass", 0, 1)
	for vi, m := range mappers {
		for ti, trial := range trials {
			reg := metrics.NewRegistry()
			sc := sim.Config{Model: env.Model, Mapper: m, EnergyBudget: env.Budget, Metrics: reg}
			s := tr.start("sim.run", leg, int64(ti))
			t0 := time.Now()
			out, err := sim.Run(sc, trial, root.ChildN("decisions", ti))
			d := time.Since(t0)
			tr.end(s)
			if err != nil {
				return nil, fmt.Errorf("sim.Run %s trial %d: %w", plan.variants[vi].label(), ti, err)
			}
			serial += d
			runMs = append(runMs, float64(d)/float64(time.Millisecond))
			res.check(out.Missed == out.Window-out.OnTime, "%s trial %d: Missed %d != Window %d − OnTime %d",
				plan.variants[vi].label(), ti, out.Missed, out.Window, out.OnTime)
			res.check(out.EnergyConsumed <= env.Budget*(1+1e-9), "%s trial %d: consumed %v > ζ_max %v",
				plan.variants[vi].label(), ti, out.EnergyConsumed, env.Budget)
			if vr := traced.results[vi]; vr != nil {
				res.check(float64(out.Missed) == vr.Missed[ti], "%s trial %d: serial run missed %d, pooled run %v",
					plan.variants[vi].label(), ti, out.Missed, vr.Missed[ti])
			}
			m0 := time.Now()
			snap := reg.Snapshot()
			if err := agg.Merge(snap); err != nil {
				return nil, err
			}
			mergeUs = append(mergeUs, float64(time.Since(m0))/float64(time.Microsecond))
		}
	}
	tr.end(leg)
	checkBypass(res, cfg.workload, ops, agg)

	rs := sorted(runMs)
	res.set("sim.run_ms_p50", percentile(rs, 0.5), len(rs))
	res.set("sim.run_ms_p90", percentile(rs, 0.9), len(rs))
	res.set("experiment.parallel_efficiency", serial.Seconds()/(float64(workers())*traced.wall.Seconds()), 1)
	res.set("metrics.snapshot_merge_us", median(mergeUs), len(mergeUs))
	res.set("sim.events_per_task", agg.SumByName("sim_events_total")/tasks, int(tasks))
	hw, _ := agg.Value("sim_event_heap_high_water")
	res.set("sim.heap_high_water", hw, len(runMs))
	schedCounterMetrics(res, agg, tasks)
	res.set("pmf.gridconv_per_task", float64(ops.GridConvolutions)/tasks, int(tasks))
	res.set("pmf.sparse_conv_per_task", float64(ops.Convolutions)/tasks, int(tasks))
	res.set("pmf.fft_share", ratio(float64(ops.FFTConvolutions), float64(ops.GridConvolutions)), int(ops.GridConvolutions))
	runtimeMetrics(res, mem, tasks)

	if cfg.workload == wSimRho {
		gap, n, err := oracleGap(env, trials, root)
		if err != nil {
			return nil, err
		}
		res.set("robustness.oracle_ontime_gap", gap, n)
	}
	if err := kernelMetrics(res, env.Model, cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// oracleGap is |on-time share under the production grid ρ − under the exact
// double-sum ρ| over the first five LL+en+rob trials. Reported, not gated.
func oracleGap(env *experiment.Env, trials []*workload.Trial, root *randx.Stream) (float64, int, error) {
	m, err := simVariant{"LL", sched.EnergyAndRobustness}.mapper()
	if err != nil {
		return 0, 0, err
	}
	n := min(5, len(trials))
	var grid, exact, offered int
	for i := 0; i < n; i++ {
		for _, ex := range []bool{false, true} {
			sc := sim.Config{Model: env.Model, Mapper: m, EnergyBudget: env.Budget, ExactRho: ex}
			out, err := sim.Run(sc, trials[i], root.ChildN("decisions", i))
			if err != nil {
				return 0, 0, err
			}
			if ex {
				exact += out.OnTime
			} else {
				grid += out.OnTime
				offered += out.Window
			}
		}
	}
	return math.Abs(float64(grid-exact)) / float64(offered), n, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// schedCounterMetrics derives the per-task counter rows every workload
// shares from a merged registry snapshot.
func schedCounterMetrics(res *result, snap *metrics.Snapshot, tasks float64) {
	cands := snap.SumByName("sched_candidates_total")
	res.set("sched.candidates_per_task", cands/tasks, int(tasks))
	res.set("sched.filter_reject_share", ratio(snap.SumByName("sched_filter_rejections_total"), cands), int(cands))
	hits := snap.SumByName("robustness_freetime_cache_hits_total")
	misses := snap.SumByName("robustness_freetime_cache_misses_total")
	res.set("robustness.free_cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	res.set("robustness.rho_evals_per_task", snap.SumByName("sched_rho_evaluations_total")/tasks, int(tasks))
	res.set("energy.advances_per_task", snap.SumByName("energy_meter_advances_total")/tasks, int(tasks))
}

func runtimeMetrics(res *result, mem memDelta, ops float64) {
	res.set("runtime.alloc_kb_per_op", float64(mem.allocBytes)/1024/ops, int(ops))
	res.set("runtime.mallocs_per_op", float64(mem.mallocs)/ops, int(ops))
	res.set("runtime.gc_cycles", float64(mem.gcCycles), 1)
	res.set("runtime.gc_pause_ms", float64(mem.gcPause)/float64(time.Millisecond), int(mem.gcCycles))
}
