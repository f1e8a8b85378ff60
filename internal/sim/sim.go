// Package sim is the discrete-event simulator that executes one trial of
// the paper's experiment: tasks arrive dynamically, the configured mapper
// assigns each to a (core, P-state) immediately on arrival (or discards
// it), cores execute their FIFO queues, idle cores drop to the deepest
// P-state, and a live energy meter halts the cluster the instant the energy
// constraint ζ_max is exhausted (everything not completed by then counts as
// missed).
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/randx"
	"repro/internal/robustness"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Config configures one simulation run.
type Config struct {
	// Model is the fixed workload model (cluster + pmf tables).
	Model *workload.Model
	// Mapper is the heuristic+filter policy under test.
	Mapper *sched.Mapper
	// EnergyBudget is ζ_max; math.Inf(1) disables the constraint.
	EnergyBudget float64
	// IdlePState is the state idle cores are parked in. The paper's cores
	// cannot be turned off (§III-A); parking them in the deepest P-state is
	// the resource manager's only lever on idle power. Defaults to P4.
	IdlePState cluster.PState
	// VerifyEnergy records full P-state transition lists and cross-checks
	// the meter against the exact Eq. 1/Eq. 2 computation at the end of the
	// run (test and debugging aid; costs memory).
	VerifyEnergy bool
	// Trace records a per-task outcome log in the result.
	Trace bool
	// CancelOverdueWaiting is an extension beyond the paper (§VIII future
	// work): when true, waiting tasks whose deadline has already passed are
	// dropped from the queue instead of being executed to completion. The
	// paper's model always executes mapped tasks as a best effort; leave
	// this false to reproduce the paper.
	CancelOverdueWaiting bool
	// Observer, when non-nil, receives every simulation event as it
	// happens (see the Observer interface). Used by the trace package to
	// build event logs and core timelines. Compose several observers with
	// Multi; nil means no observation (the engine substitutes NopObserver).
	Observer Observer
	// Metrics, when non-nil, receives hot-path instrumentation for the
	// run: events processed, heap depth high-water, backlog histogram,
	// task outcomes, scheduler candidate/filter/cache counters, and energy
	// meter activity. Attaching a registry never changes simulation
	// results; a registry must not be shared between concurrent runs
	// unless the caller wants their counts blended.
	Metrics *metrics.Registry
	// PowerCV is a §VIII extension ("use full probability distributions to
	// represent power consumption"): when positive, each task execution
	// draws its actual power from a gamma distribution with mean μ(i,π) and
	// this coefficient of variation instead of the constant μ(i,π). The
	// heuristics still plan with the mean (EEC is unchanged), so this
	// studies how power uncertainty erodes the energy budget. Incompatible
	// with VerifyEnergy (the Eq. 1 replay knows only table powers). Zero
	// reproduces the paper.
	PowerCV float64
	// Park is a §VIII extension ("more energy-conserving techniques ...
	// power gating"): idle cores are power-gated after a timeout and pay a
	// wake latency when work next arrives. The zero value (disabled)
	// reproduces the paper, whose oversubscription rules parking out.
	Park ParkPolicy
	// CentralQueue, when non-nil, replaces immediate-mode mapping entirely
	// (§VIII "reschedule" direction): arriving tasks wait in one
	// cluster-wide pool and the policy assigns them to cores only when the
	// core is ready to execute. Mutually exclusive with Mapper.
	CentralQueue PullPolicy
	// Faults configures failure injection: stochastic transient-core and
	// permanent-node failure processes plus scripted fault traces, with a
	// recovery policy for stranded tasks (see internal/fault). The zero
	// value (no faults) reproduces the paper's never-failing cluster and
	// costs nothing on the hot path. Incompatible with VerifyEnergy: a
	// downed core draws zero watts via a power override, which the Eq. 1
	// transition replay cannot represent.
	Faults fault.Spec
	// Brownout, when non-empty, replaces the all-or-nothing halt at ζ_max
	// with staged degradation: as consumed energy crosses each stage's
	// fraction of the budget, the admission filter's ζ_mul tightens, new
	// dispatches are floored at deep P-states, and (optionally) idle cores
	// are power-gated. The hard halt at 100% is unchanged. See
	// energy.BrownoutStage / energy.DefaultBrownoutStages. Requires a
	// finite EnergyBudget; nil reproduces the paper.
	Brownout []energy.BrownoutStage
	// ExactRho puts the oracle, robustness.Oracle, behind the scheduler's
	// free times instead of the production robustness.FreeTimeEngine: no
	// cache and no lattice — every decision derives each queried core's
	// sparse §IV-B chain from scratch and evaluates ρ as the direct double
	// sum P(free + exec <= deadline). An uncached reference, several times
	// slower than production; it exists to bracket the lattice's
	// quantization (EXPERIMENTS.md, golden_test.go), not to run sweeps.
	ExactRho bool
}

// ParkPolicy configures the power-gating extension.
type ParkPolicy struct {
	// Enabled turns parking on.
	Enabled bool
	// Timeout is how long a core must sit idle before it parks.
	Timeout float64
	// WakeLatency delays the start of the first task mapped to a parked
	// core; the latency interval is charged at the task's P-state power (a
	// deliberate simplification — real gate-up current is implementation
	// specific).
	WakeLatency float64
	// PowerFrac is the parked power as a fraction of the node's P4 power
	// (e.g. 0.05 ≈ deep gating with retention).
	PowerFrac float64
}

// Validate reports whether the policy is usable.
func (p ParkPolicy) Validate() error {
	if !p.Enabled {
		return nil
	}
	if p.Timeout < 0 || p.WakeLatency < 0 {
		return fmt.Errorf("sim: park timeout %v and wake latency %v must be >= 0", p.Timeout, p.WakeLatency)
	}
	if p.PowerFrac < 0 || p.PowerFrac > 1 {
		return fmt.Errorf("sim: parked power fraction %v outside [0,1]", p.PowerFrac)
	}
	return nil
}

// Observer receives simulation events in time order. Implementations must
// not retain the engine's internal state; all arguments are values.
// Callbacks run synchronously on the simulation goroutine.
type Observer interface {
	// TaskMapped fires when an arriving task receives an assignment.
	TaskMapped(t float64, task workload.Task, a sched.Assignment)
	// TaskDiscarded fires when filters eliminate every assignment.
	TaskDiscarded(t float64, task workload.Task)
	// TaskStarted, TaskFinished and PStateChanged: the cluster lifecycle.
	exec.Observer
	// EnergyExhausted fires once if ζ_max runs out; the run halts.
	EnergyExhausted(t float64)
}

// Outcome classifies what happened to one task.
type Outcome int

// Task outcomes.
const (
	// OutcomeOnTime: completed at or before its deadline.
	OutcomeOnTime Outcome = iota
	// OutcomeLate: completed, but after its deadline.
	OutcomeLate
	// OutcomeDiscarded: every assignment was filtered out at arrival.
	OutcomeDiscarded
	// OutcomeUnfinished: mapped but not completed when the run halted
	// (energy exhaustion), or never arrived before the halt.
	OutcomeUnfinished
	// OutcomeCancelled: dropped by the CancelOverdueWaiting extension.
	OutcomeCancelled
	// OutcomeFailed: lost to a core/node failure — killed or stranded by a
	// fault and not recovered (dropped, or retries exhausted).
	OutcomeFailed
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeOnTime:
		return "on-time"
	case OutcomeLate:
		return "late"
	case OutcomeDiscarded:
		return "discarded"
	case OutcomeUnfinished:
		return "unfinished"
	case OutcomeCancelled:
		return "cancelled"
	case OutcomeFailed:
		return "failed"
	}
	return "unknown"
}

// TaskTrace records one task's fate (populated when Config.Trace is set).
type TaskTrace struct {
	Task       workload.Task
	Outcome    Outcome
	Assignment sched.Assignment // zero value when discarded/not arrived
	Mapped     bool
	Start      float64
	Finish     float64
}

// Result summarizes one simulation run. The headline metric of the paper's
// figures is Missed: tasks of the window that did not complete by their
// individual deadline within the energy constraint.
type Result struct {
	// Window is the number of tasks in the trial.
	Window int
	// OnTime counts tasks completed by their deadlines.
	OnTime int
	// Missed = Window − OnTime (the paper's box-plot metric).
	Missed int
	// Late counts tasks completed after their deadlines.
	Late int
	// Discarded counts tasks whose feasible set was emptied by filters.
	Discarded int
	// Cancelled counts tasks dropped by the CancelOverdueWaiting extension.
	Cancelled int
	// Unfinished counts tasks mapped but not completed (plus tasks that
	// never arrived) when the run halted.
	Unfinished int
	// Mapped counts assignments issued. Without fault injection this equals
	// the number of tasks mapped; with requeue recovery a task counts once
	// per (re-)assignment.
	Mapped int

	// EnergyConsumed is the actual wall energy drawn (Eqs. 1–2).
	EnergyConsumed float64
	// EnergyExhausted reports whether ζ_max ran out before the workload
	// finished; ExhaustedAt is the halt instant when it did.
	EnergyExhausted bool
	ExhaustedAt     float64
	// EnergyEstimateLeft is the heuristic-side estimate ζ(t_end) at the end
	// of the run (§V-F); it drifts from the meter because it ignores idle
	// power and uses expected rather than actual execution times.
	EnergyEstimateLeft float64
	// Makespan is the time of the last processed event.
	Makespan float64
	// AvgQueueDepthTime is the time-averaged per-core queue depth over the
	// run (diagnostic; the filters use the instantaneous depth).
	AvgQueueDepthTime float64
	// WeightedOnTime is the priority-weighted on-time value (extension;
	// equals OnTime when all priorities are 1).
	WeightedOnTime float64
	// Wakeups counts parked-core wakeups (parking extension only).
	Wakeups int
	// ParkedTime is the total core-time spent parked (parking extension).
	ParkedTime float64
	// Faults counts injected failures (fault injection only); TasksKilled
	// counts running tasks killed mid-execution by them, Retries counts
	// requeue dispatch attempts, and LostToFailure counts tasks that ended
	// OutcomeFailed (dropped or retries exhausted). A killed task that a
	// retry later completes is NOT lost — it lands in OnTime/Late.
	Faults        int
	TasksKilled   int
	Retries       int
	LostToFailure int
	// DownTime is the total core-time spent failed (summed over cores).
	DownTime float64
	// BrownoutStage is the deepest degradation stage reached (0 = nominal;
	// brownout controller only).
	BrownoutStage int
	// EnergyVerifyError is |meter − exact Eq.1/2| when VerifyEnergy is set.
	EnergyVerifyError float64

	// Traces is the per-task log (only when Config.Trace is set), indexed
	// by task ID.
	Traces []TaskTrace
}

// engine is the run state. Its embedded cluster state implements
// sched.SystemView; hooks is its side of the cluster lifecycle.
type engine struct {
	exec.State
	cfg       Config
	ctx       context.Context
	processed int // events handled, for periodic cancellation checks
	trial     *workload.Trial
	calc      *robustness.Calculator
	ft        sched.FreeTimes // State.FT, or the oracle under ExactRho
	rand      *randx.Stream

	// Per-decision scratch, overwritten by every decision: the scheduler
	// arena and the decision context. Neither outlives a decision, so one
	// of each serves the whole run without allocating per decision.
	arena *sched.Arena
	dctx  sched.Context

	energyLeft    float64 // heuristic estimate ζ(t_l)
	depthIntegral float64 // ∫ backlog dt
	lastT         float64

	powerRand *randx.Stream // per-execution power draws (PowerCV extension)
	parked    []bool
	idleGen   []int // invalidates stale park events
	parkedAt  []float64

	arrived int // arrival events processed, for requeue T_left
	bro     *energy.Brownout
	// Decision-context predicates, bound once so fault-enabled dispatch
	// does not allocate per arrival: down cores drop out of candidate
	// enumeration and availability discounts ρ for the reliability
	// filter. Nil when faults are disabled.
	coreUpFn func(int) bool
	availFn  func(int) float64

	// Central-queue mode (Config.CentralQueue): arrivals and retries wait
	// in pool until dispatch hands them to an idle core, with poolAtt the
	// retries each has consumed. central is nil in immediate mode, and
	// the pool then stays empty.
	central PullPolicy
	pool    []workload.Task
	poolAtt []int

	met  *simMetrics    // nil when Config.Metrics is nil
	eobs EnergyObserver // non-nil when the observer wants energy samples
	bobs BrownoutObserver
	dobs DecisionObserver // non-nil when the observer audits decisions

	res *Result
}

// Run executes one trial under the configuration. decisions seeds the
// Random heuristic's draws (and any other stochastic policy choice); runs
// with equal (cfg, trial, decisions) are bit-identical.
func Run(cfg Config, trial *workload.Trial, decisions *randx.Stream) (*Result, error) {
	return RunContext(context.Background(), cfg, trial, decisions)
}

// RunContext is Run with cooperative cancellation: the event loop polls
// ctx between batches of events and aborts with an error wrapping
// ctx.Err() when the context is cancelled or its deadline passes. A
// cancelled run returns no Result — partial simulation state is never
// observable, so callers cannot mistake an aborted trial for a short one.
// A nil ctx behaves like context.Background().
func RunContext(ctx context.Context, cfg Config, trial *workload.Trial, decisions *randx.Stream) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Model == nil {
		return nil, errors.New("sim: Config.Model is nil")
	}
	if err := validateCentral(cfg); err != nil {
		return nil, err
	}
	if cfg.CentralQueue == nil && (cfg.Mapper == nil || cfg.Mapper.Heuristic == nil) {
		return nil, errors.New("sim: Config.Mapper is nil or has no heuristic")
	}
	if trial == nil || len(trial.Tasks) == 0 {
		return nil, errors.New("sim: empty trial")
	}
	if decisions == nil {
		return nil, errors.New("sim: nil decision stream")
	}
	if cfg.IdlePState == 0 {
		cfg.IdlePState = cluster.P4
	}
	if !cfg.IdlePState.Valid() {
		return nil, fmt.Errorf("sim: invalid idle P-state %d", cfg.IdlePState)
	}
	if cfg.PowerCV < 0 {
		return nil, fmt.Errorf("sim: PowerCV %v must be >= 0", cfg.PowerCV)
	}
	if err := cfg.Park.Validate(); err != nil {
		return nil, err
	}
	if cfg.VerifyEnergy && (cfg.PowerCV > 0 || cfg.Park.Enabled) {
		return nil, errors.New("sim: VerifyEnergy is incompatible with the PowerCV/Park extensions (Eq. 1 replay knows only P-state table powers)")
	}
	faultsOn := cfg.Faults.Enabled()
	if faultsOn {
		if err := cfg.Faults.Validate(cfg.Model.Cluster.TotalCores(), cfg.Model.Cluster.N()); err != nil {
			return nil, err
		}
		if cfg.VerifyEnergy {
			return nil, errors.New("sim: VerifyEnergy is incompatible with fault injection (downed cores draw zero watts via power overrides)")
		}
	}
	if len(cfg.Brownout) > 0 {
		if err := energy.ValidateBrownoutStages(cfg.Brownout); err != nil {
			return nil, err
		}
		for _, st := range cfg.Brownout {
			if st.ParkIdle && cfg.VerifyEnergy {
				return nil, errors.New("sim: VerifyEnergy is incompatible with brownout idle parking (power overrides)")
			}
		}
	}
	budget := cfg.EnergyBudget
	if budget == 0 {
		budget = math.Inf(1)
	}
	if budget <= 0 {
		return nil, fmt.Errorf("sim: energy budget %v must be positive (use +Inf to disable)", budget)
	}
	if len(cfg.Brownout) > 0 && math.IsInf(budget, 1) {
		return nil, errors.New("sim: brownout requires a finite energy budget")
	}
	meter, err := energy.NewMeter(cfg.Model.Cluster, cfg.IdlePState, budget, cfg.VerifyEnergy)
	if err != nil {
		return nil, err
	}
	if cfg.Observer == nil {
		cfg.Observer = NopObserver{}
	}

	e := &engine{
		cfg:        cfg,
		ctx:        ctx,
		trial:      trial,
		State:      exec.NewState(cfg.Model.Cluster, meter, cfg.IdlePState, cfg.Observer),
		calc:       robustness.NewCalculator(cfg.Model),
		rand:       decisions,
		energyLeft: budget,
		central:    cfg.CentralQueue,
		res: &Result{
			Window: len(trial.Tasks),
		},
	}
	e.Hooks = hooks{e}
	if cfg.ExactRho {
		// The oracle caches nothing: FT stays nil, and the nil engine's
		// methods are no-ops.
		e.ft = robustness.NewOracle(e.calc)
	} else {
		e.FT = robustness.NewFreeTimeEngine(e.calc, len(e.Queues))
		e.ft = e.FT
	}
	e.arena = sched.NewArena()
	if eo, ok := cfg.Observer.(EnergyObserver); ok {
		e.eobs = eo
	}
	if bo, ok := cfg.Observer.(BrownoutObserver); ok {
		e.bobs = bo
	}
	if do, ok := cfg.Observer.(DecisionObserver); ok {
		e.dobs = do
	}
	if cfg.Metrics != nil {
		var filters []sched.Filter
		if cfg.Mapper != nil {
			filters = cfg.Mapper.Filters
		}
		e.met = newSimMetrics(cfg.Metrics)
		e.met.sched = sched.NewCounters(cfg.Metrics, filters)
		e.met.sched.InstrumentFreeTimes(e.FT)
		e.calc.Instrument(
			cfg.Metrics.Counter("robustness_freetime_evals_total"),
			cfg.Metrics.Counter("robustness_completion_evals_total"))
		e.Meter.Instrument(
			cfg.Metrics.Counter("energy_meter_advances_total"),
			cfg.Metrics.Counter("energy_pstate_transitions_total"),
			cfg.Metrics.Gauge("energy_meter_consumed"))
	}
	if cfg.Trace {
		e.res.Traces = make([]TaskTrace, len(trial.Tasks))
		for i, t := range trial.Tasks {
			e.res.Traces[i] = TaskTrace{Task: t, Outcome: OutcomeUnfinished}
		}
	}
	if cfg.PowerCV > 0 {
		e.powerRand = decisions.Child("power")
	}
	if cfg.Park.Enabled {
		e.parked = make([]bool, len(e.Queues))
		e.idleGen = make([]int, len(e.Queues))
		e.parkedAt = make([]float64, len(e.Queues))
		// Every core is idle at t=0; schedule the initial park checks.
		for i := range e.Queues {
			e.Events.Push(exec.Event{Time: cfg.Park.Timeout, Kind: exec.EvPark, Idx: i, Gen: 0})
		}
	}
	if faultsOn {
		e.Faults = exec.NewFaultState(cfg.Faults, decisions.Child("fault"), len(e.Cores), cfg.Model.Cluster.N())
		avail := cfg.Faults.Availability()
		e.coreUpFn = func(idx int) bool { return !e.Faults.Down[idx] }
		e.availFn = func(int) float64 { return avail }
		e.ScheduleFaults()
	}
	if len(cfg.Brownout) > 0 {
		// Validated above; NewBrownout re-checks but cannot fail here.
		e.bro, _ = energy.NewBrownout(cfg.Brownout)
	}
	for i, t := range trial.Tasks {
		e.Events.Push(exec.Event{Time: t.Arrival, Kind: exec.EvArrival, Idx: i})
	}
	if err := e.loop(); err != nil {
		return nil, err
	}
	e.finalize()
	return e.res, nil
}

// cancelCheckMask throttles context polls to one per 64 processed events:
// cheap enough for the hot path, responsive enough that a cancelled trial
// aborts within microseconds of simulated work.
const cancelCheckMask = 63

// checkCancelled polls the run context once every cancelCheckMask+1 events
// and converts a cancellation into the run-aborting error.
func (e *engine) checkCancelled() error {
	if e.processed&cancelCheckMask == 0 {
		if err := e.ctx.Err(); err != nil {
			return fmt.Errorf("sim: run cancelled at t=%.1f after %d events: %w", e.lastT, e.processed, err)
		}
	}
	e.processed++
	return nil
}

func (e *engine) loop() error {
	defer e.flushCounts()
	for e.Events.Len() > 0 {
		if err := e.checkCancelled(); err != nil {
			return err
		}
		ev := e.Events.Pop()
		if ev.Kind == exec.EvFault && !e.faultWorkRemains() {
			// Trailing fault beyond the last resolvable task: dropping it
			// (before the meter advances) is what lets the loop drain — the
			// stochastic processes otherwise reschedule forever.
			continue
		}
		backlog := e.InSystem + len(e.pool)
		e.depthIntegral += float64(backlog) * (ev.Time - e.lastT)
		e.lastT = ev.Time
		at, exhausted := e.Meter.Advance(ev.Time)
		e.sampleEnergy(at)
		if exhausted {
			e.res.EnergyExhausted = true
			e.res.ExhaustedAt = at
			e.res.Makespan = at
			e.met.energyExhausted()
			e.cfg.Observer.EnergyExhausted(at)
			return nil
		}
		e.checkBrownout(at)
		e.met.event(ev.Kind, backlog)
		switch ev.Kind {
		case exec.EvArrival:
			e.arrived++
			if e.central != nil {
				e.pool = append(e.pool, e.trial.Tasks[ev.Idx])
				e.poolAtt = append(e.poolAtt, 0)
				e.dispatch(ev.Time)
			} else {
				e.arrive(ev.Time, ev.Idx)
			}
		case exec.EvCompletion:
			if !e.Stale(ev) {
				e.CompleteHead(ev.Time, ev.Idx)
				if e.Queues[ev.Idx].Len() == 0 {
					e.idle(ev.Time, ev.Idx)
				}
				e.dispatch(ev.Time)
			}
		case exec.EvPark:
			e.park(ev.Idx, ev.Gen)
		case exec.EvFault:
			e.FireFault(ev.Time, ev.Idx)
		case exec.EvRepair:
			e.Repair(ev.Time, ev.Idx)
		case exec.EvRequeue:
			e.FireRequeue(ev.Time, ev.Idx)
		}
		e.res.Makespan = ev.Time
		e.flushCounts()
	}
	return nil
}

// flushCounts publishes the loop's pending counts: the free-time engine's
// and the scheduler's plain-field tallies and the event heap's high-water
// mark, which this loop alone writes. Called at the end of every turn and
// on every return, so the registry and pmf.ReadOpCounts are exact whenever
// a turn is not running.
func (e *engine) flushCounts() {
	e.FT.Flush()
	e.met.schedCounters().Flush()
	e.met.heapDepth(e.Events.High())
}

// sampleEnergy forwards one energy-meter trajectory point to the observer
// if it asked for them.
func (e *engine) sampleEnergy(t float64) {
	if e.eobs != nil {
		e.eobs.EnergySample(t, e.Meter.Consumed(), e.Meter.Rate())
	}
}

// arrive maps one arriving task in immediate mode.
func (e *engine) arrive(now float64, taskIdx int) {
	task := e.trial.Tasks[taskIdx]
	chosen := e.decide(now, task, len(e.trial.Tasks)-taskIdx-1)
	if chosen == nil {
		e.res.Discarded++
		e.met.taskDiscarded()
		if e.cfg.Trace {
			e.res.Traces[taskIdx].Outcome = OutcomeDiscarded
		}
		e.cfg.Observer.TaskDiscarded(now, task)
		return
	}
	e.commit(now, task, chosen.Assignment, chosen.EEC, chosen.Predict, 0)
}

// decide runs the immediate-mode mapper for one task — candidate
// enumeration, the filter chain, the heuristic — and returns its choice,
// or nil when no assignment survives.
func (e *engine) decide(now float64, task workload.Task, tasksLeft int) *sched.Candidate {
	ctx := &e.dctx
	*ctx = sched.Context{
		Now:           now,
		Task:          task,
		Model:         e.cfg.Model,
		Calc:          e.calc,
		EnergyLeft:    e.energyLeft,
		TasksLeft:     tasksLeft,
		AvgQueueDepth: float64(e.InSystem) / float64(len(e.Cores)),
		Rand:          e.rand,
		Counters:      e.met.schedCounters(),
		FreeTimes:     e.ft,
		Arena:         e.arena,
		CoreUp:        e.coreUpFn,
		Availability:  e.availFn,
	}
	// An active brownout stage floors the P-state and caps ζ_mul.
	if e.bro != nil {
		if st := e.bro.Current(); st != nil {
			ctx.PStateFloor = st.PStateFloor
			ctx.ZetaMulOverride = st.ZetaMul
		}
	}
	cands := sched.BuildCandidates(ctx, e)
	// With every core down the candidate set is empty; Mapper.Map expects a
	// non-empty set when it reaches the heuristic.
	if len(cands) == 0 {
		return nil
	}
	return e.cfg.Mapper.Map(ctx, cands)
}

// commit carries out one mapping decision, whichever mode made it: it
// charges the expected energy eec to ζ(t_l), audits the decision, enqueues
// the task on its core with the fault retries it has consumed, records and
// announces the mapping, and starts the core if it was idle. pred is
// evaluated only for a DecisionObserver, and before the enqueue: an
// immediate-mode prediction convolves against the core's queue as
// BuildCandidates saw it, and the enqueue changes both that queue and the
// free-time engine's cache of it.
func (e *engine) commit(now float64, task workload.Task, a sched.Assignment, eec float64, pred func() sched.Prediction, attempts int) {
	e.res.Mapped++
	e.met.taskMapped()
	e.energyLeft -= eec
	if e.dobs != nil {
		e.dobs.TaskDecision(now, task, a, pred(), eec)
	}
	actual := e.cfg.Model.ActualExecTime(task, a.Core.Node, a.PState)
	idx := a.CoreIdx
	q := &e.Queues[idx]
	q.Push(exec.Entry{Task: task, Actual: actual, Attempts: attempts}, a.PState)
	e.FT.OnEnqueue(idx, a.Core.Node, task.Type, a.PState, q.Len())
	e.InSystem++
	if e.cfg.Trace {
		tr := &e.res.Traces[task.ID]
		tr.Mapped = true
		tr.Assignment = a
	}
	e.cfg.Observer.TaskMapped(now, task, a)
	if q.Len() == 1 {
		e.StartHead(now, idx)
	}
}

// hooks is the simulator's side of the cluster lifecycle (exec.Hooks):
// Result counters and trace rows, parking, PowerCV, overdue cancellation
// and, in fault.go, what a fault step counts and dispatches.
type hooks struct{ *engine }

// Started wakes a parked core, paying its wake latency, and draws the
// run's power under PowerCV.
func (e hooks) Started(now float64, coreIdx int, ps cluster.PState, head *exec.Entry) float64 {
	wake := 0.0
	if e.cfg.Park.Enabled {
		e.idleGen[coreIdx]++ // invalidate any pending park check
		if e.parked[coreIdx] {
			e.parked[coreIdx] = false
			e.res.ParkedTime += now - e.parkedAt[coreIdx]
			e.res.Wakeups++
			wake = e.cfg.Park.WakeLatency
		}
	}
	if e.cfg.PowerCV > 0 {
		node := e.cfg.Model.Cluster.Node(e.Cores[coreIdx])
		factor := e.powerRand.GammaMeanCV(1, e.cfg.PowerCV)
		e.Meter.SetPower(coreIdx, node.Power[ps]*factor)
	}
	if e.cfg.Trace {
		e.res.Traces[head.Task.ID].Start = now
	}
	return wake
}

// Finished counts the verdict and, under CancelOverdueWaiting, drops the
// waiting tasks whose deadline has already passed.
func (e hooks) Finished(now float64, coreIdx int, head workload.Task, onTime bool) {
	if onTime {
		e.res.OnTime++
		e.res.WeightedOnTime += head.Priority
		if e.cfg.Trace {
			e.res.Traces[head.ID].Outcome = OutcomeOnTime
		}
	} else {
		e.res.Late++
		if e.cfg.Trace {
			e.res.Traces[head.ID].Outcome = OutcomeLate
		}
	}
	e.met.taskFinished(onTime)
	if e.cfg.Trace {
		e.res.Traces[head.ID].Finish = now
	}
	if e.cfg.CancelOverdueWaiting {
		q := &e.Queues[coreIdx]
		for q.Len() > 0 && q.Snap[0].Deadline < now {
			dropped := q.Run[0].Task.ID
			q.PopFront()
			e.InSystem--
			e.res.Cancelled++
			e.met.taskCancelled()
			if e.cfg.Trace {
				e.res.Traces[dropped].Outcome = OutcomeCancelled
			}
		}
	}
}

// idle settles a core that a completion or a repair left without work: a
// parking brownout stage gates it, and parking schedules its check.
func (e *engine) idle(now float64, coreIdx int) {
	e.applyIdlePower(coreIdx)
	if e.cfg.Park.Enabled {
		e.idleGen[coreIdx]++
		e.Events.Push(exec.Event{Time: now + e.cfg.Park.Timeout, Kind: exec.EvPark, Idx: coreIdx, Gen: e.idleGen[coreIdx]})
	}
}

// park power-gates a core if it is still idle and the check is current.
func (e *engine) park(coreIdx, gen int) {
	if !e.cfg.Park.Enabled || e.parked[coreIdx] || gen != e.idleGen[coreIdx] || e.Queues[coreIdx].Len() > 0 {
		return
	}
	if e.CoreDown(coreIdx) {
		return // a failed core already draws nothing; keep the 0 W override
	}
	e.parked[coreIdx] = true
	e.parkedAt[coreIdx] = e.Meter.Now()
	node := e.cfg.Model.Cluster.Node(e.Cores[coreIdx])
	e.Meter.SetPower(coreIdx, e.cfg.Park.PowerFrac*node.Power[cluster.P4])
}

func (e *engine) finalize() {
	r := e.res
	r.Missed = r.Window - r.OnTime
	r.Unfinished = r.Window - r.OnTime - r.Late - r.Discarded - r.Cancelled - r.LostToFailure
	if f := e.Faults; f != nil {
		for i, down := range f.Down {
			if down {
				r.DownTime += e.Meter.Now() - f.DownAt[i]
			}
		}
	}
	if e.cfg.Park.Enabled {
		for i, p := range e.parked {
			if p {
				r.ParkedTime += e.Meter.Now() - e.parkedAt[i]
			}
		}
	}
	r.EnergyConsumed = e.Meter.Consumed()
	r.EnergyEstimateLeft = e.energyLeft
	if r.Makespan > 0 {
		r.AvgQueueDepthTime = e.depthIntegral / (r.Makespan * float64(len(e.Cores)))
	}
	if e.cfg.VerifyEnergy {
		if diff, err := e.Meter.Verify(); err == nil {
			r.EnergyVerifyError = diff
		}
	}
	e.met.finish(r.Makespan)
}

// String summarizes the result in one line.
func (r *Result) String() string {
	return fmt.Sprintf("result{window=%d onTime=%d missed=%d late=%d discarded=%d unfinished=%d energy=%.3g exhausted=%v}",
		r.Window, r.OnTime, r.Missed, r.Late, r.Discarded, r.Unfinished, r.EnergyConsumed, r.EnergyExhausted)
}
