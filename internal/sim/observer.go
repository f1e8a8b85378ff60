package sim

import (
	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/workload"
)

// NopObserver is the do-nothing Observer. The engine substitutes it when
// Config.Observer is nil so every emission site is unconditional, and
// implementations can embed it to pick up defaults for events they ignore.
type NopObserver struct{}

var _ Observer = NopObserver{}

// TaskMapped implements Observer.
func (NopObserver) TaskMapped(float64, workload.Task, sched.Assignment) {}

// TaskDiscarded implements Observer.
func (NopObserver) TaskDiscarded(float64, workload.Task) {}

// TaskStarted implements Observer.
func (NopObserver) TaskStarted(float64, workload.Task, sched.Assignment) {}

// TaskFinished implements Observer.
func (NopObserver) TaskFinished(float64, workload.Task, sched.Assignment, bool) {}

// PStateChanged implements Observer.
func (NopObserver) PStateChanged(float64, cluster.CoreID, cluster.PState) {}

// EnergyExhausted implements Observer.
func (NopObserver) EnergyExhausted(float64) {}

// EnergyObserver is an optional Observer extension: implementations also
// receive the energy meter's trajectory — one sample per processed event,
// after the meter advanced to it. consumed is cumulative wall energy,
// rate the instantaneous cluster draw in watts. High-volume; implementors
// should decimate if they retain samples.
type EnergyObserver interface {
	EnergySample(t, consumed, rate float64)
}

// FaultObserver is an optional Observer extension for runs with fault
// injection: implementations additionally see failures, repairs, killed
// tasks, and requeue decisions. The cluster lifecycle in internal/exec
// emits them, for the simulator and the server alike.
type FaultObserver = exec.FaultObserver

// BrownoutObserver is an optional Observer extension for runs with a
// brownout schedule: stage transitions as the budget drains (stage counts
// from 1; frac is the consumed budget fraction at the transition).
type BrownoutObserver interface {
	BrownoutStageChanged(t float64, stage int, frac float64)
}

// DecisionObserver is an optional Observer extension for the flight
// recorder: it sees the full mapping decision — the chosen assignment
// together with the scheduler's prediction (ρ and the completion-time
// summary) and the expected energy charge — at the instant the decision is
// made, before the task is enqueued. TaskMapped still fires afterwards for
// observers that only need the assignment.
type DecisionObserver interface {
	TaskDecision(t float64, task workload.Task, a sched.Assignment, pred sched.Prediction, eec float64)
}

// MultiObserver fans every simulation event out to each member in order,
// so trace recording and metrics collection (and anything else) attach to
// one run simultaneously. Members that also implement the EnergyObserver,
// FaultObserver, or BrownoutObserver extensions receive those events; the
// fan-out preserves member order for every event type.
type MultiObserver struct {
	obs       []Observer
	energy    []EnergyObserver
	faults    []FaultObserver
	brownout  []BrownoutObserver
	decisions []DecisionObserver
}

var (
	_ Observer         = (*MultiObserver)(nil)
	_ EnergyObserver   = (*MultiObserver)(nil)
	_ FaultObserver    = (*MultiObserver)(nil)
	_ BrownoutObserver = (*MultiObserver)(nil)
	_ DecisionObserver = (*MultiObserver)(nil)
)

// Multi composes observers into one. Nil members are dropped; with zero
// survivors it returns NopObserver, with one it returns that observer
// unwrapped.
func Multi(obs ...Observer) Observer {
	kept := make([]Observer, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return NopObserver{}
	case 1:
		return kept[0]
	}
	m := &MultiObserver{obs: kept}
	for _, o := range kept {
		if eo, ok := o.(EnergyObserver); ok {
			m.energy = append(m.energy, eo)
		}
		if fo, ok := o.(FaultObserver); ok {
			m.faults = append(m.faults, fo)
		}
		if bo, ok := o.(BrownoutObserver); ok {
			m.brownout = append(m.brownout, bo)
		}
		if do, ok := o.(DecisionObserver); ok {
			m.decisions = append(m.decisions, do)
		}
	}
	return m
}

// TaskMapped implements Observer.
func (m *MultiObserver) TaskMapped(t float64, task workload.Task, a sched.Assignment) {
	for _, o := range m.obs {
		o.TaskMapped(t, task, a)
	}
}

// TaskDiscarded implements Observer.
func (m *MultiObserver) TaskDiscarded(t float64, task workload.Task) {
	for _, o := range m.obs {
		o.TaskDiscarded(t, task)
	}
}

// TaskStarted implements Observer.
func (m *MultiObserver) TaskStarted(t float64, task workload.Task, a sched.Assignment) {
	for _, o := range m.obs {
		o.TaskStarted(t, task, a)
	}
}

// TaskFinished implements Observer.
func (m *MultiObserver) TaskFinished(t float64, task workload.Task, a sched.Assignment, onTime bool) {
	for _, o := range m.obs {
		o.TaskFinished(t, task, a, onTime)
	}
}

// PStateChanged implements Observer.
func (m *MultiObserver) PStateChanged(t float64, core cluster.CoreID, ps cluster.PState) {
	for _, o := range m.obs {
		o.PStateChanged(t, core, ps)
	}
}

// EnergyExhausted implements Observer.
func (m *MultiObserver) EnergyExhausted(t float64) {
	for _, o := range m.obs {
		o.EnergyExhausted(t)
	}
}

// EnergySample implements EnergyObserver, forwarding to the members that
// asked for it.
func (m *MultiObserver) EnergySample(t, consumed, rate float64) {
	for _, eo := range m.energy {
		eo.EnergySample(t, consumed, rate)
	}
}

// CoreFailed implements FaultObserver.
func (m *MultiObserver) CoreFailed(t float64, core cluster.CoreID, kind fault.Kind, repair float64) {
	for _, fo := range m.faults {
		fo.CoreFailed(t, core, kind, repair)
	}
}

// CoreRepaired implements FaultObserver.
func (m *MultiObserver) CoreRepaired(t float64, core cluster.CoreID) {
	for _, fo := range m.faults {
		fo.CoreRepaired(t, core)
	}
}

// TaskKilled implements FaultObserver.
func (m *MultiObserver) TaskKilled(t float64, task workload.Task, core cluster.CoreID) {
	for _, fo := range m.faults {
		fo.TaskKilled(t, task, core)
	}
}

// TaskRequeued implements FaultObserver.
func (m *MultiObserver) TaskRequeued(t float64, task workload.Task, attempt int) {
	for _, fo := range m.faults {
		fo.TaskRequeued(t, task, attempt)
	}
}

// BrownoutStageChanged implements BrownoutObserver.
func (m *MultiObserver) BrownoutStageChanged(t float64, stage int, frac float64) {
	for _, bo := range m.brownout {
		bo.BrownoutStageChanged(t, stage, frac)
	}
}

// TaskDecision implements DecisionObserver.
func (m *MultiObserver) TaskDecision(t float64, task workload.Task, a sched.Assignment, pred sched.Prediction, eec float64) {
	for _, do := range m.decisions {
		do.TaskDecision(t, task, a, pred, eec)
	}
}

// backlogBuckets bounds the sim_backlog_depth histogram: tasks in system
// observed at every event, roughly log-spaced up to the paper's window.
var backlogBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// simMetrics is the engine's prepared instrumentation: handles registered
// once in Run, bumped on the event loop. A nil *simMetrics (no registry
// attached) makes every method a no-op.
type simMetrics struct {
	events        [exec.NumEventKinds]*metrics.Counter // indexed by event kind
	heapHW        *metrics.Max
	backlog       *metrics.Histogram
	mapped        *metrics.Counter
	discarded     *metrics.Counter
	onTime        *metrics.Counter
	late          *metrics.Counter
	cancelled     *metrics.Counter
	exhausted     *metrics.Counter
	makespan      *metrics.Max
	faults        [2]*metrics.Counter // indexed by fault.Kind
	killed        *metrics.Counter
	requeues      *metrics.Counter
	failed        *metrics.Counter
	brownoutTrans *metrics.Counter
	brownoutGauge *metrics.Gauge
	sched         *sched.Counters
}

// newSimMetrics registers the simulator's instruments.
func newSimMetrics(r *metrics.Registry) *simMetrics {
	if r == nil {
		return nil
	}
	return &simMetrics{
		events: [exec.NumEventKinds]*metrics.Counter{
			exec.EvCompletion: r.Counter("sim_events_total", metrics.L("kind", "completion")),
			exec.EvArrival:    r.Counter("sim_events_total", metrics.L("kind", "arrival")),
			exec.EvPark:       r.Counter("sim_events_total", metrics.L("kind", "park")),
			exec.EvFault:      r.Counter("sim_events_total", metrics.L("kind", "fault")),
			exec.EvRepair:     r.Counter("sim_events_total", metrics.L("kind", "repair")),
			exec.EvRequeue:    r.Counter("sim_events_total", metrics.L("kind", "requeue")),
		},
		heapHW:    r.Max("sim_event_heap_high_water"),
		backlog:   r.Histogram("sim_backlog_depth", backlogBuckets),
		mapped:    r.Counter("sim_tasks_total", metrics.L("outcome", "mapped")),
		discarded: r.Counter("sim_tasks_total", metrics.L("outcome", "discarded")),
		onTime:    r.Counter("sim_tasks_total", metrics.L("outcome", "on-time")),
		late:      r.Counter("sim_tasks_total", metrics.L("outcome", "late")),
		cancelled: r.Counter("sim_tasks_total", metrics.L("outcome", "cancelled")),
		exhausted: r.Counter("sim_energy_exhausted_total"),
		makespan:  r.Max("sim_makespan"),
		faults: [2]*metrics.Counter{
			fault.Transient: r.Counter("sim_faults_total", metrics.L("kind", "transient")),
			fault.Permanent: r.Counter("sim_faults_total", metrics.L("kind", "permanent")),
		},
		killed:        r.Counter("sim_tasks_killed_total"),
		requeues:      r.Counter("sim_requeues_total"),
		failed:        r.Counter("sim_tasks_total", metrics.L("outcome", "failed")),
		brownoutTrans: r.Counter("sim_brownout_transitions_total"),
		brownoutGauge: r.Gauge("sim_brownout_stage"),
	}
}

// event records one processed event and the backlog observed at it.
func (m *simMetrics) event(kind, backlog int) {
	if m == nil {
		return
	}
	m.events[kind].Inc()
	m.backlog.Observe(float64(backlog))
}

func (m *simMetrics) heapDepth(n int) {
	if m == nil {
		return
	}
	m.heapHW.Observe(float64(n))
}

func (m *simMetrics) taskMapped() {
	if m == nil {
		return
	}
	m.mapped.Inc()
}

func (m *simMetrics) taskDiscarded() {
	if m == nil {
		return
	}
	m.discarded.Inc()
}

func (m *simMetrics) taskFinished(onTime bool) {
	if m == nil {
		return
	}
	if onTime {
		m.onTime.Inc()
	} else {
		m.late.Inc()
	}
}

func (m *simMetrics) taskCancelled() {
	if m == nil {
		return
	}
	m.cancelled.Inc()
}

func (m *simMetrics) faultInjected(kind fault.Kind) {
	if m == nil {
		return
	}
	m.faults[kind].Inc()
}

func (m *simMetrics) taskKilled() {
	if m == nil {
		return
	}
	m.killed.Inc()
}

func (m *simMetrics) taskRequeued() {
	if m == nil {
		return
	}
	m.requeues.Inc()
}

func (m *simMetrics) taskFailed() {
	if m == nil {
		return
	}
	m.failed.Inc()
}

func (m *simMetrics) brownoutStage(stage int) {
	if m == nil {
		return
	}
	m.brownoutTrans.Inc()
	m.brownoutGauge.Set(float64(stage))
}

func (m *simMetrics) energyExhausted() {
	if m == nil {
		return
	}
	m.exhausted.Inc()
}

func (m *simMetrics) finish(makespan float64) {
	if m == nil {
		return
	}
	m.makespan.Observe(makespan)
}

func (m *simMetrics) schedCounters() *sched.Counters {
	if m == nil {
		return nil
	}
	return m.sched
}
