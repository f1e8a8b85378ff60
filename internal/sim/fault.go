package sim

// Fault injection and brownout mechanics for the simulator's event loop.
// Everything here is gated on e.flt / e.bro being non-nil, so the paper's
// fault-free, hard-halt configuration takes none of these paths and stays
// bit-identical (enforced by test and benchmark).
//
// A failure event kills whatever the stricken core is doing: the running
// task's energy is already spent and cannot be refunded; the run generation
// counter invalidates its pending completion event; and the running plus
// waiting tasks go to the recovery policy (drop, or requeue with bounded
// retries through the full filter chain). A transiently-failed core draws
// zero watts until its repair event; a permanently-failed node's cores
// never come back. Which victim a strike hits and whether a stranded task
// is retried are internal/fault's decisions, shared with internal/server;
// this file applies them.

import (
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/randx"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Fault-source indices carried in evFault events: the two stochastic
// processes, then the scripted entries.
const (
	srcTransient = 0
	srcPermanent = 1
	srcScript    = 2 // scripted fault i has source srcScript+i
)

// faultRuntime is the engine's failure-injection state.
type faultRuntime struct {
	spec fault.Spec
	// Independent child streams per decision type, so adding draws to one
	// process never perturbs the other.
	transientRng *randx.Stream
	permanentRng *randx.Stream
	targetRng    *randx.Stream

	down     []bool    // per flat core index
	downAt   []float64 // time the core went down (valid while down)
	nodeDead []bool    // per node index
	runGen   []int     // bumped on failure; stale completions are dropped
	attempts map[int]int
	avail    float64 // steady-state availability for the reliability filter
}

// initFaults prepares the runtime and schedules the first failure of each
// enabled process plus every scripted fault.
func (e *engine) initFaults(decisions *randx.Stream) {
	rng := decisions.Child("fault")
	f := &faultRuntime{
		spec:         e.cfg.Faults,
		transientRng: rng.Child("transient"),
		permanentRng: rng.Child("permanent"),
		targetRng:    rng.Child("target"),
		down:         make([]bool, len(e.Queues)),
		downAt:       make([]float64, len(e.Queues)),
		nodeDead:     make([]bool, e.cfg.Model.Cluster.N()),
		runGen:       make([]int, len(e.Queues)),
		attempts:     make(map[int]int),
		avail:        e.cfg.Faults.Availability(),
	}
	e.flt = f
	e.coreUpFn = func(idx int) bool { return !f.down[idx] }
	e.availFn = func(int) float64 { return f.avail }
	if f.spec.Transient.Enabled {
		e.push(exec.Event{Time: f.spec.Transient.Sample(f.transientRng), Kind: evFault, Idx: srcTransient})
	}
	if f.spec.Permanent.Enabled {
		e.push(exec.Event{Time: f.spec.Permanent.Sample(f.permanentRng), Kind: evFault, Idx: srcPermanent})
	}
	for i, sf := range f.spec.Script {
		e.push(exec.Event{Time: sf.Time, Kind: evFault, Idx: srcScript + i})
	}
}

// coreDown reports whether a core is currently failed.
func (e *engine) coreDown(coreIdx int) bool {
	return e.flt != nil && e.flt.down[coreIdx]
}

// faultWorkRemains reports whether any task could still be affected by a
// future failure: arrivals pending, tasks queued or running, requeue events
// in flight, or (central mode) tasks pooled. Once it is false, fault events
// are dropped instead of processed, which is what lets the event loop drain
// — the stochastic processes otherwise reschedule themselves forever.
func (e *engine) faultWorkRemains() bool {
	return e.arrived < len(e.trial.Tasks) || e.inSystem > 0 || e.pendingReq > 0 || len(e.pool) > 0
}

// decorateCtx attaches the fault/brownout state the scheduler needs: down
// cores drop out of candidate enumeration, availability discounts ρ for the
// reliability filter, and an active brownout stage floors the P-state and
// caps ζ_mul. All fields stay nil/zero when the features are off.
func (e *engine) decorateCtx(ctx *sched.Context) {
	ctx.FreeTimes = e.ftc
	ctx.Arena = e.arena
	if e.flt != nil {
		ctx.CoreUp = e.coreUpFn
		ctx.Availability = e.availFn
	}
	if e.bro != nil {
		if st := e.bro.Current(); st != nil {
			ctx.PStateFloor = st.PStateFloor
			ctx.ZetaMulOverride = st.ZetaMul
		}
	}
}

// checkBrownout advances the brownout automaton after a meter advance and
// applies any newly-tripped stage's measures. Transitions are detected at
// event granularity: the consumed fraction is only inspected when the
// simulation clock moves, so a stage formally trips at the first event at
// or after the crossing instant (documented in DESIGN.md).
func (e *engine) checkBrownout(now float64) {
	if e.bro == nil {
		return
	}
	frac := e.Meter.Consumed() / e.Meter.Budget()
	stage, changed := e.bro.Update(frac)
	if !changed {
		return
	}
	e.res.BrownoutStage = stage
	e.met.brownoutStage(stage)
	if e.bobs != nil {
		e.bobs.BrownoutStageChanged(now, stage, frac)
	}
	if st := e.bro.Current(); st.ParkIdle {
		for i := range e.Queues {
			if e.Queues[i].Len() == 0 && !e.coreDown(i) {
				e.Meter.SetPower(i, 0)
			}
		}
	}
}

// applyIdlePower power-gates a core that just went idle when the active
// brownout stage calls for it (otherwise the core sits at the idle P-state
// power as usual).
func (e *engine) applyIdlePower(coreIdx int) {
	if e.bro == nil {
		return
	}
	if st := e.bro.Current(); st != nil && st.ParkIdle {
		e.Meter.SetPower(coreIdx, 0)
	}
}

// handleFault fires one failure: picks the victim (for stochastic sources),
// injects it, and reschedules the source process.
func (e *engine) handleFault(now float64, src int) {
	f := e.flt
	switch src {
	case srcTransient:
		if idx, ok := fault.PickVictim(f.targetRng, f.down, false); ok {
			e.injectFault(now, fault.Transient, idx, -1, f.spec.RepairTime)
		}
		// With every node permanently dead no core can ever be struck
		// again; rescheduling would spin the loop forever.
		if fault.CountEligible(f.nodeDead, false) > 0 {
			e.push(exec.Event{Time: now + f.spec.Transient.Sample(f.transientRng), Kind: evFault, Idx: srcTransient})
		}
	case srcPermanent:
		if node, ok := fault.PickVictim(f.targetRng, f.nodeDead, false); ok {
			e.injectFault(now, fault.Permanent, -1, node, 0)
		}
		if fault.CountEligible(f.nodeDead, false) > 0 {
			e.push(exec.Event{Time: now + f.spec.Permanent.Sample(f.permanentRng), Kind: evFault, Idx: srcPermanent})
		}
	default:
		sf := f.spec.Script[src-srcScript]
		if sf.Kind == fault.Permanent {
			e.injectFault(now, fault.Permanent, -1, sf.Node, 0)
		} else {
			e.injectFault(now, fault.Transient, sf.Core, -1, f.spec.ScriptedRepair(sf))
		}
	}
}

// injectFault applies one failure (transient: coreIdx; permanent: every
// core of node). Striking an already-down core is counted but changes
// nothing further.
func (e *engine) injectFault(now float64, kind fault.Kind, coreIdx, node int, repair float64) {
	e.res.Faults++
	e.met.faultInjected(kind)
	if kind == fault.Permanent {
		if e.flt.nodeDead[node] {
			return
		}
		e.flt.nodeDead[node] = true
		for idx, id := range e.Cores {
			if id.Node == node {
				e.downCore(now, kind, idx, 0)
			}
		}
		return
	}
	e.downCore(now, kind, coreIdx, repair)
}

// downCore takes one core down: kills its queue, hands the stranded tasks
// to recovery, zeroes its draw, and (for transient faults) schedules the
// repair.
func (e *engine) downCore(now float64, kind fault.Kind, coreIdx int, repair float64) {
	f := e.flt
	if f.down[coreIdx] {
		return
	}
	f.down[coreIdx] = true
	f.downAt[coreIdx] = now
	f.runGen[coreIdx]++ // pending completion (if any) is now stale
	if e.fobs != nil {
		e.fobs.CoreFailed(now, e.Cores[coreIdx], kind, repair)
	}
	q := &e.Queues[coreIdx]
	e.ftc.Invalidate(coreIdx)
	e.inSystem -= q.Len()
	for i := range q.Run {
		if q.Snap[i].Started {
			e.res.TasksKilled++
			e.met.taskKilled()
		}
		if e.fobs != nil {
			e.fobs.TaskKilled(now, q.Run[i].Task, e.Cores[coreIdx])
		}
		e.recoverTask(now, q.Run[i].Task)
	}
	q.Clear()
	if e.cfg.Park.Enabled {
		e.idleGen[coreIdx]++ // invalidate pending park checks
		if e.parked[coreIdx] {
			e.parked[coreIdx] = false
			e.res.ParkedTime += now - e.parkedAt[coreIdx]
		}
	}
	e.Meter.SetPower(coreIdx, 0)
	if kind == fault.Transient {
		e.push(exec.Event{Time: now + repair, Kind: evRepair, Idx: coreIdx})
	}
}

// handleRepair brings a transiently-failed core back: it returns at the
// idle P-state (or gated, under a parking brownout stage) and becomes
// eligible for work again.
func (e *engine) handleRepair(now float64, coreIdx int) {
	f := e.flt
	if !f.down[coreIdx] {
		return
	}
	if f.nodeDead[e.Cores[coreIdx].Node] {
		// The node died permanently while this core's transient repair was
		// pending; the repair must not resurrect it.
		return
	}
	f.down[coreIdx] = false
	e.res.DownTime += now - f.downAt[coreIdx]
	e.Meter.ClearPower(coreIdx)
	e.SetPState(now, coreIdx, e.cfg.IdlePState)
	e.applyIdlePower(coreIdx)
	if e.fobs != nil {
		e.fobs.CoreRepaired(now, e.Cores[coreIdx])
	}
	if e.cfg.Park.Enabled {
		e.idleGen[coreIdx]++
		e.push(exec.Event{Time: now + e.cfg.Park.Timeout, Kind: evPark, Idx: coreIdx, Gen: e.idleGen[coreIdx]})
	}
	e.dispatch(now)
}

// recoverTask routes one stranded task through the recovery policy: either
// it is lost, or a requeue event is scheduled after the backoff.
func (e *engine) recoverTask(now float64, task workload.Task) {
	used := e.flt.attempts[task.ID]
	delay, retry := e.flt.spec.Recovery.Retry(now, task.Deadline, used)
	if !retry {
		e.loseTask(task)
		return
	}
	e.flt.attempts[task.ID] = used + 1
	if e.fobs != nil {
		e.fobs.TaskRequeued(now, task, used+1)
	}
	e.pendingReq++
	e.push(exec.Event{Time: now + delay, Kind: evRequeue, Idx: task.ID})
}

// loseTask records a task as lost to failure.
func (e *engine) loseTask(task workload.Task) {
	e.res.LostToFailure++
	e.met.taskFailed()
	if e.cfg.Trace {
		e.res.Traces[task.ID].Outcome = OutcomeFailed
	}
}

// handleRequeue re-dispatches a previously-stranded task. In immediate mode
// it re-enters the mapper — full candidate enumeration and filter chain, so
// a retry still has to justify its energy and robustness. In central mode
// it rejoins the pool. A retry that fails admission goes back through
// recovery, consuming another attempt, until the bound is hit.
func (e *engine) handleRequeue(now float64, taskID int) {
	e.pendingReq--
	e.res.Retries++
	e.met.taskRequeued()
	task := e.trial.Tasks[taskID]
	if e.central != nil {
		e.pool = append(e.pool, task)
		e.dispatch(now)
		return
	}
	chosen := e.decide(now, task, len(e.trial.Tasks)-e.arrived)
	if chosen == nil {
		e.recoverTask(now, task)
		return
	}
	// The retry charges the energy estimate again (the first attempt's
	// joules are genuinely gone) and counts as a fresh mapping decision,
	// as a requeued task re-entering the central pool does.
	e.commit(now, task, chosen.Assignment, chosen.EEC, chosen.Predict)
}
