package sim

// Fault injection and brownout for the simulator's event loop. The fault
// mechanics — strike, down, repair, requeue — are internal/exec's and
// shared with internal/server; this file holds what a fault step means to
// the simulator (its Result counters, trace rows, parking and central
// dispatch) and the brownout controller. Everything here is gated on
// e.Faults / e.bro being non-nil, so the paper's fault-free, hard-halt
// configuration takes none of these paths and stays bit-identical
// (enforced by test and benchmark).

import (
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/workload"
)

// faultWorkRemains reports whether any task could still be affected by a
// future failure: arrivals pending, tasks queued or running, requeues in
// flight, or (central mode) tasks pooled. Once it is false, fault events
// are dropped instead of processed, which is what lets the event loop drain
// — the stochastic processes otherwise reschedule themselves forever.
func (e *engine) faultWorkRemains() bool {
	return e.arrived < len(e.trial.Tasks) || e.InSystem > 0 || len(e.Faults.Requeues) > 0 || len(e.pool) > 0
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
			if e.Queues[i].Len() == 0 && !e.CoreDown(i) {
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

// Struck counts every strike, applied or not.
func (e hooks) Struck(_ float64, kind fault.Kind, _, _ int, _ bool, _ float64) {
	e.res.Faults++
	e.met.faultInjected(kind)
}

// Stranded counts a running task that the strike killed.
func (e hooks) Stranded(_ float64, _ int, _ *exec.Entry, started bool) {
	if started {
		e.res.TasksKilled++
		e.met.taskKilled()
	}
}

// Downed cancels the downed core's park check and ends its parked span.
func (e hooks) Downed(now float64, coreIdx int) {
	if e.cfg.Park.Enabled {
		e.idleGen[coreIdx]++ // invalidate pending park checks
		if e.parked[coreIdx] {
			e.parked[coreIdx] = false
			e.res.ParkedTime += now - e.parkedAt[coreIdx]
		}
	}
}

// Repaired closes the core's down span. The core, back at the idle
// P-state, settles as any idle core does and is offered pooled work.
func (e hooks) Repaired(now float64, coreIdx int, applied bool) {
	if !applied {
		return
	}
	e.res.DownTime += now - e.Faults.DownAt[coreIdx]
	e.idle(now, coreIdx)
	e.dispatch(now)
}

// Lost records a task as lost to failure.
func (e hooks) Lost(_ float64, task workload.Task) {
	e.res.LostToFailure++
	e.met.taskFailed()
	if e.cfg.Trace {
		e.res.Traces[task.ID].Outcome = OutcomeFailed
	}
}

// Requeued needs nothing beyond the shared step.
func (hooks) Requeued(float64, int, exec.Requeued) {}

// Fired needs nothing beyond the shared step.
func (hooks) Fired(float64, int) {}

// Retry re-dispatches a stranded task. In immediate mode it re-enters the
// mapper — full candidate enumeration and filter chain, so a retry still
// has to justify its energy and robustness. In central mode it rejoins the
// pool. A retry that fails admission goes back through recovery, consuming
// another attempt, until the bound is hit.
func (e hooks) Retry(now float64, _ int, r exec.Requeued) {
	e.res.Retries++
	e.met.taskRequeued()
	if e.central != nil {
		e.pool = append(e.pool, r.Task)
		e.poolAtt = append(e.poolAtt, r.Attempts)
		e.dispatch(now)
		return
	}
	chosen := e.decide(now, r.Task, len(e.trial.Tasks)-e.arrived)
	if chosen == nil {
		e.Recover(now, r.Task, r.Attempts)
		return
	}
	// The retry charges the energy estimate again (the first attempt's
	// joules are genuinely gone) and counts as a fresh mapping decision,
	// as a requeued task re-entering the central pool does.
	e.commit(now, r.Task, chosen.Assignment, chosen.EEC, chosen.Predict, r.Attempts)
}

var _ exec.Hooks = hooks{}
