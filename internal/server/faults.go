package server

// What a fault step means to the serving engine. The mechanics — strike,
// down, repair, requeue — are internal/exec's and shared with
// internal/sim; this file holds the serving side of them. Every transition
// is logged to the WAL before it mutates state, so replay applies it
// without re-drawing, and every strike feeds the per-node circuit
// breakers, so mapping routes around flapping nodes instead of
// rediscovering them the hard way.

import (
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/workload"
)

// Struck counts the strike and logs it before any mutation — with the
// applied flag, the absolute repair time, and the post-draw target stream
// state, so replay applies the same strike to the same victim without
// re-drawing. Then the node's circuit breaker records the strike, unless
// it is a permanent one on a node already dead; any open transition is
// published and the automaton's new state logged.
func (e hooks) Struck(now float64, kind fault.Kind, core, node int, applied bool, repairAt float64) {
	e.st.faults.Add(1)
	e.met.faults.Inc()
	if e.walOn() {
		e.walAppend(&walRecord{K: wkFault, T: now, Src: kind.String(), Core: core, Node: node,
			AP: applied, RP: repairAt, TGS: hexState(e.Faults.TargetRng.State())})
	}
	if e.brk == nil || !applied && kind == fault.Permanent {
		return
	}
	snap := e.brkSnap()
	before := e.brk.opens
	e.brk.onFault(node, now, kind == fault.Permanent)
	if d := e.brk.opens - before; d > 0 {
		e.st.brkOpens.Add(int64(d))
		e.met.breakerOpens.Inc()
	}
	e.walBreakerDiff(now, snap)
}

// Stranded logs the kill of one stranded task.
func (e hooks) Stranded(now float64, idx int, ent *exec.Entry, _ bool) {
	e.walAppend(&walRecord{K: wkKill, T: now, ID: ent.Task.ID, Core: idx, Att: ent.Attempts})
}

// Downed republishes the in-flight count.
func (e hooks) Downed(float64, int) { e.updInflight() }

// Repaired logs the repair, applied or not.
func (e hooks) Repaired(now float64, idx int, applied bool) {
	e.walAppend(&walRecord{K: wkRepair, T: now, Core: idx, AP: applied})
}

// Lost fails the task for good.
func (e hooks) Lost(now float64, task workload.Task) {
	e.walFailRec(now, task.ID, FailFault)
	e.fail(task, FailFault)
}

// Requeued logs the retry slot with the task's full identity and the
// decision stream state.
func (e hooks) Requeued(now float64, slot int, r exec.Requeued) {
	if !e.walOn() {
		return
	}
	task := r.Task
	e.walAppend(&walRecord{K: wkRequeue, T: now,
		ID: task.ID, Ty: task.Type, Arr: task.Arrival, DL: task.Deadline,
		U: task.U, Pri: task.Priority,
		Slot: slot, Att: r.Attempts, FT: r.FireAt,
		DS: hexState(e.rand.State())})
}

// Fired logs the source's post-draw process stream states and its
// absolute next firing, so replay reschedules it without re-drawing.
func (e hooks) Fired(now float64, src int) {
	if !e.walOn() {
		return
	}
	f := e.Faults
	rec := walRecord{K: wkFsched, T: now, Src: "script", SI: src - exec.SrcScript}
	switch src {
	case exec.SrcTransient:
		rec = walRecord{K: wkFsched, T: now, Src: "transient", NX: f.NextTransient,
			TRS: hexState(f.TransientRng.State()), TGS: hexState(f.TargetRng.State())}
	case exec.SrcPermanent:
		rec = walRecord{K: wkFsched, T: now, Src: "permanent", NX: f.NextPermanent,
			PRS: hexState(f.PermanentRng.State()), TGS: hexState(f.TargetRng.State())}
	}
	e.walAppend(&rec)
}

// walFailRec logs one stranded task lost for good. The decision stream
// state rides along because the fail may follow a remap attempt that
// consumed heuristic draws without producing a map record.
func (e *Engine) walFailRec(now float64, id int, reason string) {
	if !e.walOn() {
		return
	}
	e.walAppend(&walRecord{K: wkFail, T: now, ID: id, Rsn: reason, DS: hexState(e.rand.State())})
}

// Retry re-dispatches a stranded task through the full mapping pipeline;
// a retry that fails admission goes back through recovery, consuming
// another attempt, until the bound is hit.
func (e hooks) Retry(now float64, slot int, r exec.Requeued) {
	e.st.retries.Add(1)
	e.met.retries.Inc()
	e.walAppend(&walRecord{K: wkRetry, T: now, Slot: slot, ID: r.Task.ID})
	snap := e.brkSnap()
	chosen := e.mapTask(now, r.Task, nil)
	if chosen == nil {
		e.Recover(now, r.Task, r.Attempts)
		e.walBreakerDiff(now, snap)
		e.updInflight()
		return
	}
	e.place(now, r.Task, chosen, r.Attempts)
	e.walBreakerDiff(now, snap)
}

var _ exec.Hooks = hooks{}
