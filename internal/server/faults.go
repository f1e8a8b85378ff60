package server

// Live fault injection for the serving engine. The fault decisions are
// internal/fault's and shared with internal/sim: which victim a stochastic
// strike hits (fault.PickVictim) and whether and when a stranded task is
// retried (fault.Recovery.Retry). The mechanics that apply them are still
// written here as well as in the simulator: a failure kills whatever the
// stricken core is doing (the energy is already spent), the run-generation
// counter invalidates its pending completion event, and stranded tasks go
// through the recovery policy. What only the serving path does: every
// transition is logged to the WAL before it mutates state, so replay
// applies it without re-drawing, and every strike feeds the per-node
// circuit breakers, so mapping routes around flapping nodes instead of
// rediscovering them the hard way.

import (
	"sort"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/workload"
)

// scheduleFaults seeds the event heap with the first firing of each
// enabled stochastic process and every scripted entry, mirroring the
// absolute firing times into the checkpointable schedule fields.
func (e *Engine) scheduleFaults() {
	spec := &e.cfg.Faults
	if spec.Transient.Enabled {
		e.nextTransient = spec.Transient.Sample(e.transientRng)
		e.Events.Push(exec.Event{Time: e.nextTransient, Kind: evFault, Idx: srcTransient})
	}
	if spec.Permanent.Enabled {
		e.nextPermanent = spec.Permanent.Sample(e.permanentRng)
		e.Events.Push(exec.Event{Time: e.nextPermanent, Kind: evFault, Idx: srcPermanent})
	}
	for i, sf := range spec.Script {
		e.Events.Push(exec.Event{Time: sf.Time, Kind: evFault, Idx: srcScript + i})
	}
}

// handleFault fires one failure source at virtual time now: picks the
// victim (stochastic sources), injects it, and reschedules the process.
// The closing fsched record carries the post-draw process stream states and
// the absolute next firing, so replay reschedules without re-drawing.
func (e *Engine) handleFault(now float64, src int) {
	spec := &e.cfg.Faults
	switch src {
	case srcTransient:
		if idx, ok := fault.PickVictim(e.targetRng, e.down, false); ok {
			e.injectFault(now, fault.Transient, idx, -1, spec.RepairTime)
		}
		e.nextTransient = 0
		if fault.CountEligible(e.alive, true) > 0 {
			e.nextTransient = now + spec.Transient.Sample(e.transientRng)
			e.Events.Push(exec.Event{Time: e.nextTransient, Kind: evFault, Idx: srcTransient})
		}
		if e.walOn() {
			e.walAppend(&walRecord{K: wkFsched, T: now, Src: "transient", NX: e.nextTransient,
				TRS: hexState(e.transientRng.State()), TGS: hexState(e.targetRng.State())})
		}
	case srcPermanent:
		if node, ok := fault.PickVictim(e.targetRng, e.alive, true); ok {
			e.injectFault(now, fault.Permanent, -1, node, 0)
		}
		e.nextPermanent = 0
		if fault.CountEligible(e.alive, true) > 0 {
			e.nextPermanent = now + spec.Permanent.Sample(e.permanentRng)
			e.Events.Push(exec.Event{Time: e.nextPermanent, Kind: evFault, Idx: srcPermanent})
		}
		if e.walOn() {
			e.walAppend(&walRecord{K: wkFsched, T: now, Src: "permanent", NX: e.nextPermanent,
				PRS: hexState(e.permanentRng.State()), TGS: hexState(e.targetRng.State())})
		}
	default:
		i := src - srcScript
		sf := spec.Script[i]
		if sf.Kind == fault.Permanent {
			e.injectFault(now, fault.Permanent, -1, sf.Node, 0)
		} else {
			e.injectFault(now, fault.Transient, sf.Core, -1, spec.ScriptedRepair(sf))
		}
		e.scriptFired[i] = true
		e.walAppend(&walRecord{K: wkFsched, T: now, Src: "script", SI: i})
	}
}

// injectFault applies one failure and feeds the circuit breaker. The fault
// record goes to the WAL before any mutation — with the applied flag, the
// absolute repair time, and the post-draw target stream state — so replay
// applies the same strike to the same victim without re-drawing.
func (e *Engine) injectFault(now float64, kind fault.Kind, coreIdx, node int, repair float64) {
	e.st.faults.Add(1)
	e.met.faults.Inc()
	if kind == fault.Permanent {
		applied := e.alive[node]
		if e.walOn() {
			e.walAppend(&walRecord{K: wkFault, T: now, Src: "permanent", Core: -1, Node: node,
				AP: applied, TGS: hexState(e.targetRng.State())})
		}
		if !applied {
			// A scripted strike on an already-dead node: counted, no effect.
			return
		}
		e.alive[node] = false
		e.tripBreaker(node, now, true)
		for idx, id := range e.Cores {
			if id.Node == node {
				e.downCore(now, kind, idx, 0)
			}
		}
		return
	}
	applied := !e.down[coreIdx]
	rp := 0.0
	if applied {
		rp = now + repair
	}
	if e.walOn() {
		e.walAppend(&walRecord{K: wkFault, T: now, Src: "transient", Core: coreIdx,
			Node: e.Cores[coreIdx].Node, AP: applied, RP: rp, TGS: hexState(e.targetRng.State())})
	}
	e.tripBreaker(e.Cores[coreIdx].Node, now, false)
	e.downCore(now, kind, coreIdx, repair)
}

// tripBreaker records a strike, publishes any open transition, and logs the
// automaton's new state.
func (e *Engine) tripBreaker(node int, now float64, permanent bool) {
	if e.brk == nil {
		return
	}
	snap := e.brkSnap()
	before := e.brk.opens
	e.brk.onFault(node, now, permanent)
	if d := e.brk.opens - before; d > 0 {
		e.st.brkOpens.Add(int64(d))
		e.met.breakerOpens.Inc()
	}
	e.walBreakerDiff(now, snap)
}

// downCore takes one core down: kills its queue, hands stranded tasks to
// recovery, zeroes its draw, and (transient only) schedules the repair.
func (e *Engine) downCore(now float64, kind fault.Kind, coreIdx int, repair float64) {
	if e.down[coreIdx] {
		return
	}
	e.down[coreIdx] = true
	e.runGen[coreIdx]++ // pending completion (if any) is now stale
	if e.fobs != nil {
		e.fobs.CoreFailed(now, e.Cores[coreIdx], kind, repair)
	}
	q := &e.Queues[coreIdx]
	e.ftc.Invalidate(coreIdx)
	if q.Len() > 0 {
		e.inSystem -= q.Len()
		for _, ent := range q.Run {
			if e.fobs != nil {
				e.fobs.TaskKilled(now, ent.Task, e.Cores[coreIdx])
			}
			e.walAppend(&walRecord{K: wkKill, T: now, ID: ent.Task.ID, Core: coreIdx, Att: ent.Attempts})
			e.recoverTask(now, ent.Task, ent.Attempts)
		}
		q.Clear()
		e.updInflight()
	}
	e.Meter.SetPower(coreIdx, 0)
	if kind == fault.Transient {
		e.repairAt[coreIdx] = now + repair
		e.Events.Push(exec.Event{Time: now + repair, Kind: evRepair, Idx: coreIdx})
	}
}

// handleRepair brings a transiently-failed core back at the idle P-state.
func (e *Engine) handleRepair(now float64, coreIdx int) {
	if !e.down[coreIdx] {
		return
	}
	if !e.alive[e.Cores[coreIdx].Node] {
		// The node died permanently while this core's repair was pending;
		// the repair must not resurrect it.
		e.repairAt[coreIdx] = 0
		e.walAppend(&walRecord{K: wkRepair, T: now, Core: coreIdx, AP: false})
		return
	}
	e.repairAt[coreIdx] = 0
	e.down[coreIdx] = false
	e.Meter.ClearPower(coreIdx)
	e.SetPState(now, coreIdx, e.cfg.IdlePState)
	e.walAppend(&walRecord{K: wkRepair, T: now, Core: coreIdx, AP: true})
	if e.fobs != nil {
		e.fobs.CoreRepaired(now, e.Cores[coreIdx])
	}
}

// recoverTask routes one stranded task through the recovery policy. used
// is the retry count the task has already consumed. Deterministic given
// (now, task, used): no randomness is consumed, which is what lets recovery
// re-run it for dangling kills whose disposition was lost to a torn tail.
func (e *Engine) recoverTask(now float64, task workload.Task, used int) {
	delay, retry := e.cfg.Faults.Recovery.Retry(now, task.Deadline, used)
	if !retry {
		e.walFailRec(now, task.ID, FailFault)
		e.fail(task, FailFault)
		return
	}
	if e.fobs != nil {
		e.fobs.TaskRequeued(now, task, used+1)
	}
	slot := e.reqSeq
	e.reqSeq++
	fireAt := now + delay
	e.requeues[slot] = requeueEntry{task: task, attempts: used + 1, fireAt: fireAt}
	if e.walOn() {
		e.walAppend(&walRecord{K: wkRequeue, T: now,
			ID: task.ID, Ty: task.Type, Arr: task.Arrival, DL: task.Deadline,
			U: task.U, Pri: task.Priority,
			Slot: slot, Att: used + 1, FT: fireAt,
			DS: hexState(e.rand.State())})
	}
	e.Events.Push(exec.Event{Time: fireAt, Kind: evRequeue, Idx: slot})
}

// requeueSlots lists the pending requeue slots in ascending order: the
// order recovery requeued their tasks. Everything that walks the slots —
// the shutdowns failing them, checkpoints, the event rebuild — walks them
// in this order, so none of it depends on map iteration.
func (e *Engine) requeueSlots() []int {
	slots := make([]int, 0, len(e.requeues))
	for s := range e.requeues {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	return slots
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

// handleRequeue re-dispatches a previously-stranded task through the full
// mapping pipeline; a retry that fails admission goes back through
// recovery, consuming another attempt, until the bound is hit.
func (e *Engine) handleRequeue(now float64, slot int) {
	entry, ok := e.requeues[slot]
	if !ok {
		return
	}
	delete(e.requeues, slot)
	e.st.retries.Add(1)
	e.met.retries.Inc()
	e.walAppend(&walRecord{K: wkRetry, T: now, Slot: slot, ID: entry.task.ID})
	snap := e.brkSnap()
	chosen := e.mapTask(now, entry.task, nil)
	if chosen == nil {
		e.recoverTask(now, entry.task, entry.attempts)
		e.walBreakerDiff(now, snap)
		e.updInflight()
		return
	}
	e.place(now, entry.task, chosen, entry.attempts)
	e.walBreakerDiff(now, snap)
}
