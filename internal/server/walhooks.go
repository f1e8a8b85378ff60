package server

// WAL emission hooks: every helper here runs on the engine goroutine (and
// therefore may read the meter and RNG streams) except walReject, which
// handler goroutines call and which touches only atomic mirrors. Each hook
// is a no-op when durability is off, so the WAL-less hot path pays one
// predictable branch per transition.

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// walOn reports whether the engine should emit WAL records. Engine
// goroutine only: walDead is unsynchronized.
func (e *Engine) walOn() bool { return e.wal != nil && !e.walDead }

// walAppend stamps the record with the meter's absolute coordinates and
// stages it. Engine goroutine only.
func (e *Engine) walAppend(rec *walRecord) {
	if !e.walOn() {
		return
	}
	rec.MT = e.Meter.Now()
	rec.EN = e.Meter.Consumed()
	e.wal.append(rec)
	e.met.walRecords.Inc()
}

// walReject logs one pre-admission rejection. Handler goroutines call this,
// so the record carries no meter coordinates (the meter is confined to the
// engine goroutine; replay tracks the meter through engine records only)
// and the virtual time comes from the atomic mirror. The record rides the
// next group commit — the 429/503 response does not wait for the fsync:
// rejects only move counters, so a bounded tail loss is acceptable where an
// fsync stall on the overload path is not.
func (e *Engine) walReject(reason, tenant string) {
	if e.recovering.Load() || e.wal == nil {
		return
	}
	e.wal.append(&walRecord{
		K:   wkReject,
		T:   math.Float64frombits(e.virtualAt.Load()),
		Rsn: reason,
		TN:  tenant,
	})
	e.met.walRecords.Inc()
}

// walAdmit logs one durably-admitted task: full identity, the request's
// energy cap, and the post-draw quantile stream state. Recovery can
// re-decide the task from this record alone.
func (e *Engine) walAdmit(now float64, task workload.Task, maxEnergy *float64) {
	if !e.walOn() {
		return
	}
	e.walAppend(&walRecord{
		K: wkAdmit, T: now,
		ID: task.ID, Ty: task.Type, Arr: task.Arrival, DL: task.Deadline,
		U: task.U, Pri: task.Priority, ME: maxEnergy,
		TN: task.Tenant, Cls: int(task.Class),
		QS: hexState(e.quantRn.State()),
	})
}

// walShed logs one admission-pipeline rejection. The decision stream state
// is captured because a filtered shed may have consumed heuristic draws.
func (e *Engine) walShed(now float64, id int, reason, tenant string) {
	if !e.walOn() {
		return
	}
	e.walAppend(&walRecord{
		K: wkShed, T: now, ID: id, Rsn: reason, TN: tenant,
		DS: hexState(e.rand.State()),
	})
}

// walMap logs one assignment (first mapping or retry placement) with full
// task identity — map records must be self-contained so a replay that lost
// the admit record to a checkpoint cut can still reconstruct the queue
// entry — plus the post-draw decision stream state.
func (e *Engine) walMap(now float64, task workload.Task, coreIdx int, ps cluster.PState, actual float64, attempts int) {
	if !e.walOn() {
		return
	}
	e.walAppend(&walRecord{
		K: wkMap, T: now,
		ID: task.ID, Ty: task.Type, Arr: task.Arrival, DL: task.Deadline,
		U: task.U, Pri: task.Priority,
		TN: task.Tenant, Cls: int(task.Class),
		Core: coreIdx, PS: int(ps), Act: actual, Att: attempts,
		New: attempts == 0,
		DS:  hexState(e.rand.State()),
	})
}

// brkSnapshot is one node's breaker automaton state, value-copied for
// diffing (nodeBreaker itself embeds an atomic and cannot be copied).
type brkSnapshot struct {
	state     breakerState
	strikes   int
	openUntil float64
	probing   bool
	dead      bool
}

// brkSnap captures every node's breaker state into a reused scratch slice.
// Returns nil when there is nothing to diff against (no breakers, or no
// armed WAL).
func (e *Engine) brkSnap() []brkSnapshot {
	if e.brk == nil || !e.walOn() {
		return nil
	}
	if cap(e.brkScratch) < len(e.brk.nodes) {
		e.brkScratch = make([]brkSnapshot, len(e.brk.nodes))
	}
	snap := e.brkScratch[:len(e.brk.nodes)]
	for n := range e.brk.nodes {
		nb := &e.brk.nodes[n]
		snap[n] = brkSnapshot{nb.state, nb.strikes, nb.openUntil, nb.probing, nb.dead}
	}
	return snap
}

// walBreakerDiff emits one record per node whose breaker automaton changed
// since snap, carrying the full new state (not the transition), so replay
// installs rather than re-derives. A nil snap (WAL off, no breakers) is a
// no-op.
func (e *Engine) walBreakerDiff(now float64, snap []brkSnapshot) {
	if snap == nil || !e.walOn() {
		return
	}
	for n := range e.brk.nodes {
		nb := &e.brk.nodes[n]
		if snap[n] == (brkSnapshot{nb.state, nb.strikes, nb.openUntil, nb.probing, nb.dead}) {
			continue
		}
		e.walAppend(&walRecord{
			K: wkBreaker, T: now, Node: n,
			BSt: int(nb.state), Strikes: nb.strikes, Until: nb.openUntil,
			Probing: nb.probing, Dead: nb.dead, Opens: e.brk.opens,
		})
	}
}
