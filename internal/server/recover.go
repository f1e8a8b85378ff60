package server

// Crash-restart recovery: checkpoint + WAL-suffix replay.
//
// The recovery contract is bit-identity: an engine recovered at any record
// boundary continues exactly as the uninterrupted engine would have —
// same decisions, same RNG draws, same meter integration, same FinalReport.
// Three disciplines make that possible:
//
//   - records carry absolute meter coordinates and post-draw RNG stream
//     states, so replay installs rather than re-derives;
//   - replay applies record effects directly (counters, queues, breaker
//     automata) and never runs engine logic — with one deliberate
//     exception: *danglers*. The durable stream can only be cut at its very
//     end, so any task whose disposition fell past the cut (a killed task
//     without its requeue/fail record, a fired retry without its outcome,
//     an admit without its decision) is finished through the real engine
//     methods, which are deterministic given the restored stream states and
//     write their records into the new incarnation's WAL;
//   - the event heap is rebuilt canonically from the restored state
//     (completions from started queue heads, fault processes from the
//     mirrored schedule, repairs from repairAt, requeues from their fire
//     times), in a fixed order with the tie-break sequence reset.
//
// Replay streams the WAL: after the header's identity check and the
// checkpoint restore, each suffix record is applied as it is decoded, so
// recovery holds one record at a time whatever the log's length. A
// corrupt line before the final one therefore fails recovery after part
// of the suffix was applied; a failed engine is discarded, never started.
//
// Recovery rotates the WAL: the recovered engine writes incarnation n+1 and
// a fresh checkpoint naming it. Until that checkpoint's atomic rename
// lands, the old checkpoint still points at the old, untouched WAL — a
// crash anywhere inside recovery just means recovering again from the same
// inputs.

import (
	"errors"
	"fmt"
	"math"
	"os"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/randx"
	"repro/internal/workload"
)

// RecoveryReport summarizes one RecoverFrom pass.
type RecoveryReport struct {
	// Incarnation is the NEW WAL incarnation the recovered engine writes.
	Incarnation uint64 `json:"incarnation"`
	// FromCheckpoint is false when the whole genesis WAL was replayed.
	FromCheckpoint bool `json:"fromCheckpoint"`
	// CheckpointRecords is the replay cut (records already in the snapshot).
	CheckpointRecords uint64 `json:"checkpointRecords"`
	// ReplayedRecords counts WAL records applied after the cut.
	ReplayedRecords int `json:"replayedRecords"`
	// TornTail reports a torn final line (crash mid-append), dropped at
	// TornOffset.
	TornTail   bool  `json:"tornTail"`
	TornOffset int64 `json:"tornOffset,omitempty"`
	// ReDecided counts durably-admitted tasks whose decision was lost and
	// re-made; Danglers counts killed/retried tasks whose disposition was
	// lost and re-derived.
	ReDecided int `json:"reDecided"`
	Danglers  int `json:"danglers"`
	// VirtualNow is the recovered virtual time; the service resumes here.
	VirtualNow float64 `json:"virtualNow"`
}

// limboEntry is a killed task whose requeue/fail disposition fell past the
// durable cut; retryEntry a fired requeue slot whose outcome did.
type limboEntry struct {
	task     workload.Task
	attempts int
	at       float64
}

// openAdmit is a durably-admitted task whose decision fell past the cut.
type openAdmit struct {
	task workload.Task
	me   *float64
	at   float64
}

// replayState is the transient bookkeeping of one replay pass.
type replayState struct {
	n              int     // suffix records applied
	lastMT, lastEN float64 // meter coordinates of the last engine record
	vt             float64 // highest virtual time seen
	budget         float64 // last adjusted budget (0 = never adjusted)
	admits         int64
	rejects        int64
	openAdmits     []openAdmit
	limbo          []limboEntry
	retries        []limboEntry
}

func (rs *replayState) closeAdmit(id int) {
	for i := range rs.openAdmits {
		if rs.openAdmits[i].task.ID == id {
			rs.openAdmits = append(rs.openAdmits[:i], rs.openAdmits[i+1:]...)
			return
		}
	}
}

func dropEntry(s []limboEntry, id int) []limboEntry {
	for i := range s {
		if s[i].task.ID == id {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// recTask materializes the task identity a record carries. TN/Cls decode to
// their zero values on pre-tenancy records, so old incarnations rebuild
// untagged tasks unchanged.
func recTask(r *walRecord) workload.Task {
	return workload.Task{ID: r.ID, Type: r.Ty, Arrival: r.Arr, Deadline: r.DL, U: r.U, Priority: r.Pri,
		Tenant: r.TN, Class: workload.SLOClass(r.Cls)}
}

// setHexState installs a recorded RNG stream state.
func setHexState(s *randx.Stream, hexs string) error {
	b, err := unhexState(hexs)
	if err != nil {
		return err
	}
	return s.SetState(b)
}

// RecoverFrom reconstructs the engine from its checkpoint and WAL. It must
// run between Prepare and Start: the engine goroutine is not running, the
// recovering flag keeps handlers out, and Start afterwards resumes service
// on the rebuilt state. Returns the recovery report; on error the engine
// must be discarded.
func (e *Engine) RecoverFrom() (*RecoveryReport, error) {
	if !e.recovering.Load() || e.wal != nil {
		return nil, errors.New("server: RecoverFrom requires a prepared, unstarted engine")
	}
	if e.cfg.WALPath == "" {
		return nil, errors.New("server: recovery requires Config.WALPath")
	}
	var ck *checkpoint
	if e.cfg.CheckpointPath != "" {
		var err error
		if ck, err = loadCheckpoint(e.cfg.CheckpointPath); err != nil {
			return nil, err
		}
	}
	oldInc, cut := uint64(1), uint64(0)
	if ck != nil {
		oldInc, cut = ck.Incarnation, ck.WALRecords
		if err := e.checkIdentity(ck.ModelHash, ck.Seed, ck.Policy, e.cfg.CheckpointPath); err != nil {
			return nil, err
		}
	}
	rep := &RecoveryReport{FromCheckpoint: ck != nil, CheckpointRecords: cut}
	var wr *walReader
	if _, statErr := os.Stat(walPath(e.cfg.WALPath, oldInc)); statErr == nil || ck == nil {
		var err error
		if wr, err = openWAL(e.cfg.WALPath, oldInc); err != nil {
			return nil, err
		}
		defer wr.f.Close()
		if err := e.checkIdentity(wr.hdr.ModelHash, wr.hdr.Seed, wr.hdr.Policy, wr.path); err != nil {
			return nil, err
		}
	}

	if ck != nil {
		if err := e.restoreCheckpoint(ck); err != nil {
			return nil, err
		}
	} else {
		// Genesis replay: reproduce the fresh boot's fault-schedule draws
		// (same seed, same streams), then let the canonical rebuild below
		// discard and reconstruct the events.
		if e.needSchedule {
			e.scheduleFaults()
		}
		e.incarnation = 1
	}
	e.needSchedule = false

	// Stream the suffix: skip the cut records the checkpoint already holds,
	// apply each later one as it is decoded. A checkpoint cut past the
	// durable record count is legal — the cut was taken under the append
	// mutex and may include staged reject records the crash then lost;
	// their counts are inside the checkpoint already — and replays nothing.
	rs := newReplayState(ck)
	if wr != nil {
		for seen := uint64(0); ; seen++ {
			r, err := wr.next()
			if err != nil {
				return nil, err
			}
			if r == nil {
				break
			}
			if seen < cut {
				continue
			}
			if err := e.replay(r, rs); err != nil {
				return nil, err
			}
		}
		if rep.TornTail = wr.dec.Torn(); rep.TornTail {
			_, rep.TornOffset = wr.dec.TornAt()
			fmt.Fprintf(os.Stderr, "server: wal %s: dropped torn final line at byte offset %d (crash mid-append)\n",
				wr.path, rep.TornOffset)
		}
	}
	rep.ReplayedRecords = rs.n
	e.met.recoveryReplayed.Add(int64(rs.n))

	// Meter: straight from the checkpoint when nothing was replayed on top;
	// otherwise rebuilt from the last record's absolute coordinates plus the
	// structural invariants (a non-empty queue implies a started head at its
	// mapped P-state; a down core draws zero; everything else idles).
	recoveredVT := rs.vt
	e.virtualAt.Store(math.Float64bits(recoveredVT))
	ms := energy.MeterState{Now: rs.lastMT, Used: rs.lastEN, Budget: rs.budget}
	if rs.n == 0 && ck != nil {
		ms = ck.Meter
	} else {
		ms.States = make([]cluster.PState, len(e.Cores))
		ms.Override = make([]float64, len(e.Cores))
		for idx := range e.Cores {
			ms.States[idx] = e.cfg.IdlePState
			if q := &e.Queues[idx]; q.Len() > 0 && q.Snap[0].Started {
				ms.States[idx] = q.Snap[0].PState
			}
			ms.Override[idx] = -1
			if e.down[idx] {
				ms.Override[idx] = 0
			}
		}
	}
	if err := e.Meter.Restore(ms); err != nil {
		return nil, err
	}
	e.budgetBits.Store(math.Float64bits(e.Meter.Budget()))
	e.consumed.Store(math.Float64bits(e.Meter.Consumed()))
	e.met.consumed.Set(e.Meter.Consumed())
	e.lastEnergyEN = e.Meter.Consumed()

	// Derived counters: admitted is exactly the decided count (submissions
	// that died in the admission channel were never acked and never logged);
	// received adds the durable rejection ledger on top. Add, not Store —
	// handlers may be counting recovering-rejections concurrently.
	restoredRejected := rs.rejects
	if ck != nil {
		restoredRejected += ck.Counters.Rejected
	}
	e.st.admitted.Add(e.decided)
	e.st.received.Add(e.decided + restoredRejected)
	e.rejectedBase = restoredRejected
	if e.brk != nil {
		e.st.brkOpens.Store(int64(e.brk.opens))
	}
	n := 0
	for idx := range e.Queues {
		n += e.Queues[idx].Len()
	}
	e.inSystem = n
	e.updInflight()

	// Brownout: the stage is a pure monotone function of consumed/budget,
	// so one Update lands on the recovered stage.
	if e.bro != nil && !math.IsInf(e.Meter.Budget(), 1) {
		stage, _ := e.bro.Update(e.Meter.Consumed() / e.Meter.Budget())
		e.stage.Store(int32(stage))
		e.met.stage.Set(float64(stage))
		cur := e.bro.Current()
		e.shedGate.Store(cur != nil && cur.ShedAdmission)
	}

	e.rebuildEvents()

	// Rotate: the recovered engine writes a fresh incarnation. Dangler
	// dispositions and re-decides below land in the NEW WAL.
	e.incarnation++
	rep.Incarnation = e.incarnation
	w, err := createWAL(e.cfg.WALPath, e.walHeader())
	if err != nil {
		return nil, err
	}
	e.wal = w
	e.walDead = false

	// Danglers: finish every interrupted disposition through the real
	// engine methods. recoverTask is deterministic given (time, task,
	// attempts); a re-run retry re-draws from the restored decision stream
	// state, reproducing the lost draws exactly.
	rep.Danglers = len(rs.limbo) + len(rs.retries)
	for _, le := range rs.limbo {
		e.recoverTask(le.at, le.task, le.attempts)
	}
	for _, rt := range rs.retries {
		snap := e.brkSnap()
		if chosen := e.mapTask(rt.at, rt.task, nil); chosen != nil {
			e.place(rt.at, rt.task, chosen, rt.attempts)
		} else {
			e.recoverTask(rt.at, rt.task, rt.attempts)
		}
		e.walBreakerDiff(rt.at, snap)
	}
	e.updInflight()

	// Re-decide durably-admitted tasks whose decision was lost. The pipeline
	// runs at the recovered virtual time with the restored stream states —
	// bit-identical to the lost decision when the cut fell right after the
	// admit record — and skips the wall-clock request timeout (the client is
	// gone; the admission is durable). A task whose deadline passed while
	// the process was down sheds as infeasible: failed visibly, never
	// orphaned.
	rep.ReDecided = len(rs.openAdmits)
	e.met.recoveryRedecided.Add(int64(len(rs.openAdmits)))
	for _, oa := range rs.openAdmits {
		e.decideTask(math.Max(recoveredVT, oa.at), oa.task, oa.me, 0, false)
	}

	e.commit()
	if e.cfg.CheckpointPath != "" && e.walOn() {
		cut2, rej2, tnRej2 := e.wal.cut()
		if err := writeCheckpoint(e.cfg.CheckpointPath, e.snapshotCheckpoint(cut2, rej2, tnRej2)); err != nil {
			return nil, err
		}
		e.met.checkpoints.Inc()
		// The new checkpoint names the new incarnation; the old WAL file is
		// dead weight now. Best-effort removal.
		if oldInc != e.incarnation {
			_ = os.Remove(walPath(e.cfg.WALPath, oldInc))
		}
	}

	// The service resumes at the recovered virtual time: wall time passed
	// while down, virtual time did not.
	if e.cfg.Clock == nil {
		e.clock = NewRealClockAt(recoveredVT, e.cfg.TimeScale)
	}
	rep.VirtualNow = recoveredVT
	return rep, nil
}

// checkIdentity refuses to replay state recorded by a differently-configured
// service: same model, same seed, same policy, or the replayed draws and
// decisions would be meaningless.
func (e *Engine) checkIdentity(modelHash string, seed uint64, policy, src string) error {
	if modelHash != e.model.Hash() {
		return fmt.Errorf("server: %s: model hash %s, engine has %s", src, modelHash, e.model.Hash())
	}
	if seed != e.cfg.Seed {
		return fmt.Errorf("server: %s: seed %d, engine has %d", src, seed, e.cfg.Seed)
	}
	if policy != e.cfg.Mapper.Name() {
		return fmt.Errorf("server: %s: policy %q, engine has %q", src, policy, e.cfg.Mapper.Name())
	}
	return nil
}

// restoreCheckpoint installs a checkpoint's snapshot into a prepared engine.
func (e *Engine) restoreCheckpoint(ck *checkpoint) error {
	if len(ck.Down) != len(e.down) || len(ck.Alive) != len(e.alive) ||
		len(ck.Queues) != len(e.Queues) || len(ck.RepairAt) != len(e.repairAt) {
		return fmt.Errorf("server: checkpoint shape (%d cores, %d nodes) does not match the model (%d cores, %d nodes)",
			len(ck.Down), len(ck.Alive), len(e.down), len(e.alive))
	}
	e.incarnation = ck.Incarnation
	c := ck.Counters
	e.st.rejected.Add(c.Rejected)
	e.st.mapped.Add(c.Mapped)
	e.st.shed.Add(c.Shed)
	e.st.timedout.Add(c.TimedOut)
	e.st.onTime.Add(c.OnTime)
	e.st.late.Add(c.Late)
	e.st.failed.Add(c.Failed)
	e.st.faults.Add(c.Faults)
	e.st.retries.Add(c.Retries)
	e.st.assigned.Add(c.Assigned)
	for i := range c.ShedByReason {
		e.st.shedByRsn[i].Add(c.ShedByReason[i])
	}
	e.decided = ck.Decided
	e.nextID = ck.NextID
	e.reqSeq = ck.ReqSeq
	copy(e.down, ck.Down)
	copy(e.repairAt, ck.RepairAt)
	copy(e.alive, ck.Alive)
	for idx := range e.Queues {
		q := &e.Queues[idx]
		q.Clear()
		for _, c := range ck.Queues[idx] {
			q.Push(exec.Entry{Task: c.Task.task(), Actual: c.Act, Attempts: c.Att}, cluster.PState(c.PS))
			snap := &q.Snap[q.Len()-1]
			snap.Started, snap.StartAt = c.Started, c.StartAt
		}
	}
	e.requeues = make(map[int]requeueEntry, len(ck.Requeues))
	for _, r := range ck.Requeues {
		e.requeues[r.Slot] = requeueEntry{task: r.Task.task(), attempts: r.Att, fireAt: r.FireAt}
	}
	if e.brk != nil {
		if len(ck.Breakers) != len(e.brk.nodes) {
			return fmt.Errorf("server: checkpoint has %d breakers, engine has %d nodes", len(ck.Breakers), len(e.brk.nodes))
		}
		for nIdx := range ck.Breakers {
			b := ck.Breakers[nIdx]
			nb := &e.brk.nodes[nIdx]
			nb.state = breakerState(b.State)
			nb.strikes = b.Strikes
			nb.openUntil = b.Until
			nb.probing = b.Probing
			nb.dead = b.Dead
			nb.publish()
		}
		e.brk.opens = ck.BreakerOpens
	}
	for i := range ck.Tenants {
		row := &ck.Tenants[i]
		var ts *tenantState
		if row.Other {
			ts = e.tenants.other
		} else if ts = e.tenants.state(row.ID); ts != nil {
			ts.setClass(workload.SLOClass(row.Cls))
		}
		if ts == nil {
			continue
		}
		ts.rejectedBase = row.Rejected
		ts.admitted.Store(row.Admitted)
		ts.rejected.Store(row.Rejected)
		ts.mapped.Store(row.Mapped)
		ts.shed.Store(row.Shed)
		ts.shedInfeasible.Store(row.ShedInf)
		ts.timedout.Store(row.TimedOut)
		ts.onTime.Store(row.OnTime)
		ts.late.Store(row.Late)
		ts.failed.Store(row.Failed)
		ts.quarantines.Store(row.Quars)
		ts.winBits, ts.winPos, ts.winN, ts.winBad = row.WinBits, row.WinPos, row.WinN, row.WinBad
		ts.quarUntil.Store(math.Float64bits(row.QuarUntil))
		ts.mu.Lock()
		ts.tokens, ts.lastRefill = row.Tokens, row.LastRefill
		ts.mu.Unlock()
	}
	e.halted.Store(ck.Halted)
	e.nextTransient = ck.NextTransient
	e.nextPermanent = ck.NextPermanent
	copy(e.scriptFired, ck.ScriptFired)
	for _, s := range []struct {
		stream *randx.Stream
		hexs   string
	}{
		{e.rand, ck.RandDecisions},
		{e.transientRng, ck.RandTransient},
		{e.permanentRng, ck.RandPermanent},
		{e.targetRng, ck.RandTarget},
		{e.quantRn, ck.RandQuant},
	} {
		if err := setHexState(s.stream, s.hexs); err != nil {
			return err
		}
	}
	return nil
}

// newReplayState starts a replay pass on the restored base state: the
// checkpoint's meter coordinates, virtual time and budget, or zeros at
// genesis.
func newReplayState(base *checkpoint) *replayState {
	rs := &replayState{}
	if base != nil {
		rs.lastMT, rs.lastEN = base.Meter.Now, base.Meter.Used
		rs.vt = base.VirtualNow
		rs.budget = base.Meter.Budget
	}
	return rs
}

// replay applies the next suffix record to the restored state. Effects are
// applied directly; interrupted dispositions accumulate in rs for the
// dangler pass.
func (e *Engine) replay(r *walRecord, rs *replayState) error {
	if r.K != wkReject {
		// Reject records are written by handler goroutines and carry no
		// meter coordinates; every engine record does.
		rs.lastMT, rs.lastEN = r.MT, r.EN
		if r.T > rs.vt {
			rs.vt = r.T
		}
	}
	if err := e.apply(r, rs); err != nil {
		return fmt.Errorf("server: wal replay: record %d (%s): %w", rs.n, r.K, err)
	}
	rs.n++
	return nil
}

// apply executes one record's effect.
func (e *Engine) apply(r *walRecord, rs *replayState) error {
	switch r.K {
	case wkReject:
		rs.rejects++
		e.st.rejected.Add(1)
		if r.TN != "" {
			if ts := e.tenants.lookup(r.TN); ts != nil {
				// rejectedBase too: replayed suffix rejects are durable but
				// absent from the new incarnation's ledger, so the next
				// snapshot's base must carry them — the per-tenant mirror of
				// e.rejectedBase = checkpoint + suffix.
				ts.rejected.Add(1)
				ts.rejectedBase++
			}
		}
	case wkAdmit:
		if err := setHexState(e.quantRn, r.QS); err != nil {
			return err
		}
		if r.ID >= e.nextID {
			e.nextID = r.ID + 1
		}
		e.decided++
		rs.admits++
		rs.openAdmits = append(rs.openAdmits, openAdmit{task: recTask(r), me: r.ME, at: r.T})
		if r.TN != "" {
			if ts := e.tenants.lookup(r.TN); ts != nil {
				ts.setClass(workload.SLOClass(r.Cls))
				ts.admitted.Add(1)
			}
		}
	case wkShed:
		if err := setHexState(e.rand, r.DS); err != nil {
			return err
		}
		e.st.shed.Add(1)
		e.st.shedByRsn[shedIdx(r.Rsn)].Add(1)
		rs.closeAdmit(r.ID)
		// Per-tenant effects mirror tenantOutcome exactly, abuse detector
		// included: the quarantine automaton is a deterministic function of
		// the decision stream, and replay drives it through the same code.
		if r.TN != "" {
			if ts := e.tenants.lookup(r.TN); ts != nil {
				ts.shed.Add(1)
				if r.Rsn == ShedInfeasible {
					ts.shedInfeasible.Add(1)
				}
				e.feedOutcome(ts, r.T, r.Rsn == ShedInfeasible)
			}
		}
	case wkTimeout:
		e.st.timedout.Add(1)
		rs.closeAdmit(r.ID)
		if r.TN != "" {
			if ts := e.tenants.lookup(r.TN); ts != nil {
				ts.timedout.Add(1)
				e.feedOutcome(ts, r.T, false)
			}
		}
	case wkMap:
		if err := setHexState(e.rand, r.DS); err != nil {
			return err
		}
		if r.Core < 0 || r.Core >= len(e.Queues) {
			return fmt.Errorf("core %d out of range", r.Core)
		}
		e.Queues[r.Core].Push(exec.Entry{Task: recTask(r), Actual: r.Act, Attempts: r.Att}, cluster.PState(r.PS))
		e.st.assigned.Add(1)
		if r.New {
			e.st.mapped.Add(1)
			rs.closeAdmit(r.ID)
			if r.TN != "" {
				if ts := e.tenants.lookup(r.TN); ts != nil {
					ts.mapped.Add(1)
					e.feedOutcome(ts, r.T, false)
				}
			}
		} else {
			rs.retries = dropEntry(rs.retries, r.ID)
		}
	case wkStart, wkFinish:
		if r.Core < 0 || r.Core >= len(e.Queues) {
			return fmt.Errorf("core %d out of range", r.Core)
		}
		q := &e.Queues[r.Core]
		if q.Len() == 0 || q.Run[0].Task.ID != r.ID {
			return fmt.Errorf("%s for task %d does not match core %d queue head", r.K, r.ID, r.Core)
		}
		if r.K == wkStart {
			q.Start(r.T)
			break
		}
		e.tenantCompleted(q.Run[0].Task, r.OK)
		q.PopFront()
		if r.OK {
			e.st.onTime.Add(1)
		} else {
			e.st.late.Add(1)
		}
	case wkRetry:
		ent, ok := e.requeues[r.Slot]
		if !ok {
			return fmt.Errorf("retry fired for unknown slot %d", r.Slot)
		}
		delete(e.requeues, r.Slot)
		e.st.retries.Add(1)
		rs.retries = append(rs.retries, limboEntry{task: ent.task, attempts: ent.attempts, at: r.T})
	case wkRequeue:
		if err := setHexState(e.rand, r.DS); err != nil {
			return err
		}
		e.requeues[r.Slot] = requeueEntry{task: recTask(r), attempts: r.Att, fireAt: r.FT}
		if r.Slot >= e.reqSeq {
			e.reqSeq = r.Slot + 1
		}
		rs.limbo = dropEntry(rs.limbo, r.ID)
		rs.retries = dropEntry(rs.retries, r.ID)
	case wkFail:
		if err := setHexState(e.rand, r.DS); err != nil {
			return err
		}
		e.st.failed.Add(1)
		rs.failTenant(e, r.ID)
		rs.limbo = dropEntry(rs.limbo, r.ID)
		rs.retries = dropEntry(rs.retries, r.ID)
	case wkFault:
		e.st.faults.Add(1)
		if err := setHexState(e.targetRng, r.TGS); err != nil {
			return err
		}
		if !r.AP {
			break
		}
		if r.Src == "permanent" {
			if r.Node < 0 || r.Node >= len(e.alive) {
				return fmt.Errorf("node %d out of range", r.Node)
			}
			e.alive[r.Node] = false
			for idx, id := range e.Cores {
				if id.Node == r.Node {
					rs.strand(e, idx, r.T)
				}
			}
		} else {
			if r.Core < 0 || r.Core >= len(e.down) {
				return fmt.Errorf("core %d out of range", r.Core)
			}
			rs.strand(e, r.Core, r.T)
			e.repairAt[r.Core] = r.RP
		}
	case wkFsched:
		switch r.Src {
		case "transient":
			if r.TRS != "" {
				if err := setHexState(e.transientRng, r.TRS); err != nil {
					return err
				}
			}
			if r.TGS != "" {
				if err := setHexState(e.targetRng, r.TGS); err != nil {
					return err
				}
			}
			e.nextTransient = r.NX
		case "permanent":
			if r.PRS != "" {
				if err := setHexState(e.permanentRng, r.PRS); err != nil {
					return err
				}
			}
			if r.TGS != "" {
				if err := setHexState(e.targetRng, r.TGS); err != nil {
					return err
				}
			}
			e.nextPermanent = r.NX
		case "script":
			if r.SI < 0 || r.SI >= len(e.scriptFired) {
				return fmt.Errorf("script index %d out of range", r.SI)
			}
			e.scriptFired[r.SI] = true
		default:
			return fmt.Errorf("unknown fault source %q", r.Src)
		}
	case wkRepair:
		if r.Core < 0 || r.Core >= len(e.down) {
			return fmt.Errorf("core %d out of range", r.Core)
		}
		e.repairAt[r.Core] = 0
		if r.AP {
			e.down[r.Core] = false
		}
	case wkBreaker:
		if e.brk == nil || r.Node < 0 || r.Node >= len(e.brk.nodes) {
			return fmt.Errorf("breaker record for node %d without matching automaton", r.Node)
		}
		nb := &e.brk.nodes[r.Node]
		nb.state = breakerState(r.BSt)
		nb.strikes = r.Strikes
		nb.openUntil = r.Until
		nb.probing = r.Probing
		nb.dead = r.Dead
		nb.publish()
		e.brk.opens = r.Opens
	case wkBrownout, wkEnergy:
		// Brownout stage is re-derived from the restored meter; energy
		// records exist for their meter coordinates, consumed generically.
	case wkBudget:
		// The meter restore below installs the final adjusted budget.
		rs.budget = r.BG
	case wkHalt:
		e.halted.Store(true)
		e.st.failed.Add(int64(r.N))
		rs.clearInFlight(e)
	case wkFlush:
		e.st.failed.Add(int64(r.N))
		rs.clearInFlight(e)
	case wkKill:
		// Audit record; the strand already happened at the fault record.
	default:
		return fmt.Errorf("unknown record kind %q", r.K)
	}
	return nil
}

// strand mirrors downCore's structural effect: the core goes down and its
// queue moves into limbo awaiting each task's durable disposition.
func (rs *replayState) strand(e *Engine, idx int, at float64) {
	if e.down[idx] {
		return
	}
	e.down[idx] = true
	q := &e.Queues[idx]
	for _, ent := range q.Run {
		rs.limbo = append(rs.limbo, limboEntry{task: ent.Task, attempts: ent.Attempts, at: at})
	}
	q.Clear()
}

// failTenant credits the per-tenant failure of a replayed fail record: the
// fail record carries only the task id, but the full task identity lives in
// the limbo/retry entry the record is about to drop.
func (rs *replayState) failTenant(e *Engine, id int) {
	for _, s := range [][]limboEntry{rs.limbo, rs.retries} {
		for i := range s {
			if s[i].task.ID == id {
				e.tenantFailed(s[i].task)
				return
			}
		}
	}
}

// clearInFlight mirrors the wholesale clears (halt, drain flush), per-tenant
// failure credits included — the live path fails each cleared task through
// fail(), which feeds tenantFailed.
func (rs *replayState) clearInFlight(e *Engine) {
	for idx := range e.Queues {
		q := &e.Queues[idx]
		for _, ent := range q.Run {
			e.tenantFailed(ent.Task)
		}
		q.Clear()
	}
	for _, r := range e.requeues {
		e.tenantFailed(r.task)
	}
	clear(e.requeues)
	rs.limbo = nil
	rs.retries = nil
}

// rebuildEvents reconstructs the heap canonically: completions per started
// queue head, the fault processes, pending repairs, and requeue firings —
// fixed order, sequence counter reset. A halted engine gets no events; its
// heap was dropped at the halt.
func (e *Engine) rebuildEvents() {
	e.Events.Clear()
	if e.halted.Load() {
		return
	}
	for idx := range e.Queues {
		if q := &e.Queues[idx]; q.Len() > 0 && q.Snap[0].Started {
			e.Events.Push(exec.Event{Time: q.Snap[0].StartAt + q.Run[0].Actual, Kind: evCompletion, Idx: idx, Gen: e.runGen[idx]})
		}
	}
	if e.nextTransient > 0 {
		e.Events.Push(exec.Event{Time: e.nextTransient, Kind: evFault, Idx: srcTransient})
	}
	if e.nextPermanent > 0 {
		e.Events.Push(exec.Event{Time: e.nextPermanent, Kind: evFault, Idx: srcPermanent})
	}
	for i, sf := range e.cfg.Faults.Script {
		if !e.scriptFired[i] {
			e.Events.Push(exec.Event{Time: sf.Time, Kind: evFault, Idx: srcScript + i})
		}
	}
	for idx := range e.down {
		if e.down[idx] && e.repairAt[idx] > 0 {
			e.Events.Push(exec.Event{Time: e.repairAt[idx], Kind: evRepair, Idx: idx})
		}
	}
	for _, s := range e.requeueSlots() {
		e.Events.Push(exec.Event{Time: e.requeues[s].fireAt, Kind: evRequeue, Idx: s})
	}
}

// DrainNow runs the graceful drain inline on the caller's goroutine without
// ever starting the engine loop — the deterministic-replay harness: recover,
// drain, report, with no live clock in the path. The engine is finished
// afterwards (Start must not be called).
func (e *Engine) DrainNow() error {
	e.beginInlineDrain()
	err := e.drain()
	e.finishInlineDrain()
	return err
}

// beginInlineDrain freezes the clock at the recovered virtual instant and
// flips the draining flag. RecoverFrom installs a wall-driven clock for the
// serving path; here the drain's fast-forward owns the virtual axis, and a
// ticking clock would leak wall jitter into VirtualNow (and through it, the
// drained report and flight summary), breaking the run-twice byte-identity
// the chaos gate asserts.
func (e *Engine) beginInlineDrain() {
	frozen := NewManualClock()
	frozen.Advance(math.Float64frombits(e.virtualAt.Load()))
	e.clock = frozen
	e.draining.Store(true)
}

// finishInlineDrain closes the WAL and marks the engine finished after an
// inline (loop-less) drain.
func (e *Engine) finishInlineDrain() {
	if e.wal != nil {
		_ = e.wal.close()
	}
	close(e.doneCh)
}
