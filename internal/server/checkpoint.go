package server

// Engine checkpoints (eccheck/v1). A checkpoint is a full snapshot of the
// engine's recoverable state — queues, in-flight tasks, requeue slots,
// breaker automata, fault-process schedule, RNG stream states, the energy
// meter, and the terminal counters — written atomically (temp file in the
// same directory, fsync, rename; the same discipline as
// internal/experiment.Journal). Recovery is checkpoint + WAL-suffix replay:
// the checkpoint names its WAL incarnation and how many records of it the
// snapshot already covers, and replay applies only the records after that
// cut.
//
// Deliberately absent:
//   - the brownout stage: Brownout.Update is a pure monotone function of
//     consumed/budget, so recovery re-derives it from the restored meter;
//   - received/admitted/inflight counters: derived (admitted = Decided +
//     replayed admits, received = admitted + rejected, inflight = queue
//     occupancy + requeue slots);
//   - event-heap contents: rebuilt canonically from queue heads (their
//     completion times are startAt + actual), repairAt, requeue fire times,
//     and the fault-process schedule (NextTransient/NextPermanent/
//     ScriptFired).

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/energy"
	"repro/internal/workload"
)

// ckptFormat is the checkpoint format tag.
const ckptFormat = "eccheck/v1"

// ckptTask is a serialized workload.Task. Tn/Cls are omitempty: a
// pre-tenancy checkpoint decodes them to their zero values (untagged,
// bronze), the same incarnation-compatibility rule as the WAL grammar.
type ckptTask struct {
	ID  int     `json:"id"`
	Ty  int     `json:"ty"`
	Arr float64 `json:"ar"`
	DL  float64 `json:"dl"`
	U   float64 `json:"u"`
	Pri float64 `json:"pr"`
	Tn  string  `json:"tn,omitempty"`
	Cls int     `json:"cls,omitempty"`
}

func toCkptTask(t workload.Task) ckptTask {
	return ckptTask{ID: t.ID, Ty: t.Type, Arr: t.Arrival, DL: t.Deadline, U: t.U, Pri: t.Priority,
		Tn: t.Tenant, Cls: int(t.Class)}
}

func (c ckptTask) task() workload.Task {
	return workload.Task{ID: c.ID, Type: c.Ty, Arrival: c.Arr, Deadline: c.DL, U: c.U, Priority: c.Pri,
		Tenant: c.Tn, Class: workload.SLOClass(c.Cls)}
}

// ckptQueued is one core-queue entry.
type ckptQueued struct {
	Task    ckptTask `json:"task"`
	PS      int      `json:"ps"`
	Act     float64  `json:"act"`
	Att     int      `json:"att"`
	Started bool     `json:"started"`
	StartAt float64  `json:"startAt"`
}

// ckptRequeue is one pending retry slot.
type ckptRequeue struct {
	Slot   int      `json:"slot"`
	Task   ckptTask `json:"task"`
	Att    int      `json:"att"`
	FireAt float64  `json:"fireAt"`
}

// ckptBreaker is one node's breaker automaton.
type ckptBreaker struct {
	State   int     `json:"state"`
	Strikes int     `json:"strikes"`
	Until   float64 `json:"until"`
	Probing bool    `json:"probing"`
	Dead    bool    `json:"dead"`
}

// ckptCounters are the terminal-accounting bases the replayed suffix adds
// onto. Rejected is taken at the WAL cut (under the append mutex), so the
// identity rejected == base + suffix-reject-records is exact.
type ckptCounters struct {
	Rejected     int64    `json:"rejected"`
	Mapped       int64    `json:"mapped"`
	Shed         int64    `json:"shed"`
	TimedOut     int64    `json:"timedOut"`
	OnTime       int64    `json:"onTime"`
	Late         int64    `json:"late"`
	Failed       int64    `json:"failed"`
	Faults       int64    `json:"faults"`
	Retries      int64    `json:"retries"`
	Assigned     int64    `json:"assigned"`
	BrkOpens     int64    `json:"breakerOpens"`
	ShedByReason [4]int64 `json:"shedByReason"`
}

// ckptTenant is one tracked tenant's slice of the snapshot: terminal
// counters, the abuse-detector window, the quarantine automaton, and the
// token bucket. Admitted is the *decided* count (mapped+shed+timedout at
// the cut) for the same reason the global admitted counter restores from
// Decided: submissions still in the admission channel die unacknowledged
// with the process and must not be in the ledger. Rejected comes from the
// WAL's per-tenant reject ledger at the cut, so checkpoint+suffix replay
// is exact per tenant too. The probing flag is deliberately absent: an
// in-flight half-open probe dies with the process, and restoring
// probing=false lets the recovered tenant re-probe.
type ckptTenant struct {
	ID       string `json:"id"`
	Cls      int    `json:"cls"`
	Other    bool   `json:"other,omitempty"` // the shared overflow bucket
	Admitted int64  `json:"admitted"`
	Rejected int64  `json:"rejected"`
	Mapped   int64  `json:"mapped"`
	Shed     int64  `json:"shed"`
	ShedInf  int64  `json:"shedInfeasible"`
	TimedOut int64  `json:"timedOut"`
	OnTime   int64  `json:"onTime"`
	Late     int64  `json:"late"`
	Failed   int64  `json:"failed"`
	Quars    int64  `json:"quarantines"`

	WinBits   uint64  `json:"winBits,omitempty"`
	WinPos    int     `json:"winPos,omitempty"`
	WinN      int     `json:"winN,omitempty"`
	WinBad    int     `json:"winBad,omitempty"`
	QuarUntil float64 `json:"quarUntil,omitempty"`

	Tokens     float64 `json:"tokens"`
	LastRefill float64 `json:"lastRefill"`
}

// checkpoint is the eccheck/v1 document.
type checkpoint struct {
	Format      string `json:"format"`
	ModelHash   string `json:"modelHash"`
	Seed        uint64 `json:"seed"`
	Policy      string `json:"policy"`
	Incarnation uint64 `json:"incarnation"`
	// WALRecords is the replay cut: records [0, WALRecords) of the named
	// incarnation are already inside this snapshot.
	WALRecords uint64 `json:"walRecords"`

	VirtualNow float64           `json:"virtualNow"`
	Meter      energy.MeterState `json:"meter"`
	Counters   ckptCounters      `json:"counters"`
	// Decided counts decide() outcomes (== admit records written); the
	// restored admitted counter starts here, which keeps submissions that
	// were in the admission channel but never decided — lost with the
	// process, unacknowledged — out of the ledger.
	Decided int64 `json:"decided"`
	NextID  int   `json:"nextID"`
	ReqSeq  int   `json:"reqSeq"`

	Queues   [][]ckptQueued `json:"queues"`
	Requeues []ckptRequeue  `json:"requeues"`
	Down     []bool         `json:"down"`
	RepairAt []float64      `json:"repairAt"`
	Alive    []bool         `json:"alive"`

	Breakers     []ckptBreaker `json:"breakers,omitempty"`
	BreakerOpens int           `json:"breakerTrips"`

	// Tenants is the multi-tenant slice of the snapshot; absent for
	// single-tenant serving, so pre-tenancy checkpoints load unchanged.
	Tenants []ckptTenant `json:"tenants,omitempty"`

	Halted bool `json:"halted"`

	// Fault-process schedule: absolute next firing per stochastic source
	// (0 = none pending) and which scripted entries have fired.
	NextTransient float64 `json:"nextTransient"`
	NextPermanent float64 `json:"nextPermanent"`
	ScriptFired   []bool  `json:"scriptFired,omitempty"`

	// Hex-encoded PCG states of the engine's five RNG streams.
	RandDecisions string `json:"randDecisions"`
	RandTransient string `json:"randTransient"`
	RandPermanent string `json:"randPermanent"`
	RandTarget    string `json:"randTarget"`
	RandQuant     string `json:"randQuantiles"`
}

// snapshotCheckpoint captures the engine's state. Runs on the engine
// goroutine (or pre-Start during recovery); cut is the WAL record count the
// snapshot covers, rejects the reject-record count at that cut, and
// tnRejects the per-tenant slice of those reject records.
func (e *Engine) snapshotCheckpoint(cut, rejects uint64, tnRejects map[string]uint64) *checkpoint {
	f := e.Faults
	ck := &checkpoint{
		Format:      ckptFormat,
		ModelHash:   e.model.Hash(),
		Seed:        e.cfg.Seed,
		Policy:      e.cfg.Mapper.Name(),
		Incarnation: e.incarnation,
		WALRecords:  cut,
		VirtualNow:  math.Float64frombits(e.virtualAt.Load()),
		Meter:       e.Meter.State(),
		Counters: ckptCounters{
			Rejected: int64(rejects) + e.rejectedBase,
			Mapped:   e.st.mapped.Load(),
			Shed:     e.st.shed.Load(),
			TimedOut: e.st.timedout.Load(),
			OnTime:   e.st.onTime.Load(),
			Late:     e.st.late.Load(),
			Failed:   e.st.failed.Load(),
			Faults:   e.st.faults.Load(),
			Retries:  e.st.retries.Load(),
			Assigned: e.st.assigned.Load(),
			BrkOpens: e.st.brkOpens.Load(),
		},
		Decided:       e.decided,
		NextID:        e.nextID,
		ReqSeq:        f.ReqSeq,
		Down:          append([]bool(nil), f.Down...),
		RepairAt:      append([]float64(nil), f.RepairAt...),
		Alive:         append([]bool(nil), f.Alive...),
		Halted:        e.halted.Load(),
		NextTransient: f.NextTransient,
		NextPermanent: f.NextPermanent,
		ScriptFired:   append([]bool(nil), f.ScriptFired...),
		RandDecisions: hexState(e.rand.State()),
		RandTransient: hexState(f.TransientRng.State()),
		RandPermanent: hexState(f.PermanentRng.State()),
		RandTarget:    hexState(f.TargetRng.State()),
		RandQuant:     hexState(e.quantRn.State()),
	}
	for i := range ck.Counters.ShedByReason {
		ck.Counters.ShedByReason[i] = e.st.shedByRsn[i].Load()
	}
	ck.Queues = make([][]ckptQueued, len(e.Queues))
	for idx := range e.Queues {
		q := &e.Queues[idx]
		if q.Len() == 0 {
			continue
		}
		ck.Queues[idx] = make([]ckptQueued, q.Len())
		for i, ent := range q.Run {
			snap := q.Snap[i]
			ck.Queues[idx][i] = ckptQueued{
				Task: toCkptTask(ent.Task), PS: int(snap.PState), Act: ent.Actual,
				Att: ent.Attempts, Started: snap.Started, StartAt: snap.StartAt,
			}
		}
	}
	for _, slot := range f.Slots() {
		r := f.Requeues[slot]
		ck.Requeues = append(ck.Requeues, ckptRequeue{
			Slot: slot, Task: toCkptTask(r.Task), Att: r.Attempts, FireAt: r.FireAt,
		})
	}
	if e.brk != nil {
		ck.Breakers = make([]ckptBreaker, len(e.brk.nodes))
		for n := range e.brk.nodes {
			nb := &e.brk.nodes[n]
			ck.Breakers[n] = ckptBreaker{
				State: int(nb.state), Strikes: nb.strikes, Until: nb.openUntil,
				Probing: nb.probing, Dead: nb.dead,
			}
		}
		ck.BreakerOpens = e.brk.opens
	}
	ck.Tenants = e.snapshotTenants(tnRejects)
	return ck
}

// snapshotTenants serializes every tracked tenant (plus the overflow bucket
// when it saw traffic). The per-tenant reject base folds in tnRejects — ids
// past the cardinality cap are not in the tenant table and coalesce into
// the overflow row, mirroring where their live counters went.
func (e *Engine) snapshotTenants(tnRejects map[string]uint64) []ckptTenant {
	states := e.tenants.states()
	if len(states) == 0 {
		return nil
	}
	tracked := make(map[string]bool, len(states))
	for _, ts := range states {
		if ts != e.tenants.other {
			tracked[ts.id] = true
		}
	}
	var overflowRejects int64
	for id, n := range tnRejects {
		if !tracked[id] {
			overflowRejects += int64(n)
		}
	}
	out := make([]ckptTenant, 0, len(states))
	for _, ts := range states {
		row := ckptTenant{
			ID:       ts.id,
			Cls:      int(ts.class),
			Other:    ts == e.tenants.other,
			Admitted: ts.mapped.Load() + ts.shed.Load() + ts.timedout.Load(),
			Rejected: ts.rejectedBase,
			Mapped:   ts.mapped.Load(),
			Shed:     ts.shed.Load(),
			ShedInf:  ts.shedInfeasible.Load(),
			TimedOut: ts.timedout.Load(),
			OnTime:   ts.onTime.Load(),
			Late:     ts.late.Load(),
			Failed:   ts.failed.Load(),
			Quars:    ts.quarantines.Load(),

			WinBits:   ts.winBits,
			WinPos:    ts.winPos,
			WinN:      ts.winN,
			WinBad:    ts.winBad,
			QuarUntil: math.Float64frombits(ts.quarUntil.Load()),
		}
		if ts == e.tenants.other {
			row.Rejected += overflowRejects
		} else {
			row.Rejected += int64(tnRejects[ts.id])
		}
		ts.mu.Lock()
		row.Tokens, row.LastRefill = ts.tokens, ts.lastRefill
		ts.mu.Unlock()
		out = append(out, row)
	}
	return out
}

// writeCheckpoint persists the document atomically: temp file in the same
// directory, fsync, rename.
func writeCheckpoint(path string, ck *checkpoint) error {
	data, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("server: checkpoint encode: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("server: checkpoint persist: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("server: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("server: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("server: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("server: checkpoint rename: %w", err)
	}
	return nil
}

// loadCheckpoint reads and validates a checkpoint document. A missing file
// returns (nil, nil): recovery then replays the genesis WAL from scratch.
func loadCheckpoint(path string) (*checkpoint, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("server: open checkpoint: %w", err)
	}
	var ck checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("server: checkpoint %s: %w", path, err)
	}
	if ck.Format != ckptFormat {
		return nil, fmt.Errorf("server: checkpoint %s: format %q, want %q", path, ck.Format, ckptFormat)
	}
	return &ck, nil
}
