package server

// Write-ahead admission log (ecwal/v1). Every externally-visible state
// transition the engine makes — admit, shed, timeout, map, start, finish,
// requeue, fault/kill, repair, breaker transition, brownout stage change,
// energy debit, halt, and pre-admission reject — is appended as one JSONL
// record and fsync'd *before* the client sees the acknowledgement (group
// commit: a loop turn that releases Decision replies makes every staged
// record durable in one flush+fsync first; a turn that releases none only
// hands its records to the OS, and the next acknowledging commit syncs
// them).
//
// The file reuses the flight recorder's envelope discipline
// (internal/trace.LineDecoder): header-first JSONL, a 16MB line cap, and
// exactly one tolerated failure mode — a torn final line, the signature of
// a crash mid-append. Records carry everything recovery needs to rebuild
// the engine bit-identically:
//
//   - absolute meter coordinates (mt = meter time, en = consumed energy) on
//     every record, so the meter restores from the last durable record with
//     no floating-point path dependence and no possibility of double-debit;
//   - post-draw RNG stream states (hex-encoded PCG state) on every record
//     whose production consumed randomness, so replay installs states
//     instead of re-drawing;
//   - full task identity on admit, map, and requeue records, so a record
//     suffix is self-contained — an admitted task whose outcome was lost to
//     the torn tail can be re-decided from its admit record alone.
//
// WAL files are incarnation-numbered: `<path>.<n>` where n starts at 1 on a
// fresh boot and increments at every recovery rotation. The checkpoint
// names the incarnation it belongs to, which makes the rotation crash-safe:
// until the new checkpoint's atomic rename lands, the old checkpoint still
// points at the old (untouched) WAL file. See DESIGN.md §11 for the record
// grammar and the recovery contract.

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/trace"
)

// walFormat is the WAL header format tag.
const walFormat = "ecwal/v1"

// walHeader is the first line of every WAL incarnation.
type walHeader struct {
	Format      string  `json:"format"`
	ModelHash   string  `json:"modelHash"`
	Seed        uint64  `json:"seed"`
	Policy      string  `json:"policy"`
	Budget      float64 `json:"budget"` // -1 encodes an unconstrained run
	Incarnation uint64  `json:"incarnation"`
}

// WAL record kinds. One record per state transition; the comment names the
// engine path that emits it.
const (
	wkReject   = "reject"   // Submit/decode: pre-admission rejection
	wkAdmit    = "admit"    // decide: task built, durably admitted
	wkShed     = "shed"     // decide/re-decide: admission pipeline rejection
	wkTimeout  = "timeout"  // decide: request-timeout expiry
	wkMap      = "map"      // place: assignment issued (first or retry)
	wkStart    = "start"    // hooks.Started: queue head began executing
	wkFinish   = "finish"   // hooks.Finished: queue head retired
	wkRetry    = "retry"    // hooks.Retry: requeue slot fired
	wkRequeue  = "requeue"  // hooks.Requeued: stranded task scheduled for retry
	wkFail     = "fail"     // hooks.Lost: stranded task lost for good
	wkFault    = "fault"    // hooks.Struck: failure struck
	wkKill     = "kill"     // hooks.Stranded: queued task killed by the failure
	wkFsched   = "fsched"   // hooks.Fired: fault process rescheduled
	wkRepair   = "repair"   // hooks.Repaired: core back up (or left dead)
	wkBreaker  = "breaker"  // breaker automaton transition (full new state)
	wkBrownout = "brownout" // advance: brownout stage change
	wkEnergy   = "energy"   // advance: periodic energy debit record
	wkHalt     = "halt"     // halt: budget exhausted, cluster down
	wkFlush    = "flush"    // drain: grace expired, stragglers failed wholesale
	wkBudget   = "budget"   // AdjustBudget: sub-budget reset by the router's controller
)

// walRecord is one transition. Fields are shared across kinds (keyed by K);
// omitempty never changes a decoded value — absent always decodes to the
// zero that was encoded — so replay reads fields unconditionally.
type walRecord struct {
	K string `json:"k"`
	// T is the virtual time of the transition.
	T float64 `json:"t"`
	// MT/EN are the meter's absolute coordinates (time, consumed) after the
	// transition. Absolutes, never deltas: restoring from the last record is
	// exact and double-debit is impossible by construction.
	MT float64 `json:"mt"`
	EN float64 `json:"en"`

	// Task identity (admit, map, requeue).
	ID  int     `json:"id,omitempty"`
	Ty  int     `json:"ty,omitempty"`
	Arr float64 `json:"ar,omitempty"`
	DL  float64 `json:"dl,omitempty"`
	U   float64 `json:"u,omitempty"`
	Pri float64 `json:"pr,omitempty"`
	// ME is the request's per-task energy cap (admit only; nil = none).
	ME *float64 `json:"me,omitempty"`
	// TN/Cls are the task's tenant id and SLO class ordinal (admit, map,
	// shed, timeout, reject). Absent for untagged traffic; by the omitempty
	// rule above, a pre-tenancy WAL decodes both to their zero values, so
	// old incarnations replay unchanged.
	TN  string `json:"tn,omitempty"`
	Cls int    `json:"cls,omitempty"`

	// Placement (map, start, finish, kill, fault, repair).
	Core int     `json:"c,omitempty"`  // flat core index (-1 = none on fault)
	Node int     `json:"n,omitempty"`  // node index (breaker, fault)
	PS   int     `json:"ps,omitempty"` // P-state ordinal
	Act  float64 `json:"act,omitempty"`
	Att  int     `json:"att,omitempty"` // fault-retry attempts consumed
	New  bool    `json:"new,omitempty"` // map: first mapping (vs. retry placement)
	OK   bool    `json:"ok,omitempty"`  // finish: on time

	// Requeue scheduling (retry, requeue).
	Slot int     `json:"sl,omitempty"`
	FT   float64 `json:"ft,omitempty"` // absolute requeue fire time

	// Reasons (reject, shed, fail, flush).
	Rsn string `json:"rsn,omitempty"`

	// Fault process bookkeeping (fault, fsched).
	Src string  `json:"src,omitempty"` // "transient" | "permanent" | "script"
	SI  int     `json:"si,omitempty"`  // script entry index
	AP  bool    `json:"ap,omitempty"`  // fault actually applied (victim was up)
	RP  float64 `json:"rp,omitempty"`  // absolute repair event time (transient)
	NX  float64 `json:"nx,omitempty"`  // absolute next process firing (0 = none)

	// Breaker automaton state (breaker): the full new per-node state.
	BSt     int     `json:"bst,omitempty"`
	Strikes int     `json:"bsk,omitempty"`
	Until   float64 `json:"bu,omitempty"`
	Probing bool    `json:"bp,omitempty"`
	Dead    bool    `json:"bd,omitempty"`
	Opens   int     `json:"bo,omitempty"` // cumulative trip count after this transition

	// Brownout (brownout).
	Stage int  `json:"stg,omitempty"`
	Gate  bool `json:"gate,omitempty"` // ShedAdmission active

	// Budget adjustment (budget): the meter's new ζ budget after the
	// router's controller reclaimed or granted headroom.
	BG float64 `json:"bg,omitempty"`

	// Wholesale clears (flush): number of in-flight tasks failed.
	N int `json:"nn,omitempty"`

	// Post-draw RNG stream states (hex PCG state), present only when the
	// transition consumed draws from that stream. Replay installs these;
	// it never re-draws.
	QS  string `json:"qs,omitempty"`  // quantiles (admit)
	DS  string `json:"ds,omitempty"`  // decisions (map / shed-filtered / failed remap)
	TRS string `json:"trs,omitempty"` // transient fault process (fsched)
	PRS string `json:"prs,omitempty"` // permanent fault process (fsched)
	TGS string `json:"tgs,omitempty"` // fault target picker (fault)
}

// walLine is the on-disk envelope: exactly one of H or R per line.
type walLine struct {
	H *walHeader `json:"h,omitempty"`
	R *walRecord `json:"r,omitempty"`
}

// walPath names the incarnation-numbered WAL file.
func walPath(base string, incarnation uint64) string {
	return fmt.Sprintf("%s.%d", base, incarnation)
}

// wal is the append side. All appends are serialized by mu — the engine
// goroutine writes transition records, handler goroutines write reject
// records — and nothing is durable until commit's flush+fsync returns;
// write hands the staged records to the OS without the fsync.
// A write or sync failure latches: the wal goes dead, the error surfaces
// once through commit, and the engine drops to WAL-less operation rather
// than acking requests it can no longer make durable claims about.
type wal struct {
	mu        sync.Mutex
	f         *os.File
	bw        *bufio.Writer
	hdr       walHeader
	n         uint64            // records appended (header excluded)
	rejects   uint64            // reject records appended (subset of n)
	tnRejects map[string]uint64 // reject records per tenant id (subset of rejects)
	dirty     bool              // records appended since the last fsync
	syncs     uint64            // fsyncs issued, header and close included
	err       error
}

// createWAL creates (truncating) the WAL file for one incarnation and makes
// the header durable before returning.
func createWAL(base string, hdr walHeader) (*wal, error) {
	f, err := os.OpenFile(walPath(base, hdr.Incarnation), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: create wal: %w", err)
	}
	w := &wal{f: f, bw: bufio.NewWriterSize(f, 64*1024), hdr: hdr}
	if err := w.encode(walLine{H: &hdr}); err != nil {
		f.Close()
		return nil, err
	}
	w.dirty = true
	if _, err := w.commit(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// encode appends one line to the buffer. Callers hold mu (or have exclusive
// access during construction).
func (w *wal) encode(ln walLine) error {
	b, err := json.Marshal(ln)
	if err != nil {
		return fmt.Errorf("server: wal encode: %w", err)
	}
	b = append(b, '\n')
	if _, err := w.bw.Write(b); err != nil {
		return fmt.Errorf("server: wal write: %w", err)
	}
	return nil
}

// append stages one record. Errors latch; the caller sees them at commit.
func (w *wal) append(rec *walRecord) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	if err := w.encode(walLine{R: rec}); err != nil {
		w.err = err
		return
	}
	w.n++
	if rec.K == wkReject {
		w.rejects++
		if rec.TN != "" {
			if w.tnRejects == nil {
				w.tnRejects = make(map[string]uint64)
			}
			w.tnRejects[rec.TN]++
		}
	}
	w.dirty = true
}

// commit makes every record appended since the last fsync durable: flush,
// then fsync. A clean no-op when there is none; synced reports whether it
// fsynced. Returns (and clears nothing of) the latched error, so the engine
// can disable the wal on first failure.
func (w *wal) commit() (synced bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return false, w.err
	}
	if !w.dirty {
		return false, nil
	}
	if err := w.flushLocked(); err != nil {
		return false, err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("server: wal fsync: %w", err)
		return false, w.err
	}
	w.syncs++
	w.dirty = false
	return true, nil
}

// write hands the staged records to the OS without an fsync: a process
// crash after it loses nothing, a machine crash may lose them. They stay
// dirty for the next commit.
func (w *wal) write() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return w.flushLocked()
}

// flushLocked empties the buffer into the file; errors latch. Callers hold mu.
func (w *wal) flushLocked() error {
	if err := w.bw.Flush(); err != nil {
		w.err = fmt.Errorf("server: wal flush: %w", err)
		return w.err
	}
	return nil
}

// cut atomically reads (records, rejects, per-tenant rejects) for a
// checkpoint. Taking all of them under the append mutex is what makes
// checkpoint accounting exact: a concurrent reject record is either ≤ the
// cut (inside the checkpoint's counters) or > it (replayed from the suffix)
// — never both, never neither. The same holds per tenant, which is why the
// per-tenant reject base comes from this ledger and not from the live
// handler-side atomics.
func (w *wal) cut() (records, rejects uint64, tnRejects map[string]uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	tn := make(map[string]uint64, len(w.tnRejects))
	for id, n := range w.tnRejects {
		tn[id] = n
	}
	return w.n, w.rejects, tn
}

// close flushes, fsyncs, and closes the file.
func (w *wal) close() error {
	_, err := w.commit()
	w.mu.Lock()
	defer w.mu.Unlock()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// walReader streams one incarnation: openWAL reads and checks the header,
// then next decodes one record per call, so replay holds one record at a
// time whatever the log's length. A torn final line ends the stream (dec
// reports it); corruption before the final line is an error.
type walReader struct {
	f    *os.File
	path string
	dec  *trace.LineDecoder
	hdr  walHeader
}

// openWAL opens one incarnation and reads its header.
func openWAL(base string, incarnation uint64) (*walReader, error) {
	path := walPath(base, incarnation)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("server: open wal: %w", err)
	}
	r := &walReader{f: f, path: path, dec: trace.NewLineDecoder(f)}
	var ln walLine
	ok, err := r.dec.Next(&ln)
	switch {
	case err != nil:
		err = fmt.Errorf("server: wal %s: %w", path, err)
	case !ok:
		err = fmt.Errorf("server: wal %s: empty file", path)
	case ln.H == nil:
		err = fmt.Errorf("server: wal %s: first line is not a header", path)
	case ln.H.Format != walFormat:
		err = fmt.Errorf("server: wal %s: format %q, want %q", path, ln.H.Format, walFormat)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	r.hdr = *ln.H
	return r, nil
}

// next decodes the next record; it returns nil at the end of the stream.
func (r *walReader) next() (*walRecord, error) {
	var ln walLine
	ok, err := r.dec.Next(&ln)
	switch {
	case err != nil:
		return nil, fmt.Errorf("server: wal %s: %w", r.path, err)
	case !ok:
		return nil, nil
	case ln.H != nil:
		return nil, fmt.Errorf("server: wal %s: duplicate header at line %d", r.path, r.dec.Lines())
	case ln.R == nil:
		return nil, fmt.Errorf("server: wal %s: line %d has neither header nor record", r.path, r.dec.Lines())
	}
	return ln.R, nil
}

// hexState encodes a captured RNG stream state for a record.
func hexState(b []byte) string { return hex.EncodeToString(b) }

// unhexState decodes a recorded stream state.
func unhexState(s string) ([]byte, error) {
	b, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("server: wal stream state %q: %w", s, err)
	}
	return b, nil
}
