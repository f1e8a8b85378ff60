package sched

import (
	"repro/internal/pmf"
	"repro/internal/robustness"
)

// Arena is a caller-owned per-decision scratch that makes candidate
// enumeration allocation-free at steady state. BuildCandidates places the
// Candidate structs, the pointer slice it returns, and the per-core
// free-time shares in the arena's backing arrays instead of the heap;
// Mapper.Map filters the pointer slice in place. Each decision overwrites
// the previous one's storage, so candidates obtained through an arena are
// valid only until the next BuildCandidates call with the same arena — the
// engines consume the chosen candidate (Predict, enqueue) before the next
// decision, which is exactly that contract. Not safe for concurrent use;
// each engine owns one arena, matching its single-goroutine event loop.
//
// The Candidate structs are persistent slots: a slot that addresses the
// same core and P-state as in the previous decision keeps its assignment,
// core ID included, which BuildCandidates then reads back instead of
// asking the view. An arena therefore serves one cluster — every view it
// is used with must map each flat core index to the same CoreID.
type Arena struct {
	cands  []Candidate
	ptrs   []*Candidate
	shares []coreShare
	dec    decision
}

// NewArena returns an empty arena; the first decision grows it to the
// cluster's candidate count and steady state reuses that storage.
func NewArena() *Arena { return &Arena{} }

// grow ensures capacity for maxCands candidates and nCores shares. The
// candidate array is sized fully up front because BuildCandidates takes
// interior pointers as it fills it — append-style regrowth would move the
// backing array out from under them.
func (a *Arena) grow(maxCands, nCores int) {
	if cap(a.cands) < maxCands {
		a.cands = make([]Candidate, maxCands)
	}
	a.cands = a.cands[:maxCands]
	if cap(a.ptrs) < maxCands {
		a.ptrs = make([]*Candidate, 0, maxCands)
	}
	if cap(a.shares) < nCores {
		a.shares = make([]coreShare, nCores)
	}
	a.shares = a.shares[:nCores]
}

// decision is what every candidate of one mapping decision shares: the
// task being mapped, the decision instant, and the evaluators behind the
// lazily derived quantities.
type decision struct {
	calc     *robustness.Calculator
	ft       FreeTimes
	counters *Counters
	now      float64
	deadline float64
	taskType int
}

// coreShare is the per-core slice of one decision: the queue snapshot plus
// the free-time mean and distribution, each derived on first use and
// shared by all of the core's P-state candidates. ECT reads the mean;
// Predict reads the distribution, and so does every ρ of the oracle.
type coreShare struct {
	dec    *decision
	idx    int
	q      robustness.CoreQueue
	mean   float64
	meanOK bool
	cached pmf.PMF
}

// reset points the share at a new decision's snapshot of core idx. It
// assigns field by field: a struct literal would copy the whole share,
// its PMF included, once per core per decision.
func (s *coreShare) reset(dec *decision, idx int, q robustness.CoreQueue) {
	s.dec = dec
	s.idx = idx
	s.q = q
	s.meanOK = false
	s.cached = pmf.PMF{}
}

// freeMean derives (once) and returns the core's expected free time.
func (s *coreShare) freeMean() float64 {
	if !s.meanOK {
		d := s.dec
		s.mean = d.ft.FreeMean(s.idx, s.q, d.now)
		s.meanOK = true
	}
	return s.mean
}

// FreePMF materializes (once) and returns the core's free-time
// distribution for this decision.
func (s *coreShare) FreePMF() pmf.PMF {
	hit := !s.cached.IsZero()
	d := s.dec
	d.counters.freeTime(hit)
	if !hit {
		s.cached = d.ft.FreeTime(s.idx, s.q, d.now)
	}
	return s.cached
}
