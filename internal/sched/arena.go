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
type Arena struct {
	cands  []Candidate
	ptrs   []*Candidate
	shares []coreShare
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

// coreShare is the per-core slice of one decision's free-time memo: the
// queue snapshot plus a lazily materialized sparse free-time distribution
// shared by all of the core's P-state candidates. Predict reads it, and so
// does every ρ on the engine-less reference path.
type coreShare struct {
	ft       *robustness.FreeTimeEngine
	calc     *robustness.Calculator
	counters *Counters
	idx      int
	q        robustness.CoreQueue
	now      float64
	head     pmf.PMF // precomputed head stage for the engine-less fallback
	cached   pmf.PMF
}

// FreePMF materializes (once) and returns the core's free-time
// distribution for this decision.
func (s *coreShare) FreePMF() pmf.PMF {
	hit := !s.cached.IsZero()
	s.counters.freeTime(hit)
	if !hit {
		if s.ft != nil {
			s.cached = s.ft.FreeTime(s.idx, s.q, s.now)
		} else {
			s.cached = s.calc.FreeTimeFrom(s.head, s.q, s.now)
		}
	}
	return s.cached
}
