package sched

import (
	"repro/internal/metrics"
	"repro/internal/robustness"
)

// Counters is the scheduler's prepared instrumentation: handles registered
// once per simulation run and bumped on the mapping hot path. The per-ρ
// counts (RhoEvals, FreeTimeHits, FreeTimeMisses) are tallied in plain
// fields and published at Flush, so a ρ evaluation does no atomic: a
// Counters belongs to one engine's single-goroutine event loop, which
// flushes at the end of each decision, and the published counts are exact
// at those boundaries. All methods are nil-receiver-safe, so instrumented
// call sites stay unconditional when no registry is attached.
type Counters struct {
	// Decisions counts mapping decisions (one per arriving task).
	Decisions *metrics.Counter
	// Candidates counts enumerated (core, P-state) assignments.
	Candidates *metrics.Counter
	// FreeTimeHits / FreeTimeMisses track free-time cache traffic. With the
	// engine they count, per ρ evaluation, whether the cached waiting-tail
	// product was reused or had to be folded; they also count the
	// per-decision sparse distribution memo (Predict, and every ρ of the
	// robustness.Oracle): a miss materializes a core's §IV-B chain, a hit
	// reuses it for another P-state of the same core.
	FreeTimeHits   *metrics.Counter
	FreeTimeMisses *metrics.Counter
	// GridRho counts ρ evaluations answered by the lattice CDF kernels
	// (zero under the robustness.Oracle).
	GridRho *metrics.Counter
	// RhoEvals counts ρ(i,j,k,π,t_l,z) evaluations (candidate-level
	// completion-probability convolutions).
	RhoEvals *metrics.Counter
	// ChainHits / ChainMisses / ChainExtends / ChainRebuilds track the
	// cross-decision chain cache (robustness.FreeTimeEngine): a hit returns
	// a core's cached §IV-B chain with zero convolutions, a miss builds it
	// from scratch, an extend absorbs a tail enqueue with one convolution,
	// and a rebuild re-derives a current chain because the running head's
	// truncation cut drifted.
	ChainHits     *metrics.Counter
	ChainMisses   *metrics.Counter
	ChainExtends  *metrics.Counter
	ChainRebuilds *metrics.Counter
	// CompSkips counts ρ evaluations resolved to exactly zero by the
	// infeasibility bound (deadline below the completion support's
	// minimum) without touching any distribution.
	CompSkips *metrics.Counter
	// Discards counts tasks whose feasible set was filtered to empty.
	Discards *metrics.Counter

	// rejections[i] counts candidates eliminated by Mapper.Filters[i];
	// prepared per filter so the hot path avoids map lookups.
	rejections []*metrics.Counter

	// Pending per-ρ counts, published by Flush.
	rho, freeHits, freeMisses int64
}

// NewCounters registers the scheduler's instruments in the registry, with
// one labeled rejection counter per filter in the chain. A nil registry
// yields a Counters whose updates are all no-ops.
func NewCounters(r *metrics.Registry, filters []Filter) *Counters {
	c := &Counters{
		Decisions:      r.Counter("sched_decisions_total"),
		Candidates:     r.Counter("sched_candidates_total"),
		FreeTimeHits:   r.Counter("robustness_freetime_cache_hits_total"),
		FreeTimeMisses: r.Counter("robustness_freetime_cache_misses_total"),
		GridRho:        r.Counter("robustness_grid_rho_total"),
		RhoEvals:       r.Counter("sched_rho_evaluations_total"),
		ChainHits:      r.Counter("robustness_chain_cache_hits_total"),
		ChainMisses:    r.Counter("robustness_chain_cache_misses_total"),
		ChainExtends:   r.Counter("robustness_chain_cache_extends_total"),
		ChainRebuilds:  r.Counter("robustness_chain_cache_rebuilds_total"),
		CompSkips:      r.Counter("robustness_completion_infeasible_skips_total"),
		Discards:       r.Counter("sched_filtered_to_empty_total"),
	}
	c.rejections = make([]*metrics.Counter, len(filters))
	for i, f := range filters {
		c.rejections[i] = r.Counter("sched_filter_rejections_total", metrics.L("filter", f.Name()))
	}
	return c
}

// InstrumentFreeTimes attaches the cache counters to a free-time engine.
// Nil-safe on both sides.
func (c *Counters) InstrumentFreeTimes(e *robustness.FreeTimeEngine) {
	if c == nil || e == nil {
		return
	}
	e.Instrument(c.ChainHits, c.ChainMisses, c.ChainExtends, c.ChainRebuilds, c.CompSkips, c.GridRho, c.FreeTimeHits, c.FreeTimeMisses)
}

func (c *Counters) addDecision() {
	if c == nil {
		return
	}
	c.Decisions.Inc()
}

func (c *Counters) addCandidates(n int) {
	if c == nil {
		return
	}
	c.Candidates.Add(int64(n))
}

func (c *Counters) freeTime(hit bool) {
	if c == nil {
		return
	}
	if hit {
		c.freeHits++
	} else {
		c.freeMisses++
	}
}

func (c *Counters) addRho() {
	if c == nil {
		return
	}
	c.rho++
}

// Flush publishes the pending per-ρ counts with one atomic add per
// non-zero count, and does nothing when none are pending.
func (c *Counters) Flush() {
	if c == nil {
		return
	}
	publish(&c.rho, c.RhoEvals)
	publish(&c.freeHits, c.FreeTimeHits)
	publish(&c.freeMisses, c.FreeTimeMisses)
}

func publish(n *int64, out *metrics.Counter) {
	if *n != 0 {
		out.Add(*n)
		*n = 0
	}
}

func (c *Counters) addRejections(filterIdx, n int) {
	if c == nil || filterIdx >= len(c.rejections) {
		return
	}
	c.rejections[filterIdx].Add(int64(n))
}

func (c *Counters) addDiscard() {
	if c == nil {
		return
	}
	c.Discards.Inc()
}
