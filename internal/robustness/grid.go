package robustness

import (
	"repro/internal/cluster"
	"repro/internal/pmf"
)

// Fixed-grid (lattice) evaluation. The workload model carries every
// execution PMF snapped onto one shared lattice (workload.Model.ExecLattice,
// step t_avg/workload.LatticeRes), and the §IV-B pipeline runs on it
// end-to-end: heads and execution PMFs stay sparse-on-lattice, chain
// products stay dense, and ρ is answered by pmf.TripleConvCDF against the
// waiting-tail product's prefix sums with no completion PMF materialized.
// The Grid* methods below are the naive (uncached) reference;
// FreeTimeEngine — the production path — runs the same primitives with
// per-core caching and must stay bit-identical to them (the grid mutation
// property test enforces this with ==).
//
// Numerical contract: snapping moves each execution impulse by at most
// step/2, so lattice ρ and the sparse chain's ρ may differ — the lattice is
// a different (finer-grained, exactly-convolved) approximation of the same
// chain, not a bit-compatible replacement. The parity test bounds lattice ρ
// between exact-ρ evaluations of deadlines shifted by the accumulated
// quantization slack.

// GridStep returns the step of the model's lattice.
func (c *Calculator) GridStep() float64 { return c.model.LatticeStep() }

// gridHead derives the head stage of q's chain in lattice form: the
// running task's execution lattice shifted by its start with past impulses
// cut and renormalized, or the unstarted head's lattice shifted by now.
// cut >= 0 only for a started head whose truncation is cacheable by that
// index; every now-dependent degenerate case (empty queue, fully overdue
// head) yields a point lattice at now with cut == -1.
func (c *Calculator) gridHead(q CoreQueue, now float64) (head pmf.Lattice, cut int) {
	step := c.model.LatticeStep()
	if len(q.Tasks) == 0 {
		return pmf.PointLattice(now, step), -1
	}
	t0 := q.Tasks[0]
	base := c.model.ExecLattice(t0.Type, q.Node, t0.PState).Lat
	if !t0.Started {
		return base.Shift(now), -1
	}
	base = base.Shift(t0.StartAt)
	k := base.SearchValue(now)
	trunc, kept := base.TruncateAt(k)
	if kept <= 0 {
		return pmf.PointLattice(now, step), -1
	}
	return trunc, k
}

// gridTail folds the waiting tasks' execution lattices (q.Tasks[1:]) into
// one dense product, left to right — the now-independent part of the chain
// that lattice associativity lets the engine cache and extend. An empty
// tail is the convolution identity.
func (c *Calculator) gridTail(q CoreQueue) pmf.Grid {
	w := c.identity
	if len(q.Tasks) == 0 {
		return w
	}
	for _, t := range q.Tasks[1:] {
		w = w.ConvolveLattice(c.model.ExecLattice(t.Type, q.Node, t.PState).Lat)
	}
	return w
}

// GridFreeTime is the lattice form of FreeTime: the head lattice
// convolved into the waiting-tail product, materialized sparse. An empty
// queue yields the degenerate distribution at now.
func (c *Calculator) GridFreeTime(q CoreQueue, now float64) pmf.PMF {
	c.freeTimeEvals.Inc()
	if len(q.Tasks) == 0 {
		return pmf.Point(now)
	}
	head, _ := c.gridHead(q, now)
	return c.gridTail(q).ConvolveLattice(head).PMF()
}

// GridFreeMean is the lattice form of the linearity shortcut: the
// (truncated) head lattice mean plus the waiting tasks' lattice means.
func (c *Calculator) GridFreeMean(q CoreQueue, now float64) float64 {
	if len(q.Tasks) == 0 {
		return now
	}
	head, _ := c.gridHead(q, now)
	mean := head.Mean()
	for _, t := range q.Tasks[1:] {
		mean += c.model.ExecLattice(t.Type, q.Node, t.PState).Mean
	}
	return mean
}

// GridProbOnTime is the lattice ρ(i,j,k,π,t_l,z): P(head + tail + exec ≤
// deadline) answered by pmf.TripleConvCDF with no completion distribution
// materialized.
func (c *Calculator) GridProbOnTime(q CoreQueue, now float64, taskType int, ps cluster.PState, deadline float64) float64 {
	c.completionEvals.Inc()
	head, cut := c.gridHead(q, now)
	exec := &c.model.ExecLattice(taskType, q.Node, ps).Lat
	w := c.gridTail(q)
	pmf.CountRhoEvals(1)
	if cut >= 0 {
		// Cacheable head: materialize the tail⊛head product and answer
		// from its prefix sums — the expression the engine memoizes per
		// core, so candidates sharing a queue share the expensive factor.
		wh := w.ConvolveLattice(head)
		return wh.ConvCDF(exec, deadline)
	}
	// Degenerate or now-dependent heads (empty queue, unstarted, fully
	// overdue) stay on the allocation-free double sum.
	return pmf.TripleConvCDF(&head, &w, exec, deadline)
}
