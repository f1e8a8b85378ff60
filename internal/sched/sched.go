// Package sched implements §V of the paper: the immediate-mode resource
// allocation heuristics (Shortest Queue, Minimum Expected Completion Time,
// Lightest Load, Random) and the two generic filtering mechanisms (energy
// filter and robustness filter) that restrict the set of feasible
// assignments any heuristic may consider.
//
// An assignment maps a single task to a (node, multicore processor, core,
// P-state). A filter may eliminate every assignment, in which case the task
// is discarded (§V-A) and counts as a missed deadline.
package sched

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/pmf"
	"repro/internal/randx"
	"repro/internal/robustness"
	"repro/internal/workload"
)

// Assignment addresses one feasible mapping target: a core (by hierarchical
// ID and flat index) and a P-state.
type Assignment struct {
	Core    cluster.CoreID
	CoreIdx int
	PState  cluster.PState
}

// String renders the assignment compactly.
func (a Assignment) String() string { return fmt.Sprintf("%v@%v", a.Core, a.PState) }

// Candidate is one feasible assignment for the task being mapped, together
// with the quantities heuristics and filters consume. QueueLen, EET, and
// EEC are filled in by BuildCandidates; the expected free time behind ECT
// and the robustness value ρ are computed on first use, once per core and
// once per candidate respectively, so a policy pays only for what it reads.
type Candidate struct {
	Assignment
	// QueueLen is |MQ(i,j,k,t_l)|: tasks currently assigned to the core.
	QueueLen int
	// EET is the expected execution time of the task under this assignment.
	EET float64
	// EEC is the expected energy consumption (§V-A): EET·μ(i,π)/ε(i).
	EEC float64

	// share is the core's slice of the decision: its queue snapshot and
	// the lazily derived free-time mean and distribution, shared by all
	// of the core's P-state candidates.
	share *coreShare
	// rho memoizes Rho(); -1 (set by BuildCandidates) means not yet
	// computed. The sentinel instead of a bool keeps Candidate at 80
	// bytes, exactly a size class; a padded bool would round it up to 96.
	rho float64
}

// ECT returns the expected completion time (§V-A). By linearity of
// expectation it is the core's expected free time plus EET, with no
// convolution needed; the free-time mean is derived on the first call for
// any of the core's candidates.
func (c *Candidate) ECT() float64 { return c.share.freeMean() + c.EET }

// Rho returns ρ(i,j,k,π,t_l,z): the probability of the task completing by
// its deadline under this assignment, evaluated against the core's queue
// snapshot taken at BuildCandidates time. It is computed once and cached.
func (c *Candidate) Rho() float64 {
	if c.rho < 0 {
		s := c.share
		d := s.dec
		c.rho = d.ft.ProbOnTime(c.CoreIdx, s.q, d.now, d.taskType, c.PState, d.deadline, s)
		d.counters.addRho()
	}
	return c.rho
}

// Prediction is the scheduler's forecast for a chosen assignment at
// decision time: the robustness value ρ and a summary of the predicted
// completion-time distribution. The flight recorder persists it so the
// calibration stage can check predictions against observed outcomes.
type Prediction struct {
	// Rho is ρ(i,j,k,π,t_l,z): the predicted on-time probability.
	Rho float64
	// Mean, P50, and P99 summarize the predicted completion-time PMF
	// (absolute times, same axis as Arrival/Deadline).
	Mean, P50, P99 float64
}

// Predict evaluates the candidate's completion-time forecast: ρ plus the
// mean/median/p99 of the predicted completion distribution. Like Rho it
// convolves against the queue snapshot captured at BuildCandidates time, so
// it must be called before the chosen task is enqueued.
func (c *Candidate) Predict() Prediction {
	d := c.share.dec
	comp := d.calc.CompletionPMF(c.share.FreePMF(), d.taskType, c.Core.Node, c.PState)
	return Prediction{
		Rho:  c.Rho(),
		Mean: comp.Mean(),
		P50:  comp.Quantile(0.5),
		P99:  comp.Quantile(0.99),
	}
}

// Context is the information available to heuristics and filters when
// mapping one task at time-step t_l.
type Context struct {
	// Now is t_l, the decision instant (the task's arrival time).
	Now float64
	// Task is the task being mapped.
	Task workload.Task
	// Model is the fixed workload model.
	Model *workload.Model
	// Calc evaluates completion-time distributions.
	Calc *robustness.Calculator
	// EnergyLeft is ζ(t_l): the heuristic's running estimate of remaining
	// energy (budget minus the EEC of every assignment made so far, §V-F).
	EnergyLeft float64
	// TasksLeft is T_left(t_l): window tasks that have not yet arrived.
	TasksLeft int
	// AvgQueueDepth is the running time-average of per-core queue depth
	// (queued plus executing tasks divided by total cores), which selects
	// the energy filter's ζ_mul band.
	AvgQueueDepth float64
	// Rand drives the Random heuristic's choice.
	Rand *randx.Stream
	// Counters, when non-nil, receives hot-path instrumentation (candidate
	// enumeration, free-time cache traffic, filter rejections).
	Counters *Counters
	// FreeTimes answers every free-time quantity of the decision: the
	// expected free time behind ECT, the free-time distribution, and ρ. It
	// is required. The engines set the production
	// robustness.FreeTimeEngine, or robustness.Oracle under
	// sim.Config.ExactRho.
	FreeTimes FreeTimes

	// CoreUp, when non-nil, reports whether the core at a flat index is
	// currently up; BuildCandidates skips down cores entirely. Nil means
	// every core is up (the paper's fault-free world).
	CoreUp func(coreIdx int) bool
	// Availability, when non-nil, gives the steady-state probability that
	// the core at a flat index is up, for the reliability filter's ρ
	// discount. Nil means availability 1 everywhere.
	Availability func(coreIdx int) float64
	// PStateFloor, when above P0, restricts candidates to P-states at or
	// below it in speed (ps >= floor) — the brownout controller's lever for
	// forcing frugal dispatch as the budget drains.
	PStateFloor cluster.PState
	// ZetaMulOverride, when positive, caps the energy filter's ζ_mul at
	// min(schedule value, override) — the brownout controller's admission
	// tightening.
	ZetaMulOverride float64

	// Arena, when non-nil, is the caller-owned scratch BuildCandidates and
	// Map reuse across decisions, eliminating steady-state candidate
	// allocations. With an arena the candidate slice and the candidates it
	// points to are valid only until the next BuildCandidates call that
	// uses the same arena, and Map compacts the slice in place.
	Arena *Arena
}

// availability resolves the context's availability estimate for a core.
func (ctx *Context) availability(coreIdx int) float64 {
	if ctx.Availability == nil {
		return 1
	}
	return ctx.Availability(coreIdx)
}

// FreeTimes is the §IV-B free-time chain of each core, as one decision
// reads it. q is the core's queue snapshot and now the decision instant.
// robustness.FreeTimeEngine is the production implementation, caching
// each core's chain across decisions; robustness.Oracle is the uncached
// exact-ρ reference.
type FreeTimes interface {
	// FreeMean returns the expected instant the core becomes free.
	FreeMean(coreIdx int, q robustness.CoreQueue, now float64) float64
	// FreeTime returns the distribution of that instant.
	FreeTime(coreIdx int, q robustness.CoreQueue, now float64) pmf.PMF
	// ProbOnTime returns ρ for a task of taskType at P-state ps against
	// the core's queue. src serves the core's free-time distribution,
	// memoised per decision, to an implementation that reads it.
	ProbOnTime(coreIdx int, q robustness.CoreQueue, now float64, taskType int, ps cluster.PState, deadline float64, src robustness.FreeSource) float64
}

// SystemView is the scheduler's read-only window into the simulator state.
type SystemView interface {
	// NumCores returns the number of cores in the cluster.
	NumCores() int
	// CoreID returns the hierarchical ID of the core at a flat index.
	CoreID(idx int) cluster.CoreID
	// Queue returns the core's current occupancy snapshot in FIFO order.
	// The snapshot may share the view's storage: it is valid until that
	// core's queue next changes, and callers must not modify it.
	Queue(idx int) robustness.CoreQueue
}

// BuildCandidates enumerates every (core, P-state) assignment for the
// context's task and fills in each candidate's queue length, EET, and EEC.
// EET and EEC depend on the task type, the node, and the P-state but not
// on the core, so they are computed once per (node, P-state) and shared by
// the node's cores. Everything else a policy may read — the expected free
// time behind ECT, the free-time distribution, ρ — is derived on first use
// from the core's queue snapshot, which the candidates of one core share.
//
// With an arena, a candidate slot that already addresses the same core and
// P-state as in the previous decision keeps its assignment: only QueueLen,
// EET, EEC and the ρ memo are written, and the core's ID is read back from
// the slot instead of the view. Slots shifted by a down core or a changed
// P-state floor fail that check and are rewritten in full.
func BuildCandidates(ctx *Context, view SystemView) []*Candidate {
	n := view.NumCores()
	arena := ctx.Arena
	var cands []*Candidate
	var dec *decision
	if arena != nil {
		arena.grow(n*cluster.NumPStates, n)
		cands = arena.ptrs[:0]
		dec = &arena.dec
	} else {
		cands = make([]*Candidate, 0, n*cluster.NumPStates)
		dec = new(decision)
	}
	*dec = decision{calc: ctx.Calc, ft: ctx.FreeTimes, counters: ctx.Counters,
		now: ctx.Now, deadline: ctx.Task.Deadline, taskType: ctx.Task.Type}
	ctx.Counters.addDecision()
	floor := max(ctx.PStateFloor, cluster.P0)
	// row holds the current node's EET and EEC per P-state. It is refilled
	// whenever the node changes, which with the cluster's node-major core
	// order is once per node.
	var row [cluster.NumPStates]struct{ eet, eec float64 }
	rowNode := -1
	for idx := 0; idx < n; idx++ {
		if ctx.CoreUp != nil && !ctx.CoreUp(idx) {
			continue
		}
		var share *coreShare
		if arena != nil {
			share = &arena.shares[idx]
		} else {
			share = new(coreShare)
		}
		share.reset(dec, idx, view.Queue(idx))
		// The core's first slot tells whether its assignment survives from
		// the previous decision; the share is per core, so a slot pointing
		// at it already holds this core's ID.
		var id cluster.CoreID
		if arena != nil && arena.cands[len(cands)].share == share {
			id = arena.cands[len(cands)].Core
		} else {
			id = view.CoreID(idx)
		}
		if id.Node != rowNode {
			rowNode = id.Node
			node := ctx.Model.Cluster.Node(id)
			for ps := floor; ps < cluster.NumPStates; ps++ {
				eet := ctx.Model.ExecMean(ctx.Task.Type, id.Node, ps)
				row[ps].eet = eet
				row[ps].eec = energy.ExpectedEnergy(node, ps, eet)
			}
		}
		for ps := floor; ps < cluster.NumPStates; ps++ {
			var c *Candidate
			if arena != nil {
				c = &arena.cands[len(cands)]
			} else {
				c = new(Candidate)
			}
			// Field-wise assignment instead of struct literals: a literal
			// builds a stack temporary and copies it, which is measurable
			// at 300 candidates per decision.
			if c.share != share || c.PState != ps {
				c.Core = id
				c.CoreIdx = idx
				c.PState = ps
				c.share = share
			}
			c.QueueLen = len(share.q.Tasks)
			c.EET = row[ps].eet
			c.EEC = row[ps].eec
			c.rho = -1
			cands = append(cands, c)
		}
	}
	if arena != nil {
		arena.ptrs = cands
	}
	ctx.Counters.addCandidates(len(cands))
	return cands
}

// Heuristic selects one assignment from the feasible (post-filter) set.
type Heuristic interface {
	// Name identifies the heuristic in results and traces.
	Name() string
	// NeedsRho reports whether the heuristic reads Candidate.Rho, so the
	// mapper can skip convolution work entirely when it does not.
	NeedsRho() bool
	// Choose picks an assignment from a non-empty feasible set. The slice
	// is ordered deterministically (core-major, P-state-minor).
	Choose(ctx *Context, feasible []*Candidate) *Candidate
}

// Filter restricts the feasible assignment set (§V-F). Filters are generic:
// they can be applied to any heuristic.
type Filter interface {
	// Name identifies the filter in results and traces.
	Name() string
	// NeedsRho reports whether the filter reads Candidate.Rho.
	NeedsRho() bool
	// Keep reports whether the candidate remains feasible.
	Keep(ctx *Context, c *Candidate) bool
}

// Mapper combines a heuristic with zero or more filters into the complete
// immediate-mode mapping policy.
type Mapper struct {
	Heuristic Heuristic
	Filters   []Filter
}

// Name renders "heuristic" or "heuristic+f1+f2".
func (m *Mapper) Name() string {
	s := m.Heuristic.Name()
	for _, f := range m.Filters {
		s += "+" + f.Name()
	}
	return s
}

// Map applies the filters to the candidate set and lets the heuristic pick
// from the survivors. It returns nil when every assignment was filtered
// out, in which case the task is discarded (§V-A).
func (m *Mapper) Map(ctx *Context, cands []*Candidate) *Candidate {
	feasible := cands
	for i, f := range m.Filters {
		// With an arena the pointer slice is decision-scoped scratch, so
		// filtering compacts it in place; without one the original slice is
		// left untouched for the caller.
		kept := feasible[:0:0]
		if ctx.Arena != nil {
			kept = feasible[:0]
		}
		if ef, ok := f.(eecFilter); ok {
			// An EEC bound is fixed for the decision: read it once.
			bound := ef.eecBound(ctx)
			for _, c := range feasible {
				if c.EEC <= bound {
					kept = append(kept, c)
				}
			}
		} else {
			for _, c := range feasible {
				if f.Keep(ctx, c) {
					kept = append(kept, c)
				}
			}
		}
		ctx.Counters.addRejections(i, len(feasible)-len(kept))
		feasible = kept
		if len(feasible) == 0 {
			ctx.Counters.addDiscard()
			return nil
		}
	}
	return m.Heuristic.Choose(ctx, feasible)
}
