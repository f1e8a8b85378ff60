// Package robustness implements §IV of the paper: stochastic completion
// times and the robustness measure ρ. A resource allocation is robust
// against uncertain task execution times; its robustness at time-step t_l
// is the expected number of tasks that will complete by their individual
// deadlines (Eqs. 3–4). For immediate-mode mapping the per-assignment
// quantity is ρ(i,j,k,π,t_l,z): the probability that task z completes by
// its deadline if assigned to core k of processor j in node i at P-state π.
//
// The completion-time pipeline follows §IV-B exactly: the currently
// executing task's execution-time pmf is shifted by its start time, the
// impulses already in the past are removed and the remainder renormalized,
// and the result is convolved with the execution-time pmfs of the waiting
// tasks and finally with the candidate task's own pmf.
package robustness

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/pmf"
	"repro/internal/workload"
)

// QueuedTask is the robustness-relevant view of a task occupying a core:
// its type, the P-state it was assigned, its deadline, and — if it is the
// task currently executing — its start time.
type QueuedTask struct {
	Type     int
	PState   cluster.PState
	Deadline float64
	Started  bool
	StartAt  float64
}

// CoreQueue is the ordered content of one core at a time-step: the first
// entry, if Started, is the currently executing task; the rest are waiting
// in FIFO order. Node identifies the core's node (all cores of a node are
// homogeneous, so nothing further is needed).
type CoreQueue struct {
	Node  int
	Tasks []QueuedTask
}

// Calculator computes completion-time distributions and robustness values
// against a fixed workload model. It holds no mutable state beyond
// optional atomic instrumentation counters and is safe for concurrent use.
type Calculator struct {
	model *workload.Model

	// exactRho switches ProbOnTime to the direct double-sum oracle (see
	// SetExactRho). Set once before use; not synchronized.
	exactRho bool

	// identity is the convolution identity on the model's lattice, minted
	// once: the empty waiting tail of every chain.
	identity pmf.Grid

	// Optional instrumentation, attached via Instrument. The counters are
	// atomic, so attaching them preserves concurrent safety; nil counters
	// make the increments no-ops.
	freeTimeEvals   *metrics.Counter
	completionEvals *metrics.Counter
}

// NewCalculator returns a Calculator for the given model.
func NewCalculator(m *workload.Model) *Calculator {
	if m == nil {
		panic("robustness: nil model")
	}
	return &Calculator{model: m, identity: pmf.IdentityGrid(m.LatticeStep())}
}

// Instrument attaches counters for free-time chain evaluations (one per
// FreeTime call, each walking a convolution chain down a core's queue) and
// candidate completion-distribution evaluations (one per CompletionPMF
// call). Either counter may be nil.
func (c *Calculator) Instrument(freeTimeEvals, completionEvals *metrics.Counter) {
	c.freeTimeEvals = freeTimeEvals
	c.completionEvals = completionEvals
}

// SetExactRho switches ProbOnTime from the paper's sparse pipeline
// (materialize the compacted completion PMF, read its CDF at the deadline)
// to a direct double-sum evaluation of P(free + exec <= deadline) that has
// no compaction error in the tail. This is the oracle the production
// lattice path is checked against: an uncached reference that shares
// nothing with the lattice (no table, no FreeTimeEngine) and is slower than
// production, since every decision re-derives each queried core's sparse
// chain. Set once before the calculator is shared; the flag is not
// synchronized.
func (c *Calculator) SetExactRho(on bool) { c.exactRho = on }

// ExactRho reports whether the exact-ρ evaluation mode is active.
func (c *Calculator) ExactRho() bool { return c.exactRho }

// FreeTime returns the distribution of the instant the core becomes free
// (finishes everything in queue), predicted at time now. An empty queue
// yields the degenerate distribution at now — the core's ready time.
func (c *Calculator) FreeTime(q CoreQueue, now float64) pmf.PMF {
	return c.FreeTimeFrom(pmf.PMF{}, q, now)
}

// HeadPMF derives the now-dependent first stage of q's §IV-B chain: the
// completion distribution of the running task, i.e. its execution PMF
// shifted by its start time with past impulses removed and the remainder
// renormalized. It returns the zero PMF when the queue is empty or the
// head task has not started (the head stage is then a pure shift that
// FreeTimeFrom derives in place). Callers that need both the expected free
// time and the full distribution derive the head once and pass it to
// FreeTimeFrom, instead of repeating the Shift+TruncateBelow work.
func (c *Calculator) HeadPMF(q CoreQueue, now float64) pmf.PMF {
	if len(q.Tasks) == 0 || !q.Tasks[0].Started {
		return pmf.PMF{}
	}
	t := q.Tasks[0]
	comp := c.model.ExecPMF(t.Type, q.Node, t.PState).Shift(t.StartAt)
	comp, _ = comp.TruncateBelow(now)
	return comp
}

// FreeTimeFrom is FreeTime with the head stage optionally precomputed
// (HeadPMF). A zero head derives it in place; either way the result is
// bit-identical to the naive left-to-right chain.
func (c *Calculator) FreeTimeFrom(head pmf.PMF, q CoreQueue, now float64) pmf.PMF {
	c.freeTimeEvals.Inc()
	if len(q.Tasks) == 0 {
		return pmf.Point(now)
	}
	var free pmf.PMF
	t0 := q.Tasks[0]
	switch {
	case !head.IsZero():
		free = head
	case t0.Started:
		// Completion distribution of the running task: shift by its
		// start, drop past impulses, renormalize (§IV-B).
		comp := c.model.ExecPMF(t0.Type, q.Node, t0.PState).Shift(t0.StartAt)
		comp, _ = comp.TruncateBelow(now)
		free = comp
	default:
		// Convolving Point(now) with the head's execution PMF is exactly
		// the degenerate-operand shift shortcut inside Convolve.
		free = c.model.ExecPMF(t0.Type, q.Node, t0.PState).Shift(now)
	}
	for _, t := range q.Tasks[1:] {
		free = pmf.Convolve(free, c.model.ExecPMF(t.Type, q.Node, t.PState))
	}
	return free
}

// CompletionPMF returns the completion-time distribution of a candidate
// task of the given type if appended to a core of the given node at P-state
// p, where free is the core's FreeTime distribution.
func (c *Calculator) CompletionPMF(free pmf.PMF, taskType, node int, p cluster.PState) pmf.PMF {
	c.completionEvals.Inc()
	return pmf.Convolve(free, c.model.ExecPMF(taskType, node, p))
}

// ProbOnTime returns ρ(i,j,k,π,t_l,z) for a candidate assignment: the
// probability the task completes by deadline given the core's FreeTime
// distribution.
func (c *Calculator) ProbOnTime(free pmf.PMF, taskType, node int, p cluster.PState, deadline float64) float64 {
	if c.exactRho {
		return c.probOnTimeExact(free, taskType, node, p, deadline)
	}
	return c.CompletionPMF(free, taskType, node, p).ProbByDeadline(deadline)
}

// probOnTimeExact evaluates P(free + exec <= deadline) directly as
// Σ_i free.Prob(i) · exec.CDF(deadline − free.Value(i)), without
// materializing (and compacting) the completion PMF. The free-time support
// ascends, so once the remaining slack drops below the fastest possible
// execution no later impulse can contribute and the sum terminates early.
func (c *Calculator) probOnTimeExact(free pmf.PMF, taskType, node int, p cluster.PState, deadline float64) float64 {
	c.completionEvals.Inc()
	exec := c.model.ExecPMF(taskType, node, p)
	if free.IsZero() || exec.IsZero() {
		return 0
	}
	emin := exec.Min()
	sum := 0.0
	for i := 0; i < free.Len(); i++ {
		slack := deadline - free.Value(i)
		if slack < emin {
			break
		}
		sum += free.Prob(i) * exec.CDF(slack)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// ExpectedCompletion returns ECT (§V-A) for a candidate assignment. By
// linearity of expectation it avoids the convolution entirely.
func (c *Calculator) ExpectedCompletion(free pmf.PMF, taskType, node int, p cluster.PState) float64 {
	return free.Mean() + c.model.ExecPMF(taskType, node, p).Mean()
}

// CoreRobustness evaluates ρ(i,j,k,t_l) (Eq. 3): the expected number of
// on-time completions among the tasks currently occupying the core,
// predicted at time now.
func (c *Calculator) CoreRobustness(q CoreQueue, now float64) float64 {
	if len(q.Tasks) == 0 {
		return 0
	}
	sum := 0.0
	var done pmf.PMF // completion distribution of the prefix
	for i, t := range q.Tasks {
		exec := c.model.ExecPMF(t.Type, q.Node, t.PState)
		if i == 0 {
			if t.Started {
				comp := exec.Shift(t.StartAt)
				comp, _ = comp.TruncateBelow(now)
				done = comp
			} else {
				done = exec.Shift(now)
			}
		} else {
			done = pmf.Convolve(done, exec)
		}
		sum += done.ProbByDeadline(t.Deadline)
	}
	return sum
}

// SystemRobustness evaluates ρ(t_l) (Eq. 4): the sum of CoreRobustness
// over every core in the cluster.
func (c *Calculator) SystemRobustness(queues []CoreQueue, now float64) float64 {
	sum := 0.0
	for i := range queues {
		sum += c.CoreRobustness(queues[i], now)
	}
	return sum
}

// Model returns the workload model the calculator evaluates against.
func (c *Calculator) Model() *workload.Model { return c.model }

// String identifies the calculator for diagnostics.
func (c *Calculator) String() string {
	return fmt.Sprintf("robustness.Calculator{types=%d nodes=%d}",
		c.model.Params.TaskTypes, c.model.Cluster.N())
}
