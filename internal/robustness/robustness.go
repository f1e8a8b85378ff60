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

// FreeTime returns the distribution of the instant the core becomes free
// (finishes everything in queue), predicted at time now. An empty queue
// yields the degenerate distribution at now — the core's ready time.
func (c *Calculator) FreeTime(q CoreQueue, now float64) pmf.PMF {
	c.freeTimeEvals.Inc()
	if len(q.Tasks) == 0 {
		return pmf.Point(now)
	}
	free := c.headStage(q, now)
	for _, t := range q.Tasks[1:] {
		free = pmf.Convolve(free, c.model.ExecPMF(t.Type, q.Node, t.PState))
	}
	return free
}

// headStage derives the now-dependent first stage of a non-empty queue's
// §IV-B chain. A started head's stage is its completion distribution: its
// execution PMF shifted by its start time, past impulses removed and the
// remainder renormalized. An unstarted head's is its execution PMF
// shifted by now, which is exactly what convolving Point(now) with it
// gives (the degenerate-operand shortcut inside Convolve).
func (c *Calculator) headStage(q CoreQueue, now float64) pmf.PMF {
	t0 := q.Tasks[0]
	exec := c.model.ExecPMF(t0.Type, q.Node, t0.PState)
	if !t0.Started {
		return exec.Shift(now)
	}
	comp := exec.Shift(t0.StartAt)
	comp, _ = comp.TruncateBelow(now)
	return comp
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
// distribution, by the paper's sparse pipeline: the compacted completion
// PMF's CDF at the deadline.
func (c *Calculator) ProbOnTime(free pmf.PMF, taskType, node int, p cluster.PState, deadline float64) float64 {
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

// Oracle is the exact-ρ reference that sim.Config.ExactRho runs in place
// of the FreeTimeEngine, with the same three methods. It caches nothing:
// every decision derives each queried core's sparse §IV-B chain from
// scratch, and ρ is the direct double sum P(free + exec <= deadline), with
// no compaction error in the tail. It shares nothing with the lattice, so
// it brackets the lattice's quantization; it is several times slower than
// the engine. It holds no state of its own and is safe for concurrent use.
type Oracle struct{ calc *Calculator }

// NewOracle returns the oracle evaluating against calc's model.
func NewOracle(calc *Calculator) *Oracle {
	if calc == nil {
		panic("robustness: nil calculator")
	}
	return &Oracle{calc: calc}
}

// FreeMean returns E[free time] by linearity, without convolutions: the
// mean of a started head's completion distribution, or now plus an
// unstarted head's execution mean, plus the execution means of the
// waiting tasks.
func (o *Oracle) FreeMean(_ int, q CoreQueue, now float64) float64 {
	if len(q.Tasks) == 0 {
		return now
	}
	m := o.calc.model
	t0 := q.Tasks[0]
	var mean float64
	if t0.Started {
		mean = o.calc.headStage(q, now).Mean()
	} else {
		mean = now + m.ExecMean(t0.Type, q.Node, t0.PState)
	}
	for _, t := range q.Tasks[1:] {
		mean += m.ExecMean(t.Type, q.Node, t.PState)
	}
	return mean
}

// FreeTime returns the core's sparse free-time distribution
// (Calculator.FreeTime).
func (o *Oracle) FreeTime(_ int, q CoreQueue, now float64) pmf.PMF {
	return o.calc.FreeTime(q, now)
}

// ProbOnTime returns ρ as the direct double sum over src's free-time
// distribution, the one the caller memoises for the decision.
func (o *Oracle) ProbOnTime(_ int, q CoreQueue, _ float64, taskType int, ps cluster.PState, deadline float64, src FreeSource) float64 {
	return o.calc.probOnTimeExact(src.FreePMF(), taskType, q.Node, ps, deadline)
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
		if i == 0 {
			done = c.headStage(q, now)
		} else {
			done = pmf.Convolve(done, c.model.ExecPMF(t.Type, q.Node, t.PState))
		}
		sum += done.ProbByDeadline(t.Deadline)
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
