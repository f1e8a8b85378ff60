package sim

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/robustness"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Central-queue scheduling mode — the §VIII "ability to cancel and/or
// reschedule tasks" direction. Instead of committing each task to a core
// and P-state the instant it arrives (immediate mode, §III-B), arriving
// tasks wait in one cluster-wide pool and commit only when a core is ready
// to execute them. Deferring the decision lets the scheduler exploit
// everything it learns between arrival and start: which cores actually
// freed up, and how much energy remains.
//
// Both modes run the one engine loop (sim.go); central mode differs only in
// where a task waits. An arrival, or a requeued task's retry, joins the
// pool instead of going to the mapper, and dispatch greedily matches idle
// cores with pooled tasks whenever either appears: after an arrival, a
// completion, a repair or a retry. Per-core queues therefore hold at most
// the running task, and a dispatched task goes through the same commit
// step as an immediate-mode mapping.

// PullPolicy decides, for an idle core, which pooled task to execute next
// and at which P-state. Implementations see the same robustness calculator
// the immediate-mode heuristics use.
type PullPolicy interface {
	// Name identifies the policy in results.
	Name() string
	// Select picks a task index from the pool (and a P-state) for the idle
	// core, or -1 to leave the core idle. pool is never empty. The engine
	// passes the node of the idle core, the current time, the
	// heuristic-side remaining-energy estimate ζ(t_l), and the number of
	// trial tasks still to arrive.
	Select(calc *robustness.Calculator, pool []workload.Task, node int, now, energyLeft float64, tasksLeft int) (int, cluster.PState)
}

// EDFCheapest is the default pull policy: earliest deadline first, run at
// the cheapest P-state whose on-time probability still clears the
// threshold (default 0.5), or the fastest P-state when none does. It
// combines the robustness filter's idea with deadline ordering.
type EDFCheapest struct {
	// RhoThresh is the acceptable on-time probability (0 means 0.5).
	RhoThresh float64
}

// Name returns "EDFCheapest".
func (EDFCheapest) Name() string { return "EDFCheapest" }

// Select implements PullPolicy.
func (p EDFCheapest) Select(calc *robustness.Calculator, pool []workload.Task, node int, now, _ float64, _ int) (int, cluster.PState) {
	thresh := p.RhoThresh
	if thresh == 0 {
		thresh = 0.5
	}
	best := 0
	for i := 1; i < len(pool); i++ {
		if pool[i].Deadline < pool[best].Deadline {
			best = i
		}
	}
	task := pool[best]
	// The core is idle: completion distribution is the execution pmf
	// shifted to now. Walk from the cheapest state up.
	m := calc.Model()
	for ps := cluster.NumPStates - 1; ps >= 0; ps-- {
		state := cluster.PState(ps)
		rho := m.ExecPMF(task.Type, node, state).Shift(now).ProbByDeadline(task.Deadline)
		if rho >= thresh {
			return best, state
		}
	}
	return best, cluster.P0
}

// validateCentral checks the central-queue configuration.
func validateCentral(cfg Config) error {
	if cfg.CentralQueue == nil {
		return nil
	}
	if cfg.Mapper != nil {
		return fmt.Errorf("sim: CentralQueue replaces the Mapper; configure exactly one")
	}
	if cfg.CancelOverdueWaiting {
		return fmt.Errorf("sim: CancelOverdueWaiting applies to per-core queues, not the central pool")
	}
	return nil
}

// idleCore returns the lowest flat index of a core that is up and has an
// empty queue, or -1 when every core is busy or down.
func (e *engine) idleCore() int {
	for idx := range e.Queues {
		if e.Queues[idx].Len() == 0 && !e.CoreDown(idx) {
			return idx
		}
	}
	return -1
}

// dispatch matches idle cores with pooled tasks until one side runs dry,
// offering the lowest-indexed idle core first. It is a no-op in immediate
// mode.
func (e *engine) dispatch(now float64) {
	if e.central == nil {
		return
	}
	for len(e.pool) > 0 {
		coreIdx := e.idleCore()
		if coreIdx < 0 {
			return
		}
		node := e.Cores[coreIdx].Node
		pick, ps := e.central.Select(e.calc, e.pool, node, now, e.energyLeft, len(e.trial.Tasks)-e.arrived)
		if pick < 0 || pick >= len(e.pool) {
			return // policy declines; core stays idle
		}
		if e.bro != nil {
			// An active brownout stage floors dispatch at frugal P-states
			// regardless of what the pull policy asked for.
			if st := e.bro.Current(); st != nil && ps < st.PStateFloor {
				ps = st.PStateFloor
			}
		}
		task, attempts := e.pool[pick], e.poolAtt[pick]
		e.pool = append(e.pool[:pick], e.pool[pick+1:]...)
		e.poolAtt = append(e.poolAtt[:pick], e.poolAtt[pick+1:]...)

		exec := e.cfg.Model.ExecPMF(task.Type, node, ps)
		eec := exec.Mean() * e.cfg.Model.Cluster.Node(e.Cores[coreIdx]).Power[ps] /
			e.cfg.Model.Cluster.Node(e.Cores[coreIdx]).Efficiency
		// The core is idle at dispatch, so the predicted completion
		// distribution is the execution pmf shifted to now — the same
		// quantity EDFCheapest evaluates when choosing the P-state.
		e.commit(now, task, e.Assignment(coreIdx, ps), eec, func() sched.Prediction {
			comp := exec.Shift(now)
			return sched.Prediction{
				Rho:  comp.ProbByDeadline(task.Deadline),
				Mean: comp.Mean(),
				P50:  comp.Quantile(0.5),
				P99:  comp.Quantile(0.99),
			}
		}, attempts)
	}
}
