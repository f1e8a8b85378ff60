// Package exec is the cluster both engines step, the simulator
// (internal/sim) and the allocation service (internal/server): the
// paper's §III model — one FIFO queue and one P-state per core, the
// P-state changing only while the core is idle — with the event heap that
// drives it, the meter that charges it, and its lifecycle, written once:
// a head starts and completes, a fault strikes, a core goes down and comes
// back, a stranded task is retried or lost. What a step means beyond the
// model (what it counts, traces or logs, how a retry is mapped again)
// stays with each engine, behind Hooks.
package exec

import (
	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/robustness"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Event kinds, in tie-break order at equal times: completions free cores
// before a simultaneous arrival is mapped, a core is handed work before a
// simultaneous park fires, and normal progress happens before a failure
// strikes; a repair lands after its fault, and a requeued task re-enters
// the mapper last. Arrivals and parks are the simulator's own.
const (
	EvCompletion = iota // Idx is the core, Gen its run generation
	EvArrival           // Idx is the task
	EvPark              // Idx is the core, Gen its idle generation
	EvFault             // Idx is the fault source
	EvRepair            // Idx is the core
	EvRequeue           // Idx is the requeue slot
	NumEventKinds
)

// Observer is told of every core-level step; sim.Observer embeds it.
type Observer interface {
	// TaskStarted fires when a core begins executing a task.
	TaskStarted(t float64, task workload.Task, a sched.Assignment)
	// TaskFinished fires at completion; onTime reports deadline success.
	TaskFinished(t float64, task workload.Task, a sched.Assignment, onTime bool)
	// PStateChanged fires on every core P-state transition.
	PStateChanged(t float64, core cluster.CoreID, ps cluster.PState)
}

// FaultObserver is an optional Observer extension for runs with fault
// injection: implementations additionally see failures, repairs, killed
// tasks, and requeue decisions. repair is the scheduled down interval for
// transient faults and 0 for permanent ones.
type FaultObserver interface {
	CoreFailed(t float64, core cluster.CoreID, kind fault.Kind, repair float64)
	CoreRepaired(t float64, core cluster.CoreID)
	// TaskKilled fires for every task stranded on the failed core (running
	// or waiting); whether it is lost or retried is reported separately via
	// TaskRequeued / the task's final outcome.
	TaskKilled(t float64, task workload.Task, core cluster.CoreID)
	// TaskRequeued fires when the recovery policy schedules a retry;
	// attempt counts from 1.
	TaskRequeued(t float64, task workload.Task, attempt int)
}

// Hooks is an engine's side of the lifecycle. Each method runs at one
// fixed point of a shared step, on the goroutine that steps the state.
type Hooks interface {
	// Started: the head of core idx began running at P-state ps. The
	// returned delay postpones its completion (a parked core's wake-up).
	Started(now float64, idx int, ps cluster.PState, head *Entry) (delay float64)
	// Finished: task left the head of core idx; onTime is its verdict.
	// The core's next head has not started yet.
	Finished(now float64, idx int, task workload.Task, onTime bool)
	// Struck: a fault hit core (transient; node is its node) or node
	// (permanent; core is -1), and nothing has changed yet. applied is
	// false when the target was already down or dead; repairAt is the
	// absolute repair time of an applied transient strike, else 0.
	Struck(now float64, kind fault.Kind, core, node int, applied bool, repairAt float64)
	// Stranded: the fault that downed core idx stranded ent, which was
	// running when started is set. Recover routes it next.
	Stranded(now float64, idx int, ent *Entry, started bool)
	// Downed: core idx is down and its queue cleared; it still draws power.
	Downed(now float64, idx int)
	// Repaired: a repair came due on down core idx. applied is false when
	// its node died meanwhile and the core stays down.
	Repaired(now float64, idx int, applied bool)
	// Lost: the recovery policy gave task up.
	Lost(now float64, task workload.Task)
	// Requeued: r waits in requeue slot for its retry.
	Requeued(now float64, slot int, r Requeued)
	// Fired: fault source src fired and its next firing is scheduled.
	Fired(now float64, src int)
	// Retry: r's dispatch time came and its slot is released. The engine
	// maps the task again, or hands it back to Recover.
	Retry(now float64, slot int, r Requeued)
}

// State is one cluster's cores, queues, pending events and meter. It
// implements sched.SystemView. An engine embeds it, sets Hooks, and
// confines it to the goroutine that steps it.
type State struct {
	Cores  []cluster.CoreID // flat core index → hierarchical ID
	Queues []Queue          // one per core, by flat index
	Events Heap
	Meter  *energy.Meter
	// FT is the free-time cache the lifecycle keeps current; nil is a
	// valid engine that caches nothing.
	FT         *robustness.FreeTimeEngine
	IdlePState cluster.PState // the P-state an idle core drops to
	InSystem   int            // tasks queued or running on a core
	// Faults is the failure state. A simulation that injects no faults
	// leaves it nil, which keeps its fault-free path free of it.
	Faults *FaultState
	Obs    Observer
	FObs   FaultObserver // Obs, when it wants fault events; else nil
	Hooks  Hooks
}

var _ sched.SystemView = (*State)(nil)

// NewState builds the state of an idle cluster: empty queues, no events.
func NewState(c *cluster.Cluster, meter *energy.Meter, idle cluster.PState, obs Observer) State {
	cores := c.Cores()
	s := State{Cores: cores, Queues: make([]Queue, len(cores)), Meter: meter, IdlePState: idle, Obs: obs}
	s.FObs, _ = obs.(FaultObserver)
	return s
}

// NumCores implements sched.SystemView.
func (s *State) NumCores() int { return len(s.Cores) }

// CoreID implements sched.SystemView.
func (s *State) CoreID(idx int) cluster.CoreID { return s.Cores[idx] }

// Queue implements sched.SystemView in O(1) and without a copy: the
// snapshot is the queue's own scheduler half (see Queue.View), valid until
// the core's queue next changes.
func (s *State) Queue(idx int) robustness.CoreQueue {
	return robustness.CoreQueue{Node: s.Cores[idx].Node, Tasks: s.Queues[idx].View()}
}

// SetPState changes a core's P-state through the meter and tells the
// observer of real transitions only. When a power override is active the
// meter call happens even at an unchanged P-state, so the override is
// cleared and the core charges table power again (a parked or repaired
// core that starts a task at the idle P-state must not keep its override).
func (s *State) SetPState(now float64, idx int, ps cluster.PState) {
	changed := s.Meter.PStateOf(idx) != ps
	if !changed && !s.Meter.Overridden(idx) {
		return
	}
	s.Meter.SetPState(idx, ps)
	if changed {
		s.Obs.PStateChanged(now, s.Cores[idx], ps)
	}
}

// Assignment rebuilds the sched.Assignment of a task running on a core at
// P-state ps.
func (s *State) Assignment(idx int, ps cluster.PState) sched.Assignment {
	return sched.Assignment{Core: s.Cores[idx], CoreIdx: idx, PState: ps}
}

// StartHead begins executing the head of the core's queue: the core, idle
// at this instant, moves to the task's P-state, and the completion event
// is scheduled at the realized finish time.
func (s *State) StartHead(now float64, idx int) {
	s.FT.Invalidate(idx) // the head gains Started/StartAt
	q := &s.Queues[idx]
	ps, head := q.Snap[0].PState, &q.Run[0]
	s.SetPState(now, idx, ps)
	q.Start(now)
	delay := s.Hooks.Started(now, idx, ps, head)
	s.Obs.TaskStarted(now, head.Task, s.Assignment(idx, ps))
	gen := 0
	if s.Faults != nil {
		gen = s.Faults.RunGen[idx]
	}
	s.Events.Push(Event{Time: now + delay + head.Actual, Kind: EvCompletion, Idx: idx, Gen: gen})
}

// CompleteHead retires the head of the core's queue with its on-time
// verdict, then starts the next task or drops the core to the idle
// P-state.
func (s *State) CompleteHead(now float64, idx int) {
	q := &s.Queues[idx]
	head, ps := q.Run[0].Task, q.Snap[0].PState
	q.PopFront()
	// One version bump covers the head pop and anything the engine drops
	// from the queue in Finished: no free-time query runs before it settles.
	s.FT.Invalidate(idx)
	s.InSystem--
	onTime := now <= head.Deadline
	s.Hooks.Finished(now, idx, head, onTime)
	s.Obs.TaskFinished(now, head, s.Assignment(idx, ps), onTime)
	if q.Len() > 0 {
		s.StartHead(now, idx)
	} else {
		s.SetPState(now, idx, s.IdlePState)
	}
}

// Stale reports whether a completion event refers to an execution that a
// failure already killed: the core's run generation moved on.
func (s *State) Stale(ev Event) bool {
	return s.Faults != nil && ev.Gen != s.Faults.RunGen[ev.Idx]
}
