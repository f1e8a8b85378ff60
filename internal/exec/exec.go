// Package exec is the cluster state that both engines step: the
// discrete-event simulator (internal/sim) and the online allocation
// service (internal/server). It holds the paper's §III system model as
// data — every core has one FIFO queue and one P-state, and the P-state
// changes only while the core is idle — together with the time-ordered
// event heap that drives the model and the energy meter that charges it.
// What a step means stays with each engine: when a core starts, completes
// or fails, and what that step reports or logs.
package exec

import (
	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/robustness"
	"repro/internal/sched"
)

// PStateObserver is told of every real P-state transition. sim.Observer
// satisfies it.
type PStateObserver interface {
	PStateChanged(t float64, core cluster.CoreID, ps cluster.PState)
}

// State is one cluster's cores, queues, pending events and meter. It
// implements sched.SystemView. An engine embeds it and confines it to the
// goroutine that steps it.
type State struct {
	Cores  []cluster.CoreID // flat core index → hierarchical ID
	Queues []Queue          // one per core, by flat index
	Events Heap
	Meter  *energy.Meter
	Obs    PStateObserver
}

var _ sched.SystemView = (*State)(nil)

// NewState builds the state of an idle cluster: empty queues, no events.
func NewState(c *cluster.Cluster, meter *energy.Meter, obs PStateObserver) State {
	cores := c.Cores()
	return State{Cores: cores, Queues: make([]Queue, len(cores)), Meter: meter, Obs: obs}
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
