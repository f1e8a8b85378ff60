package exec

// The fault mechanics. Which victim a stochastic strike hits and whether a
// stranded task is retried are internal/fault's decisions; this file
// applies them. A strike kills whatever the core is doing — the running
// task's energy is spent and cannot be refunded — the run generation makes
// its pending completion stale, and the running and waiting tasks go to
// the recovery policy. A transiently failed core draws zero watts until
// its repair; a permanently failed node's cores never come back.

import (
	"sort"

	"repro/internal/fault"
	"repro/internal/randx"
	"repro/internal/workload"
)

// Fault sources, carried in EvFault events: the two stochastic processes,
// then the scripted entries.
const (
	SrcTransient = 0
	SrcPermanent = 1
	SrcScript    = 2 // scripted entry i has source SrcScript+i
)

// FaultState is the cluster's failure state and schedule.
type FaultState struct {
	Spec fault.Spec
	// Independent streams per decision type, so draws added to one
	// process never perturb another.
	TransientRng *randx.Stream
	PermanentRng *randx.Stream
	TargetRng    *randx.Stream

	Down     []bool    // per core
	DownAt   []float64 // per core: when it went down (valid while down)
	RepairAt []float64 // per core: absolute pending repair time (0 = none)
	Alive    []bool    // per node, false after a permanent failure
	RunGen   []int     // per core, bumped by a failure

	// Absolute next firing per stochastic source (0 = none) and the
	// scripted entries already fired, so a schedule can be rebuilt.
	NextTransient float64
	NextPermanent float64
	ScriptFired   []bool

	// Requeues holds the stranded tasks awaiting their retry, by slot.
	// Slots are numbered in the order recovery requeued their tasks.
	Requeues map[int]Requeued
	ReqSeq   int // the next slot
}

// Requeued is a stranded task waiting in a requeue slot.
type Requeued struct {
	Task     workload.Task
	Attempts int     // retries consumed, this one included
	FireAt   float64 // absolute dispatch time
}

// NewFaultState builds the failure state of a healthy cluster. The process
// streams are children of rng.
func NewFaultState(spec fault.Spec, rng *randx.Stream, cores, nodes int) *FaultState {
	f := &FaultState{
		Spec:         spec,
		TransientRng: rng.Child("transient"),
		PermanentRng: rng.Child("permanent"),
		TargetRng:    rng.Child("target"),
		Down:         make([]bool, cores),
		DownAt:       make([]float64, cores),
		RepairAt:     make([]float64, cores),
		Alive:        make([]bool, nodes),
		RunGen:       make([]int, cores),
		ScriptFired:  make([]bool, len(spec.Script)),
		Requeues:     make(map[int]Requeued),
	}
	for i := range f.Alive {
		f.Alive[i] = true
	}
	return f
}

// Slots lists the pending requeue slots in ascending order, the order
// recovery requeued their tasks, so a walk over them never depends on map
// iteration.
func (f *FaultState) Slots() []int {
	slots := make([]int, 0, len(f.Requeues))
	for s := range f.Requeues {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	return slots
}

// CoreDown reports whether a core is currently failed.
func (s *State) CoreDown(idx int) bool {
	return s.Faults != nil && s.Faults.Down[idx]
}

// ScheduleFaults draws the first firing of each enabled stochastic
// process and pushes the schedule.
func (s *State) ScheduleFaults() {
	f := s.Faults
	if f.Spec.Transient.Enabled {
		f.NextTransient = f.Spec.Transient.Sample(f.TransientRng)
	}
	if f.Spec.Permanent.Enabled {
		f.NextPermanent = f.Spec.Permanent.Sample(f.PermanentRng)
	}
	s.PushFaultEvents()
}

// PushFaultEvents pushes every pending fault-side event, in a fixed order:
// the stochastic sources' next firings, the scripted entries not yet
// fired, the pending repairs and the requeue slots.
func (s *State) PushFaultEvents() {
	f := s.Faults
	if f.NextTransient > 0 {
		s.Events.Push(Event{Time: f.NextTransient, Kind: EvFault, Idx: SrcTransient})
	}
	if f.NextPermanent > 0 {
		s.Events.Push(Event{Time: f.NextPermanent, Kind: EvFault, Idx: SrcPermanent})
	}
	for i, sf := range f.Spec.Script {
		if !f.ScriptFired[i] {
			s.Events.Push(Event{Time: sf.Time, Kind: EvFault, Idx: SrcScript + i})
		}
	}
	for idx, down := range f.Down {
		if down && f.RepairAt[idx] > 0 {
			s.Events.Push(Event{Time: f.RepairAt[idx], Kind: EvRepair, Idx: idx})
		}
	}
	for _, slot := range f.Slots() {
		s.Events.Push(Event{Time: f.Requeues[slot].FireAt, Kind: EvRequeue, Idx: slot})
	}
}

// FireFault fires one fault source: a stochastic source picks its victim,
// strikes and schedules its next firing; a scripted entry strikes its
// target once.
func (s *State) FireFault(now float64, src int) {
	f := s.Faults
	switch src {
	case SrcTransient:
		if idx, ok := fault.PickVictim(f.TargetRng, f.Down, false); ok {
			s.strike(now, fault.Transient, idx, -1, f.Spec.RepairTime)
		}
		// With every node permanently dead no core can ever be struck
		// again; rescheduling would spin the event loop forever.
		f.NextTransient = 0
		if fault.CountEligible(f.Alive, true) > 0 {
			f.NextTransient = now + f.Spec.Transient.Sample(f.TransientRng)
			s.Events.Push(Event{Time: f.NextTransient, Kind: EvFault, Idx: SrcTransient})
		}
	case SrcPermanent:
		if node, ok := fault.PickVictim(f.TargetRng, f.Alive, true); ok {
			s.strike(now, fault.Permanent, -1, node, 0)
		}
		f.NextPermanent = 0
		if fault.CountEligible(f.Alive, true) > 0 {
			f.NextPermanent = now + f.Spec.Permanent.Sample(f.PermanentRng)
			s.Events.Push(Event{Time: f.NextPermanent, Kind: EvFault, Idx: SrcPermanent})
		}
	default:
		i := src - SrcScript
		sf := f.Spec.Script[i]
		if sf.Kind == fault.Permanent {
			s.strike(now, fault.Permanent, -1, sf.Node, 0)
		} else {
			s.strike(now, fault.Transient, sf.Core, -1, f.Spec.ScriptedRepair(sf))
		}
		f.ScriptFired[i] = true
	}
	s.Hooks.Fired(now, src)
}

// strike applies one failure: a transient one to core, a permanent one to
// every core of node. A strike on a core already down, or a node already
// dead, is reported but changes nothing.
func (s *State) strike(now float64, kind fault.Kind, core, node int, repair float64) {
	f := s.Faults
	if kind == fault.Permanent {
		applied := f.Alive[node]
		s.Hooks.Struck(now, kind, -1, node, applied, 0)
		if !applied {
			return
		}
		f.Alive[node] = false
		for idx, id := range s.Cores {
			if id.Node == node {
				s.downCore(now, kind, idx, 0)
			}
		}
		return
	}
	applied := !f.Down[core]
	repairAt := 0.0
	if applied {
		repairAt = now + repair
	}
	s.Hooks.Struck(now, kind, core, s.Cores[core].Node, applied, repairAt)
	s.downCore(now, kind, core, repair)
}

// downCore takes one core down: its pending completion goes stale, its
// queue is stranded into recovery, its draw drops to zero, and a transient
// failure schedules the repair.
func (s *State) downCore(now float64, kind fault.Kind, idx int, repair float64) {
	f := s.Faults
	if f.Down[idx] {
		return
	}
	f.Down[idx] = true
	f.DownAt[idx] = now
	f.RunGen[idx]++
	if s.FObs != nil {
		s.FObs.CoreFailed(now, s.Cores[idx], kind, repair)
	}
	q := &s.Queues[idx]
	s.FT.Invalidate(idx)
	s.InSystem -= q.Len()
	for i := range q.Run {
		ent := &q.Run[i]
		s.Hooks.Stranded(now, idx, ent, q.Snap[i].Started)
		if s.FObs != nil {
			s.FObs.TaskKilled(now, ent.Task, s.Cores[idx])
		}
		s.Recover(now, ent.Task, ent.Attempts)
	}
	q.Clear()
	s.Hooks.Downed(now, idx)
	s.Meter.SetPower(idx, 0)
	if kind == fault.Transient {
		f.RepairAt[idx] = now + repair
		s.Events.Push(Event{Time: f.RepairAt[idx], Kind: EvRepair, Idx: idx})
	}
}

// Repair brings a transiently failed core back at the idle P-state, unless
// its node died permanently while the repair was pending.
func (s *State) Repair(now float64, idx int) {
	f := s.Faults
	if !f.Down[idx] {
		return
	}
	f.RepairAt[idx] = 0
	if !f.Alive[s.Cores[idx].Node] {
		s.Hooks.Repaired(now, idx, false)
		return
	}
	f.Down[idx] = false
	s.Meter.ClearPower(idx)
	s.SetPState(now, idx, s.IdlePState)
	if s.FObs != nil {
		s.FObs.CoreRepaired(now, s.Cores[idx])
	}
	s.Hooks.Repaired(now, idx, true)
}

// Recover routes one stranded task, which has consumed used retries,
// through the recovery policy: it is lost, or it waits in a new requeue
// slot until its backoff passes. It draws nothing, so it is deterministic
// given (now, task, used).
func (s *State) Recover(now float64, task workload.Task, used int) {
	f := s.Faults
	delay, retry := f.Spec.Recovery.Retry(now, task.Deadline, used)
	if !retry {
		s.Hooks.Lost(now, task)
		return
	}
	if s.FObs != nil {
		s.FObs.TaskRequeued(now, task, used+1)
	}
	slot := f.ReqSeq
	f.ReqSeq++
	r := Requeued{Task: task, Attempts: used + 1, FireAt: now + delay}
	f.Requeues[slot] = r
	s.Hooks.Requeued(now, slot, r)
	s.Events.Push(Event{Time: r.FireAt, Kind: EvRequeue, Idx: slot})
}

// FireRequeue releases a requeue slot whose dispatch time came and hands
// its task to the engine's Retry.
func (s *State) FireRequeue(now float64, slot int) {
	r, ok := s.Faults.Requeues[slot]
	if !ok {
		return
	}
	delete(s.Faults.Requeues, slot)
	s.Hooks.Retry(now, slot, r)
}
