package exec

import (
	"repro/internal/cluster"
	"repro/internal/robustness"
	"repro/internal/workload"
)

// Entry is the engine's half of one queue entry: what the scheduler never
// reads.
type Entry struct {
	Task     workload.Task
	Actual   float64 // realized execution time, fixed at map time
	Attempts int     // fault requeue attempts the task has consumed
}

// Queue is one core's FIFO occupancy, held as two slices kept in lockstep:
// Snap is what the scheduler reads, and is itself the snapshot View
// returns; Run is what only the engine reads. Each field has one home, so
// nothing is copied to answer a SystemView.Queue call. Both slices keep
// their capacity across pops and clears, so a steady-state queue never
// reallocates.
type Queue struct {
	Snap []robustness.QueuedTask
	Run  []Entry
}

// Len returns the number of queued tasks, the running head included.
func (q *Queue) Len() int { return len(q.Run) }

// Push appends an entry, to run at P-state ps, to the tail.
func (q *Queue) Push(ent Entry, ps cluster.PState) {
	q.Snap = append(q.Snap, robustness.QueuedTask{Type: ent.Task.Type, PState: ps, Deadline: ent.Task.Deadline})
	q.Run = append(q.Run, ent)
}

// Start marks the head as executing since now.
func (q *Queue) Start(now float64) {
	q.Snap[0].Started = true
	q.Snap[0].StartAt = now
}

// PopFront removes the head by shifting both slices down in place, which
// keeps their capacity (re-slicing past the head would give up a slot).
func (q *Queue) PopFront() {
	n := copy(q.Snap, q.Snap[1:])
	q.Snap = q.Snap[:n]
	copy(q.Run, q.Run[1:])
	q.Run = q.Run[:n]
}

// Clear empties the queue, keeping its capacity.
func (q *Queue) Clear() {
	q.Snap = q.Snap[:0]
	q.Run = q.Run[:0]
}

// View returns the scheduler half without a copy. Its capacity is capped
// at its length, so a consumer's append cannot write into the queue's
// storage; it is valid until the queue next changes.
func (q *Queue) View() []robustness.QueuedTask {
	return q.Snap[:len(q.Snap):len(q.Snap)]
}
