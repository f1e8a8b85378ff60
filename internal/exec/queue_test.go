package exec

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/randx"
	"repro/internal/robustness"
	"repro/internal/workload"
)

// TestQueueMatchesReference drives random push / start / PopFront / Clear
// sequences against a plain slice holding both halves of each entry. After
// every step the two halves agree with the reference entry for entry, View
// has len == cap, and a pop or a clear keeps both slices' capacity.
func TestQueueMatchesReference(t *testing.T) {
	type both struct {
		snap robustness.QueuedTask
		run  Entry
	}
	r := randx.NewStream(7)
	var q Queue
	var ref []both
	for step := 0; step < 20000; step++ {
		capSnap, capRun := cap(q.Snap), cap(q.Run)
		shrank := false
		switch op := r.IntN(10); {
		case op < 5 || len(ref) == 0:
			ps := cluster.PState(r.IntN(5))
			ent := Entry{
				Task:     workload.Task{ID: step, Type: r.IntN(30), Deadline: float64(r.IntN(1000))},
				Actual:   float64(r.IntN(100)),
				Attempts: r.IntN(3),
			}
			q.Push(ent, ps)
			ref = append(ref, both{robustness.QueuedTask{Type: ent.Task.Type, PState: ps, Deadline: ent.Task.Deadline}, ent})
		case op < 7:
			now := float64(step)
			q.Start(now)
			ref[0].snap.Started, ref[0].snap.StartAt = true, now
		case op < 9:
			q.PopFront()
			ref = ref[1:]
			shrank = true
		default:
			q.Clear()
			ref = nil
			shrank = true
		}
		if shrank && (cap(q.Snap) != capSnap || cap(q.Run) != capRun) {
			t.Fatalf("step %d: capacity %d/%d after a pop or clear, was %d/%d", step, cap(q.Snap), cap(q.Run), capSnap, capRun)
		}
		if q.Len() != len(ref) || len(q.Snap) != len(ref) {
			t.Fatalf("step %d: len %d (snap %d), reference %d", step, q.Len(), len(q.Snap), len(ref))
		}
		for i := range ref {
			if q.Snap[i] != ref[i].snap || q.Run[i] != ref[i].run {
				t.Fatalf("step %d, entry %d: got %+v / %+v, want %+v / %+v", step, i, q.Snap[i], q.Run[i], ref[i].snap, ref[i].run)
			}
		}
		if v := q.View(); len(v) != cap(v) || len(v) != len(ref) {
			t.Fatalf("step %d: view len %d cap %d, want both %d", step, len(v), cap(v), len(ref))
		}
	}
}
