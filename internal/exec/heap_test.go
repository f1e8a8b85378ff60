package exec

import (
	"testing"

	"repro/internal/randx"
)

// TestEventHeapPopsInTotalOrder interleaves random pushes and pops, with
// many equal times and kinds, and checks every pop against a reference
// that holds the same events and sorts them on (time, kind, seq).
func TestEventHeapPopsInTotalOrder(t *testing.T) {
	r := randx.NewStream(3)
	var h Heap
	var ref []Event
	pops := 0
	for seq := 0; seq < 20000; {
		if h.Len() == 0 || r.IntN(3) > 0 {
			ev := Event{Time: float64(r.IntN(8)), Kind: r.IntN(6), Idx: seq}
			h.Push(ev)
			ev.Seq = seq // Push stamps push order
			seq++
			ref = append(ref, ev)
			continue
		}
		checkPop(t, &h, &ref)
		pops++
	}
	for h.Len() > 0 {
		checkPop(t, &h, &ref)
		pops++
	}
	if pops != 20000 || len(ref) != 0 {
		t.Fatalf("%d pops, %d events left in the reference", pops, len(ref))
	}
}

// checkPop pops h and requires the reference's least event on
// (time, kind, seq), which it removes from ref.
func checkPop(t *testing.T, h *Heap, ref *[]Event) {
	t.Helper()
	r := *ref
	least := 0
	for i, x := range r {
		y := r[least]
		if x.Time < y.Time || x.Time == y.Time && (x.Kind < y.Kind || x.Kind == y.Kind && x.Seq < y.Seq) {
			least = i
		}
	}
	if peek := h.Peek(); peek != r[least] {
		t.Fatalf("peek: got %+v, want %+v", peek, r[least])
	}
	if got := h.Pop(); got != r[least] {
		t.Fatalf("pop: got %+v, want %+v", got, r[least])
	}
	*ref = append(r[:least], r[least+1:]...)
}
