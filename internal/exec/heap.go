package exec

// Event is one timed step of an engine. Kind values are the engine's own
// constants; at equal times a lower kind pops first.
type Event struct {
	Time float64
	Kind int
	Idx  int // what the event is about: a task, core, fault source or requeue slot
	Gen  int // the subject's generation at push time; engines drop stale events
	Seq  int // push order, stamped by Heap.Push
}

// before is the heap order: (Time, Kind, Seq). Seq is unique, so the order
// is total and the pop sequence is fully determined by the events pushed.
func (a *Event) before(b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Seq < b.Seq
}

// Heap is a binary min-heap of events. It is typed rather than driven
// through container/heap, so no event is boxed into an interface on push
// or pop.
type Heap struct {
	q   []Event
	seq int
}

// Len returns the number of pending events.
func (h *Heap) Len() int { return len(h.q) }

// Push stamps the event's Seq and adds it.
func (h *Heap) Push(ev Event) {
	ev.Seq = h.seq
	h.seq++
	h.q = append(h.q, ev)
	q := h.q
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// Peek returns the earliest event without removing it. The heap must not
// be empty.
func (h *Heap) Peek() Event { return h.q[0] }

// Pop removes and returns the earliest event. The heap must not be empty.
func (h *Heap) Pop() Event {
	q := h.q
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && q[l].before(&q[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && q[r].before(&q[least]) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	h.q = q
	return top
}

// Clear drops every event and restarts the Seq stamps, as a fresh heap
// would.
func (h *Heap) Clear() {
	h.q = h.q[:0]
	h.seq = 0
}
