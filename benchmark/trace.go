package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans are
// recorded from outside the program — around the benchmark's own calls —
// and kept in memory until the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	// Op is shared by every span of one pass, trial or request.
	Op    int64 `json:"op"`
	Start int64 `json:"start_ns"` // since the tracer's origin
	End   int64 `json:"end_ns"`
}

// tracer collects spans. The zero-cost-when-off contract: with on == false
// start returns 0 and end ignores it, so untraced runs pay one branch.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, t0: time.Now()}
	if on {
		t.spans = make([]span, 0, 1<<16)
	}
	return t
}

func (t *tracer) start(name string, parent int, op int64) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover. Children of one parent that overlap in time (two
// workers, two connections) are merged first, so the covered part never
// exceeds the parent's own interval.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(kids[s.ID], s.Start, s.End))
	}
	return out
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := iv[0][0], iv[0][1]
	flush := func() {
		a, b := max(curLo, lo), min(curHi, hi)
		if b > a {
			total += b - a
		}
	}
	for _, x := range iv[1:] {
		if x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		flush()
		curLo, curHi = x[0], x[1]
	}
	flush()
	return total
}

// traceFile is what trace_<workload>.json holds.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	SelfNs   map[string]int64 `json:"self_ns"`
	Spans    []span           `json:"spans"`
}

func (t *tracer) write(path, workload string, seed uint64) error {
	self := t.selfTimes()
	tf := traceFile{Workload: workload, Seed: seed, SelfNs: make(map[string]int64, len(self))}
	for k, v := range self {
		tf.SelfNs[k] = v.Nanoseconds()
	}
	t.mu.Lock()
	tf.Spans = t.spans
	b, err := json.Marshal(tf)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
