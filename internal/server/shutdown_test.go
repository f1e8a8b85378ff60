package server

import (
	"context"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// shutdownRecorder is a flight trace that also lists, in call order, the
// tasks fault recovery requeued and the tasks failed for one reason.
type shutdownRecorder struct {
	*trace.Flight
	reason   string
	requeued []int
	failed   []int
}

func (r *shutdownRecorder) TaskRequeued(t float64, task workload.Task, attempt int) {
	r.requeued = append(r.requeued, task.ID)
	r.Flight.TaskRequeued(t, task, attempt)
}

func (r *shutdownRecorder) TaskShed(t float64, task workload.Task, reason string) {
	if reason == r.reason {
		r.failed = append(r.failed, task.ID)
	}
	r.Flight.TaskShed(t, task, reason)
}

// runShutdown maps 40 tasks, strikes three nodes dead so their tasks wait
// in requeue slots behind a backoff no run outlives, and shuts the engine
// down the given way while those slots are still pending.
func runShutdown(t *testing.T, m *workload.Model, how, reason string) *shutdownRecorder {
	t.Helper()
	tAvg := m.TAvg()
	rec := &shutdownRecorder{Flight: trace.NewFlight(m, trace.Header{Kind: trace.KindServe, Seed: 42}, nil), reason: reason}
	eng, clk := newTestEngine(t, m, func(c *Config) {
		c.Observer = rec
		c.Faults = fault.Spec{
			Script: []fault.Scripted{
				{Time: tAvg / 100, Kind: fault.Permanent, Node: 0},
				{Time: tAvg / 100, Kind: fault.Permanent, Node: 1},
				{Time: tAvg / 100, Kind: fault.Permanent, Node: 2},
			},
			Recovery: fault.Recovery{Mode: fault.Requeue, MaxRetries: 3, Backoff: 1e6 * tAvg},
		}
		switch how {
		case "halt":
			c.Budget = m.DefaultEnergyBudget() / 10
		case "drain":
			c.DrainGrace = time.Nanosecond
		}
	})
	for i := 0; i < 40; i++ {
		submitType(t, eng, i%m.Params.TaskTypes)
	}
	clk.Advance(tAvg / 50)
	eng.Sync()
	switch how {
	case "kill":
		eng.Kill()
	case "halt":
		for i := 0; i < 1000 && !eng.halted.Load(); i++ {
			clk.Advance(tAvg)
			eng.Sync()
		}
		if !eng.halted.Load() {
			t.Fatal("meter never exhausted")
		}
	case "drain":
		if err := eng.Drain(context.Background()); err == nil {
			t.Fatal("drain with 1ns grace reported success despite pending requeues")
		}
	}
	return rec
}

// TestShutdownFailsRequeuesInSlotOrder: kill, halt and a drain timeout
// each fail every requeued task, and they do so in slot order (the order
// recovery requeued them), so two identical runs leave identical shed
// sequences in their flight traces.
func TestShutdownFailsRequeuesInSlotOrder(t *testing.T) {
	m := buildModel(t, 11)
	for _, tc := range []struct{ how, reason string }{
		{"kill", FailShardKilled},
		{"halt", FailHalted},
		{"drain", FailDrainTimeout},
	} {
		t.Run(tc.how, func(t *testing.T) {
			a := runShutdown(t, m, tc.how, tc.reason)
			if len(a.requeued) < 5 {
				t.Fatalf("only %d tasks requeued; the scenario does not exercise the order", len(a.requeued))
			}
			if len(a.failed) < len(a.requeued) {
				t.Fatalf("%d tasks failed as %q, fewer than the %d requeued", len(a.failed), tc.reason, len(a.requeued))
			}
			if tail := a.failed[len(a.failed)-len(a.requeued):]; !slices.Equal(tail, a.requeued) {
				t.Fatalf("requeued tasks failed in order %v, want slot order %v", tail, a.requeued)
			}
			b := runShutdown(t, m, tc.how, tc.reason)
			if d := trace.Diff(a.Finish(trace.Summary{}, nil), b.Finish(trace.Summary{}, nil), 5); len(d) > 0 {
				t.Fatalf("two identical runs differ:\n%v", d)
			}
		})
	}
}

// TestIdleHaltIsLogged: a halt's WAL record is also the halt itself, so an
// engine that exhausts its budget with nothing in flight, and so fails
// nothing, still logs it, and recovery comes back halted.
func TestIdleHaltIsLogged(t *testing.T) {
	m := buildModel(t, 12)
	dir := t.TempDir()
	cfg := func(clk *ManualClock) Config {
		return Config{Model: m, Mapper: testMapper(sched.NoFilter), Clock: clk, Seed: 42,
			Budget: idleRate(t, m) * 3 * m.TAvg(), WALPath: filepath.Join(dir, "wal")}
	}
	clk := NewManualClock()
	eng, err := New(cfg(clk))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && !eng.halted.Load(); i++ {
		clk.Advance(m.TAvg())
		eng.Sync()
	}
	if !eng.halted.Load() {
		t.Fatal("idle draw never exhausted the budget")
	}
	eng.Close()
	rec, err := Prepare(cfg(NewManualClock()))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if _, err := rec.RecoverFrom(); err != nil {
		t.Fatal(err)
	}
	if !rec.halted.Load() {
		t.Fatal("recovered engine is not halted: the idle halt was not logged")
	}
}
