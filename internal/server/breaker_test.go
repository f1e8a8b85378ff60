package server

import (
	"context"
	"testing"

	"repro/internal/fault"
)

func TestBreakerAutomaton(t *testing.T) {
	b := newBreakers(BreakerConfig{Threshold: 2, Cooldown: 100}, 2, 0, 0)

	if !b.allows(0, 0) {
		t.Fatal("fresh breaker closed to traffic")
	}
	// First strike: still closed.
	if open := b.onFault(0, 10, false); open {
		t.Fatal("single strike opened the breaker")
	}
	if !b.allows(0, 11) {
		t.Fatal("breaker open after one strike with threshold 2")
	}
	// Second strike trips it.
	if open := b.onFault(0, 20, false); !open {
		t.Fatal("threshold strike did not open the breaker")
	}
	if b.allows(0, 50) {
		t.Fatal("open breaker admits traffic inside the cooldown")
	}
	if b.opens != 1 {
		t.Fatalf("opens = %d, want 1", b.opens)
	}
	// Cooldown elapsed: half-open, one probe allowed.
	if !b.allows(0, 121) {
		t.Fatal("breaker still closed after cooldown")
	}
	b.onMapped(0)
	if b.allows(0, 122) {
		t.Fatal("half-open breaker admitted a second probe")
	}
	// Probe succeeds: closed, strikes reset.
	b.onSuccess(0)
	if b.stateOf(0) != "closed" {
		t.Fatalf("state %q after successful probe", b.stateOf(0))
	}
	if open := b.onFault(0, 200, false); open {
		t.Fatal("strike count not reset by close")
	}

	// A failed probe reopens immediately.
	b.onFault(0, 210, false) // trips again (second strike since reset)
	if !b.allows(0, 311) {   // half-open
		t.Fatal("no half-open after second cooldown")
	}
	b.onMapped(0)
	if open := b.onFault(0, 312, false); !open {
		t.Fatal("failed probe did not reopen")
	}

	// Permanent death is forever, and independent per node.
	b.onFault(1, 5, true)
	if b.stateOf(1) != "dead" {
		t.Fatalf("state %q after permanent fault", b.stateOf(1))
	}
	if b.allows(1, 1e12) {
		t.Fatal("dead node admits traffic")
	}
}

// TestScriptedFaultRequeue drives a deterministic failure into a loaded
// engine: the stranded task must be requeued, re-mapped, and completed (or
// failed) — never lost — and the node's breaker must record the strikes.
func TestScriptedFaultRequeue(t *testing.T) {
	m := buildModel(t, 20)
	tAvg := m.TAvg()
	eng, clk := newTestEngine(t, m, func(c *Config) {
		c.Faults = fault.Spec{
			RepairTime: tAvg / 2,
			Script: []fault.Scripted{
				{Time: tAvg / 100, Kind: fault.Transient, Core: 0},
				{Time: tAvg / 90, Kind: fault.Transient, Core: 1},
			},
			Recovery: fault.Recovery{Mode: fault.Requeue, MaxRetries: 3, Backoff: tAvg / 10},
		}
		c.Breaker = BreakerConfig{Threshold: 2, Cooldown: tAvg}
	})

	// Load every core so the scripted victims are guaranteed to hold work.
	n := eng.NumCores() + 10
	for i := 0; i < n; i++ {
		if d := submitType(t, eng, i%m.Params.TaskTypes); d.Status != StatusMapped {
			t.Fatalf("task %d not mapped: %v/%q", i, d.Status, d.Reason)
		}
	}
	clk.Advance(1000 * tAvg)
	eng.Sync()

	st := eng.Stats()
	if st.Faults != 2 {
		t.Fatalf("faults = %d, want 2", st.Faults)
	}
	if st.Retries == 0 {
		t.Fatal("no stranded task was retried")
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight after fast-forward: %+v", st)
	}
	if st.Mapped != st.OnTime+st.Late+st.Failed {
		t.Fatalf("fault accounting broken: %+v", st)
	}
	// Cores 0 and 1 are on the same node in cluster order; two strikes with
	// threshold 2 must have opened its breaker.
	if eng.CoreID(0).Node == eng.CoreID(1).Node && st.BreakerOpens == 0 {
		t.Fatalf("same-node double strike did not open the breaker: %+v", st)
	}
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rep := eng.FinalReport(); rep.Orphaned != 0 || !rep.Balanced {
		t.Fatalf("final report: orphaned %d balanced %v", rep.Orphaned, rep.Balanced)
	}
}

// TestPermanentNodeFailure kills a node outright: its queued tasks route
// through recovery, the breaker reports dead, and mapping avoids the node
// from then on.
func TestPermanentNodeFailure(t *testing.T) {
	m := buildModel(t, 21)
	tAvg := m.TAvg()
	eng, clk := newTestEngine(t, m, func(c *Config) {
		c.Faults = fault.Spec{
			Script:   []fault.Scripted{{Time: tAvg / 100, Kind: fault.Permanent, Node: 0}},
			Recovery: fault.Recovery{Mode: fault.Drop},
		}
	})
	n := eng.NumCores() + 5
	for i := 0; i < n; i++ {
		submitType(t, eng, i%m.Params.TaskTypes)
	}
	clk.Advance(10 * tAvg)
	eng.Sync()

	st := eng.Stats()
	if st.Failed == 0 {
		t.Fatalf("node death with drop recovery failed nothing: %+v", st)
	}
	if len(st.Breakers) == 0 || st.Breakers[0] != "dead" {
		t.Fatalf("breakers = %v, want node 0 dead", st.Breakers)
	}
	// New work must never land on the dead node.
	for i := 0; i < 10; i++ {
		d := submitType(t, eng, i%m.Params.TaskTypes)
		if d.Status == StatusMapped && d.Assignment.Node == 0 {
			t.Fatalf("task mapped onto the dead node: %+v", d.Assignment)
		}
	}
	clk.Advance(1000 * tAvg)
	eng.Sync()
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rep := eng.FinalReport(); rep.Orphaned != 0 || !rep.Balanced {
		t.Fatalf("final report: orphaned %d balanced %v", rep.Orphaned, rep.Balanced)
	}
}
