package server

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/randx"
	"repro/internal/sched"
	"repro/internal/workload"
)

// buildModel makes a small but real model: paper cluster shape, reduced
// type count so tests run in milliseconds.
func buildModel(t testing.TB, seed uint64) *workload.Model {
	t.Helper()
	s := randx.NewStream(seed)
	c, err := cluster.Generate(s.Child("cluster"), cluster.PaperGenParams())
	if err != nil {
		t.Fatal(err)
	}
	p := workload.PaperParams()
	p.TaskTypes = 10
	p.WindowSize = 60
	p.BurstLen = 12
	p.PMFSamples = 300
	m, err := workload.BuildModel(s.Child("wl"), c, p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testMapper(v sched.FilterVariant) *sched.Mapper {
	return &sched.Mapper{Heuristic: sched.LightestLoad{}, Filters: v.Filters()}
}

// newTestEngine builds an engine on a ManualClock. mut tweaks the config
// before construction.
func newTestEngine(t testing.TB, m *workload.Model, mut func(*Config)) (*Engine, *ManualClock) {
	t.Helper()
	clk := NewManualClock()
	cfg := Config{
		Model:  m,
		Mapper: testMapper(sched.NoFilter),
		Clock:  clk,
		Seed:   42,
	}
	if mut != nil {
		mut(&cfg)
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng, clk
}

func submitType(t *testing.T, eng *Engine, ty int) Decision {
	t.Helper()
	d, err := eng.Submit(TaskRequest{Type: ty})
	if err != nil {
		t.Fatalf("submit type %d: %v", ty, err)
	}
	return d
}

func TestEngineMapsAndCompletes(t *testing.T) {
	m := buildModel(t, 1)
	eng, clk := newTestEngine(t, m, nil)

	const n = 8
	for i := 0; i < n; i++ {
		d := submitType(t, eng, i%m.Params.TaskTypes)
		if d.Status != StatusMapped {
			t.Fatalf("task %d: status %v (reason %q), want mapped", i, d.Status, d.Reason)
		}
		if d.Assignment == nil || d.Assignment.ETA <= 0 {
			t.Fatalf("task %d: degenerate assignment %+v", i, d.Assignment)
		}
		if d.Deadline <= d.Arrival {
			t.Fatalf("task %d: deadline %v not after arrival %v", i, d.Deadline, d.Arrival)
		}
	}
	st := eng.Stats()
	if st.Admitted != n || st.Mapped != n || st.InFlight != n {
		t.Fatalf("pre-advance stats: %+v", st)
	}
	if !st.Balanced() {
		t.Fatalf("stats not balanced mid-flight: %+v", st)
	}

	// Fast-forward far past every completion.
	clk.Advance(1000 * m.TAvg())
	eng.Sync()
	st = eng.Stats()
	if st.InFlight != 0 {
		t.Fatalf("tasks still in flight after fast-forward: %+v", st)
	}
	if st.OnTime+st.Late != n || st.Failed != 0 {
		t.Fatalf("completion accounting: %+v", st)
	}
	if st.EnergyConsumed <= 0 {
		t.Fatal("meter did not advance")
	}
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	rep := eng.FinalReport()
	if rep.Orphaned != 0 || !rep.Balanced {
		t.Fatalf("final report: orphaned %d balanced %v", rep.Orphaned, rep.Balanced)
	}
}

func TestEngineDeterministicAcrossRuns(t *testing.T) {
	m := buildModel(t, 2)
	run := func() []Decision {
		eng, clk := newTestEngine(t, m, nil)
		var out []Decision
		for i := 0; i < 6; i++ {
			out = append(out, submitType(t, eng, i))
			clk.Advance(m.TAvg() / 2)
			eng.Sync()
		}
		eng.Close()
		return out
	}
	a, b := run(), run()
	for i := range a {
		// QueueWait is wall time; everything else must be bit-identical.
		x, y := a[i], b[i]
		x.QueueWait, y.QueueWait = 0, 0
		ax, ay := x.Assignment, y.Assignment
		x.Assignment, y.Assignment = nil, nil
		if x != y || (ax == nil) != (ay == nil) || (ax != nil && *ax != *ay) {
			t.Fatalf("decision %d diverged: %+v/%+v vs %+v/%+v", i, x, ax, y, ay)
		}
	}
}

func TestShedInfeasibleDeadline(t *testing.T) {
	m := buildModel(t, 3)
	eng, _ := newTestEngine(t, m, nil)
	zero := 0.0
	d, err := eng.Submit(TaskRequest{Type: 0, Slack: &zero})
	if err != nil {
		t.Fatal(err)
	}
	if d.Status != StatusShed || d.Reason != ShedInfeasible {
		t.Fatalf("status %v reason %q, want shed/%s", d.Status, d.Reason, ShedInfeasible)
	}
	st := eng.Stats()
	if st.Shed != 1 || st.ShedInfeasible != 1 || st.Mapped != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestNoShedInfeasibleRunsFilterChain(t *testing.T) {
	m := buildModel(t, 3)
	eng, _ := newTestEngine(t, m, func(c *Config) {
		c.NoShedInfeasible = true
		c.Mapper = testMapper(sched.RobustnessOnly)
	})
	zero := 0.0
	d, err := eng.Submit(TaskRequest{Type: 0, Slack: &zero})
	if err != nil {
		t.Fatal(err)
	}
	// The robustness filter sees a hopeless deadline and empties the set:
	// same verdict, but via the paper's discard path.
	if d.Status != StatusShed || d.Reason != ShedFiltered {
		t.Fatalf("status %v reason %q, want shed/%s", d.Status, d.Reason, ShedFiltered)
	}
}

func TestPerRequestEnergyCapSheds(t *testing.T) {
	m := buildModel(t, 4)
	eng, _ := newTestEngine(t, m, nil)
	tiny := 1e-300
	d, err := eng.Submit(TaskRequest{Type: 0, MaxEnergy: &tiny})
	if err != nil {
		t.Fatal(err)
	}
	if d.Status != StatusShed || d.Reason != ShedFiltered {
		t.Fatalf("status %v reason %q, want shed/%s", d.Status, d.Reason, ShedFiltered)
	}
	// A sane cap maps fine and the config mapper is not mutated.
	d = submitType(t, eng, 0)
	if d.Status != StatusMapped {
		t.Fatalf("uncapped task not mapped: %v/%q", d.Status, d.Reason)
	}
}

// blockEngine parks the engine goroutine inside the sync handshake so the
// admission queue can be filled (or aged) deterministically. The returned
// release function unblocks it.
func blockEngine(e *Engine) (release func()) {
	gate := make(chan struct{})
	e.syncCh <- gate
	return func() { <-gate }
}

func TestQueueFullBackpressure(t *testing.T) {
	m := buildModel(t, 5)
	eng, _ := newTestEngine(t, m, func(c *Config) { c.QueueCap = 2 })

	release := blockEngine(eng)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = eng.Submit(TaskRequest{Type: 0})
		}()
	}
	// Wait until both occupy the queue (the engine is blocked, so depth can
	// only grow).
	for eng.QueueDepth() < 2 {
		time.Sleep(time.Millisecond)
	}
	_, err := eng.Submit(TaskRequest{Type: 1})
	rej, ok := err.(*ErrRejected)
	if !ok || rej.Reason != RejectQueueFull {
		t.Fatalf("overflow submit: err %v, want queue-full rejection", err)
	}
	if rej.RetryAfter <= 0 {
		t.Fatal("queue-full rejection carries no Retry-After hint")
	}
	release()
	wg.Wait()
	st := eng.Stats()
	if st.Rejected != 1 || st.Admitted != 2 {
		t.Fatalf("stats after backpressure: %+v", st)
	}
}

func TestRequestTimeout(t *testing.T) {
	m := buildModel(t, 6)
	eng, _ := newTestEngine(t, m, func(c *Config) { c.RequestTimeout = time.Nanosecond })

	release := blockEngine(eng)
	done := make(chan Decision, 1)
	go func() {
		d, err := eng.Submit(TaskRequest{Type: 0})
		if err != nil {
			t.Error(err)
		}
		done <- d
	}()
	for eng.QueueDepth() < 1 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond) // age the request well past 1ns
	release()
	d := <-done
	if d.Status != StatusTimedOut {
		t.Fatalf("status %v, want timed-out", d.Status)
	}
	st := eng.Stats()
	if st.TimedOut != 1 || !st.Balanced() {
		t.Fatalf("stats: %+v", st)
	}
}

func TestEnergyExhaustionHalts(t *testing.T) {
	m := buildModel(t, 7)
	eng, clk := newTestEngine(t, m, func(c *Config) {
		c.Budget = m.DefaultEnergyBudget() / 100
	})
	d := submitType(t, eng, 0)
	if d.Status != StatusMapped {
		t.Fatalf("first task not mapped: %v", d.Status)
	}
	// Idle draw alone exhausts 1% of ζ_max quickly.
	for i := 0; i < 1000 && !eng.halted.Load(); i++ {
		clk.Advance(m.TAvg())
		eng.Sync()
	}
	if !eng.halted.Load() {
		t.Fatal("meter never exhausted")
	}
	if _, err := eng.Submit(TaskRequest{Type: 0}); err == nil {
		t.Fatal("submit after halt succeeded")
	} else if rej, ok := err.(*ErrRejected); !ok || rej.Reason != ShedHalted {
		t.Fatalf("post-halt rejection: %v", err)
	}
	st := eng.Stats()
	if !st.Halted || st.InFlight != 0 {
		t.Fatalf("halt state: %+v", st)
	}
	// The in-flight task either completed before the budget ran out or was
	// failed by the halt — never orphaned.
	if st.OnTime+st.Late+st.Failed != st.Mapped {
		t.Fatalf("halt accounting: %+v", st)
	}
	if st.EnergyConsumed > st.EnergyBudget+1e-9 {
		t.Fatalf("meter drifted past ζ_max: %v > %v", st.EnergyConsumed, st.EnergyBudget)
	}
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rep := eng.FinalReport(); rep.Orphaned != 0 || !rep.Balanced {
		t.Fatalf("final report: %+v", rep)
	}
}

func TestBrownoutGatesAdmission(t *testing.T) {
	m := buildModel(t, 8)
	eng, clk := newTestEngine(t, m, func(c *Config) {
		c.Budget = m.DefaultEnergyBudget() / 50
		c.Brownout = []energy.BrownoutStage{
			{Frac: 0.10, ZetaMul: 0.8, PStateFloor: cluster.P2},
			{Frac: 0.30, ZetaMul: 0.5, PStateFloor: cluster.P4, ShedAdmission: true},
		}
	})
	if !eng.Accepting() {
		t.Fatal("fresh engine not accepting")
	}
	// Steps small relative to the budget so stages trip in order instead of
	// being jumped over straight into the halt.
	for i := 0; i < 100000 && !eng.shedGate.Load(); i++ {
		clk.Advance(m.TAvg() / 2000)
		eng.Sync()
		if eng.halted.Load() {
			t.Fatal("halted before the shed stage tripped")
		}
	}
	if !eng.shedGate.Load() {
		t.Fatal("deepest brownout stage never tripped")
	}
	if eng.Accepting() {
		t.Fatal("still accepting under ShedAdmission stage")
	}
	if st := eng.Stats(); st.BrownoutStage != 2 {
		t.Fatalf("stage %d, want 2", st.BrownoutStage)
	}
	_, err := eng.Submit(TaskRequest{Type: 0})
	rej, ok := err.(*ErrRejected)
	if !ok || rej.Reason != ShedBrownout {
		t.Fatalf("brownout rejection: %v", err)
	}
	if rej.RetryAfter <= 0 {
		t.Fatal("brownout rejection carries no Retry-After hint")
	}
}

// TestDrainNeverOrphans is the graceful-drain invariant: a loaded engine
// that drains — with more submissions racing in — answers every request and
// leaves admitted == mapped + shed + timed-out with nothing in flight.
func TestDrainNeverOrphans(t *testing.T) {
	m := buildModel(t, 9)
	eng, _ := newTestEngine(t, m, func(c *Config) { c.QueueCap = 8 })

	// Load the engine: mapped tasks sit in flight (the clock never moves),
	// plus a couple of sheds for variety.
	for i := 0; i < 20; i++ {
		submitType(t, eng, i%m.Params.TaskTypes)
	}
	zero := 0.0
	if _, err := eng.Submit(TaskRequest{Type: 0, Slack: &zero}); err != nil {
		t.Fatal(err)
	}

	// Racers submit while the drain starts; each must get either a decision
	// or a clean rejection, never a hang.
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(ty int) {
			defer wg.Done()
			_, err := eng.Submit(TaskRequest{Type: ty})
			if err != nil {
				if _, ok := err.(*ErrRejected); !ok {
					t.Errorf("racer: unexpected error %v", err)
				}
			}
		}(i % m.Params.TaskTypes)
	}
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	st := eng.Stats()
	if st.InFlight != 0 {
		t.Fatalf("in-flight after drain: %+v", st)
	}
	if st.Admitted != st.Mapped+st.Shed+st.TimedOut {
		t.Fatalf("admission accounting broken: %+v", st)
	}
	if st.Mapped != st.OnTime+st.Late+st.Failed {
		t.Fatalf("completion accounting broken: %+v", st)
	}
	rep := eng.FinalReport()
	if rep.Orphaned != 0 || !rep.Balanced {
		t.Fatalf("final report: orphaned %d balanced %v", rep.Orphaned, rep.Balanced)
	}
	// Drain is idempotent.
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	// Post-drain submissions are rejected as draining.
	if _, err := eng.Submit(TaskRequest{Type: 0}); err == nil {
		t.Fatal("submit after drain succeeded")
	} else if rej, ok := err.(*ErrRejected); !ok || rej.Reason != RejectDraining {
		t.Fatalf("post-drain rejection: %v", err)
	}
}

// TestSubmitAfterLoopExitIsAnswered covers a Submit that passed the
// draining check just before the engine loop's last sweep of the admit
// queue: it must still be answered — timed out after a drain, bounced as
// shard-down after a kill — with the admission accounting balanced. The
// race is modelled by stopping the engine and then clearing draining, as
// for a caller already past the check.
func TestSubmitAfterLoopExitIsAnswered(t *testing.T) {
	m := buildModel(t, 9)
	for _, tc := range []struct {
		name string
		stop func(*Engine)
		want func(Decision, error) bool
	}{
		{"drain", func(e *Engine) {
			if err := e.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
		}, func(d Decision, err error) bool { return err == nil && d.Status == StatusTimedOut }},
		{"kill", (*Engine).Kill, func(_ Decision, err error) bool {
			rej, ok := err.(*ErrRejected)
			return ok && rej.Reason == RejectShardDown
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, _ := newTestEngine(t, m, nil)
			submitType(t, eng, 0)
			tc.stop(eng)
			<-eng.doneCh
			eng.draining.Store(false)
			defer eng.draining.Store(true)
			type reply struct {
				d   Decision
				err error
			}
			got := make(chan reply, 1)
			go func() {
				d, err := eng.Submit(TaskRequest{Type: 1})
				got <- reply{d, err}
			}()
			select {
			case r := <-got:
				if !tc.want(r.d, r.err) {
					t.Fatalf("late submit answered %+v, %v", r.d, r.err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("a submit after the loop exited was never answered")
			}
			if st := eng.Stats(); st.Admitted != st.Mapped+st.Shed+st.TimedOut {
				t.Fatalf("admission accounting broken: %+v", st)
			}
		})
	}
}

func TestDrainGraceFailsStragglers(t *testing.T) {
	m := buildModel(t, 10)
	eng, _ := newTestEngine(t, m, func(c *Config) {
		// An immediately-expiring grace forces the straggler path.
		c.DrainGrace = time.Nanosecond
	})
	for i := 0; i < 5; i++ {
		submitType(t, eng, i)
	}
	err := eng.Drain(context.Background())
	if err == nil {
		t.Fatal("drain with 1ns grace reported success despite in-flight work")
	}
	st := eng.Stats()
	if st.InFlight != 0 {
		t.Fatalf("stragglers left in flight: %+v", st)
	}
	if st.Failed == 0 {
		t.Fatalf("no straggler failed: %+v", st)
	}
	if rep := eng.FinalReport(); rep.Orphaned != 0 || !rep.Balanced {
		t.Fatalf("final report: %+v", rep)
	}
}

func TestConfigValidation(t *testing.T) {
	m := buildModel(t, 11)
	mapper := testMapper(sched.NoFilter)
	cases := []Config{
		{},
		{Model: m},
		{Model: m, Mapper: &sched.Mapper{}},
		{Model: m, Mapper: mapper, Budget: -1},
		{Model: m, Mapper: mapper, QueueCap: -3},
		{Model: m, Mapper: mapper, RequestTimeout: -time.Second},
		{Model: m, Mapper: mapper, Horizon: -1},
		{Model: m, Mapper: mapper, TimeScale: math.NaN()},
		{Model: m, Mapper: mapper, IdlePState: cluster.PState(99)},
		// Brownout without a finite budget.
		{Model: m, Mapper: mapper, Brownout: energy.DefaultServeBrownoutStages()},
		// Malformed brownout schedule.
		{Model: m, Mapper: mapper, Budget: 1, Brownout: []energy.BrownoutStage{{Frac: 2}}},
	}
	for i, cfg := range cases {
		if eng, err := New(cfg); err == nil {
			eng.Close()
			t.Errorf("case %d: config accepted: %+v", i, cfg)
		}
	}
}

// TestCloseBeforeStart: Close on a prepared engine whose loop never ran must
// return (nothing else will ever close doneCh), and Start must then refuse.
func TestCloseBeforeStart(t *testing.T) {
	eng, err := Prepare(Config{Model: buildModel(t, 11), Mapper: testMapper(sched.NoFilter)})
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		eng.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked on an engine that was never started")
	}
	if err := eng.Start(); err == nil {
		t.Fatal("Start succeeded after Close")
	}
}

func TestStatsSnapshotAndMetrics(t *testing.T) {
	m := buildModel(t, 12)
	reg := metrics.NewRegistry()
	eng, clk := newTestEngine(t, m, func(c *Config) { c.Metrics = reg })
	for i := 0; i < 4; i++ {
		submitType(t, eng, i)
	}
	clk.Advance(1000 * m.TAvg())
	eng.Sync()
	snap := reg.Snapshot()
	if v, ok := snap.Value("server_admitted_total"); !ok || v != 4 {
		t.Fatalf("server_admitted_total = %v (present %v)", v, ok)
	}
	if v, ok := snap.Value("server_decisions_total", metrics.L("decision", "mapped")); !ok || v != 4 {
		t.Fatalf("mapped decisions metric = %v (present %v)", v, ok)
	}
	if got := snap.SumByName("server_completed_total"); got != 4 {
		t.Fatalf("completed metric sum = %v", got)
	}
	if v, _ := snap.Value("energy_meter_consumed"); v <= 0 {
		t.Fatalf("energy gauge not exported: %v", v)
	}
}
