package server

import (
	"testing"
	"time"

	"repro/internal/fault"
)

// liveWaiters counts the manual clock's armed waiters.
func (c *ManualClock) liveWaiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// TestEngineWaitUntilKeepsOneWaiter: every loop turn with a pending event
// arms a timer, and a turn that an admission wins must disarm it. With one
// far-future event and a clock that never moves, 500 submits mean 500 loop
// turns; an engine that never stops its waiters holds 500 of them.
func TestEngineWaitUntilKeepsOneWaiter(t *testing.T) {
	m := buildModel(t, 3)
	eng, clk := newTestEngine(t, m, func(c *Config) {
		c.Faults = fault.Spec{
			RepairTime: m.TAvg(),
			Script:     []fault.Scripted{{Time: 1e6 * m.TAvg(), Kind: fault.Transient, Core: 0}},
		}
	})
	most := 0
	for i := 0; i < 500; i++ {
		submitType(t, eng, i%m.Params.TaskTypes)
		most = max(most, clk.liveWaiters())
	}
	if most > 1 {
		t.Fatalf("up to %d live waiters over 500 submits (%d at the end), want at most 1", most, clk.liveWaiters())
	}
}

// TestRealClockWaitUntilStop: a stopped real-clock waiter never fires, and
// an unstopped one does.
func TestRealClockWaitUntilStop(t *testing.T) {
	c := NewRealClock(1000)
	stopped, stop := c.WaitUntil(c.Now() + 5)
	stop()
	fired, _ := c.WaitUntil(c.Now() + 5)
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("unstopped waiter never fired")
	}
	select {
	case <-stopped:
		t.Fatal("stopped waiter fired")
	case <-time.After(20 * time.Millisecond):
	}
}

// TestClockWaitUntilPast: a wait on an instant the clock has already
// reached is ready at once and arms nothing, on both clocks.
func TestClockWaitUntilPast(t *testing.T) {
	rc := NewRealClockAt(100, 1)
	mc := NewManualClock()
	mc.Advance(100)
	for name, c := range map[string]Clock{"real": rc, "manual": mc} {
		ch, stop := c.WaitUntil(50)
		select {
		case <-ch:
		default:
			t.Fatalf("%s clock: a wait on a past instant is not ready", name)
		}
		stop()
	}
	if n := mc.liveWaiters(); n != 0 {
		t.Fatalf("manual clock holds %d waiters after past-instant waits, want 0", n)
	}
}
