package server

import (
	"sync"
	"time"
)

// Clock maps wall-clock time onto the simulation's virtual time axis. The
// allocation engine is written entirely against virtual time (the same
// units as task execution pmfs and deadlines); the clock decides how fast
// that axis advances. A RealClock ties it to the wall at a configurable
// scale; tests drive a ManualClock by hand for fully deterministic runs.
type Clock interface {
	// Now returns the current virtual time. It must be monotone
	// non-decreasing.
	Now() float64
	// WaitUntil returns a channel that receives (or closes) once virtual
	// time vt has been reached, and a stop function that disarms the wait.
	// A vt at or before Now fires immediately. Each call returns an
	// independent one-shot channel; a waiter that is no longer needed must
	// be stopped, or it stays armed until vt. Stopping again, or after the
	// wait fired, is a no-op.
	WaitUntil(vt float64) (<-chan struct{}, func())
}

// RealClock advances virtual time at Scale units per wall second, starting
// from a fixed virtual origin at construction (zero for a fresh service).
type RealClock struct {
	start  time.Time
	origin float64
	scale  float64
}

// NewRealClock returns a clock running at scale virtual units per wall
// second; scale must be positive.
func NewRealClock(scale float64) *RealClock {
	return NewRealClockAt(0, scale)
}

// NewRealClockAt returns a clock that reads origin now and advances at
// scale virtual units per wall second — the recovery path's clock, so a
// restarted engine resumes at the virtual time it recovered rather than
// stalling behind the monotone clamp until the wall catches up. Virtual
// time is frozen while the process is down.
func NewRealClockAt(origin, scale float64) *RealClock {
	return &RealClock{start: time.Now(), origin: origin, scale: scale}
}

// Now implements Clock.
func (c *RealClock) Now() float64 {
	return c.origin + time.Since(c.start).Seconds()*c.scale
}

// WaitUntil implements Clock. The stop function stops the runtime timer.
func (c *RealClock) WaitUntil(vt float64) (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	delta := vt - c.Now()
	if delta <= 0 {
		ch <- struct{}{}
		return ch, func() {}
	}
	d := time.Duration(delta / c.scale * float64(time.Second))
	t := time.AfterFunc(d, func() { ch <- struct{}{} })
	return ch, func() { t.Stop() }
}

// ManualClock is a hand-driven clock for deterministic tests: virtual time
// only moves when Advance is called, and waiters fire synchronously inside
// the Advance that reaches them.
type ManualClock struct {
	mu      sync.Mutex
	now     float64
	waiters []manualWaiter
}

type manualWaiter struct {
	vt float64
	ch chan struct{}
}

// NewManualClock returns a manual clock at virtual time 0.
func NewManualClock() *ManualClock { return &ManualClock{} }

// Now implements Clock.
func (c *ManualClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// WaitUntil implements Clock. The stop function removes the waiter.
func (c *ManualClock) WaitUntil(vt float64) (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if vt <= c.now {
		ch <- struct{}{}
		return ch, func() {}
	}
	c.waiters = append(c.waiters, manualWaiter{vt: vt, ch: ch})
	return ch, func() { c.stop(ch) }
}

// stop removes the waiter on ch, if it has not fired. The search runs from
// the newest waiter, which is the one an engine loop turn stops.
func (c *ManualClock) stop(ch chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.waiters) - 1; i >= 0; i-- {
		if c.waiters[i].ch == ch {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// Advance moves virtual time forward by dt and fires every waiter whose
// deadline has been reached.
func (c *ManualClock) Advance(dt float64) {
	c.mu.Lock()
	c.now += dt
	var fire []chan struct{}
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if w.vt <= c.now {
			fire = append(fire, w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
	c.mu.Unlock()
	for _, ch := range fire {
		ch <- struct{}{}
	}
}
