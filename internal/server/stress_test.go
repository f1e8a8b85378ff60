package server

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestBreakerHalfOpenToDeadUnderRequeueBurst drives a node's breaker
// through half-open and then kills the node permanently while the
// fault-driven requeue burst from the earlier strikes is still in flight:
// the retries must re-map away from the dead node (or fail visibly), the
// breaker must land on dead, and nothing may be orphaned. Run under -race:
// the requeue handlers, breaker publishes, and WAL appends all interleave
// on this path.
func TestBreakerHalfOpenToDeadUnderRequeueBurst(t *testing.T) {
	m := buildModel(t, 40)
	tAvg := m.TAvg()
	dir := t.TempDir()
	eng, clk := newTestEngine(t, m, func(c *Config) {
		c.Faults = fault.Spec{
			RepairTime: tAvg,
			Script: []fault.Scripted{
				// Two strikes on node 0's cores open its breaker...
				{Time: tAvg / 100, Kind: fault.Transient, Core: 0},
				{Time: tAvg / 95, Kind: fault.Transient, Core: 1},
				// ...the short cooldown flips it half-open, and the node dies
				// while the strikes' requeue backoffs are still pending.
				{Time: tAvg / 30, Kind: fault.Permanent, Node: 0},
			},
			Recovery: fault.Recovery{Mode: fault.Requeue, MaxRetries: 3, Backoff: tAvg / 20},
		}
		c.Breaker = BreakerConfig{Threshold: 2, Cooldown: tAvg / 90}
		c.WALPath = filepath.Join(dir, "wal")
		c.CheckpointPath = filepath.Join(dir, "ckpt")
	})

	// Load every core so both strikes and the node death strand real work.
	n := eng.NumCores() + 12
	for i := 0; i < n; i++ {
		if d := submitType(t, eng, i%m.Params.TaskTypes); d.Status != StatusMapped {
			t.Fatalf("task %d not mapped: %v/%q", i, d.Status, d.Reason)
		}
	}
	clk.Advance(1000 * tAvg)
	eng.Sync()

	st := eng.Stats()
	if st.Faults != 3 {
		t.Fatalf("faults = %d, want 3", st.Faults)
	}
	if st.Retries == 0 {
		t.Fatal("requeue burst never fired")
	}
	if len(st.Breakers) == 0 || st.Breakers[0] != "dead" {
		t.Fatalf("breakers = %v, want node 0 dead", st.Breakers)
	}
	if st.InFlight != 0 || st.Mapped != st.OnTime+st.Late+st.Failed {
		t.Fatalf("requeue-vs-death race lost work: %+v", st)
	}
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rep := eng.FinalReport(); rep.Orphaned != 0 || !rep.Balanced {
		t.Fatalf("final report: orphaned %d balanced %v", rep.Orphaned, rep.Balanced)
	}
}

// TestDrainWithAdmissionQueueFull floods a tiny admission queue from many
// goroutines and starts the drain mid-flood: every submission must get an
// answer (decision, queue-full, or draining — never a hang), the WAL's
// reject path and group commit race the drain, and the terminal accounting
// must balance. Run under -race.
func TestDrainWithAdmissionQueueFull(t *testing.T) {
	m := buildModel(t, 41)
	dir := t.TempDir()
	eng, _ := newTestEngine(t, m, func(c *Config) {
		c.QueueCap = 2
		c.WALPath = filepath.Join(dir, "wal")
		c.CheckpointPath = filepath.Join(dir, "ckpt")
	})

	const flood = 64
	var (
		wg        sync.WaitGroup
		decided   atomic.Int64
		rejected  atomic.Int64
		timedOut  atomic.Int64
		unexpects atomic.Int64
	)
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := eng.Submit(TaskRequest{Type: i % m.Params.TaskTypes})
			switch {
			case err == nil && d.Status == StatusTimedOut:
				timedOut.Add(1)
			case err == nil:
				decided.Add(1)
			default:
				var rej *ErrRejected
				if errors.As(err, &rej) {
					rejected.Add(1)
				} else {
					unexpects.Add(1)
				}
			}
		}(i)
	}
	// Let the flood hit the queue, then drain into it.
	time.Sleep(5 * time.Millisecond)
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	if unexpects.Load() != 0 {
		t.Fatalf("%d submissions got non-rejection errors", unexpects.Load())
	}
	if got := decided.Load() + rejected.Load() + timedOut.Load(); got != flood {
		t.Fatalf("answered %d of %d submissions", got, flood)
	}
	if rejected.Load() == 0 {
		t.Fatal("flood at queue cap 2 produced no backpressure — test not exercising the race")
	}
	rep := eng.FinalReport()
	if rep.Orphaned != 0 || !rep.Balanced {
		t.Fatalf("drain under flood broke accounting: orphaned %d balanced %v %+v", rep.Orphaned, rep.Balanced, rep.Stats)
	}
}
