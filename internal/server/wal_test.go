package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// TestWALOneFsyncPerAckedBatch: a loop turn that releases no reply (here
// the completions each Advance fires) writes its records without an
// fsync; the next acknowledged submit syncs them with its own. 200
// sequential submits, each after a timer-fired turn, so one fsync per
// submit plus the header's, the drain's two commits and the close's.
func TestWALOneFsyncPerAckedBatch(t *testing.T) {
	const submits = 200
	const extraSyncs = 4 // header, drain phase 1, drain finish, close
	m := buildModel(t, 35)
	eng, clk := newTestEngine(t, m, func(c *Config) {
		c.WALPath = filepath.Join(t.TempDir(), "wal")
		c.Metrics = metrics.NewRegistry()
	})
	for i := 0; i < submits; i++ {
		if i > 0 {
			// Every task in flight completes; wait until the loop has
			// logged the completions in a turn of its own.
			before := eng.met.walRecords.Value()
			clk.Advance(100 * m.TAvg())
			for deadline := time.Now().Add(10 * time.Second); eng.met.walRecords.Value() == before; {
				if time.Now().After(deadline) {
					t.Fatalf("submit %d: the timer turn logged nothing", i)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
		if d := submitType(t, eng, i%m.Params.TaskTypes); d.Status != StatusMapped {
			t.Fatalf("submit %d: %v/%q", i, d.Status, d.Reason)
		}
	}
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	syncs := eng.wal.syncs
	t.Logf("%d fsyncs for %d acknowledged submits", syncs, submits)
	if syncs > submits+extraSyncs {
		t.Fatalf("%d fsyncs for %d acknowledged submits, want at most %d", syncs, submits, submits+extraSyncs)
	}
	// The counter counts the engine's fsyncs: all but the header's and
	// the close's (which found nothing left to sync).
	if got := uint64(eng.met.walCommits.Value()); got != syncs-1 {
		t.Fatalf("server_wal_commits_total %d, want %d (fsyncs after the header)", got, syncs-1)
	}
}

// crashedScenario runs driveScenario on a fresh durable engine in a new
// directory and stops it abruptly, leaving the WAL and both checkpoints.
func crashedScenario(t *testing.T, seed uint64) (m *workload.Model, dir string, header []byte, records [][]byte) {
	t.Helper()
	m = buildModel(t, seed)
	dir = t.TempDir()
	clk := NewManualClock()
	eng, err := New(durableCfg(t, m, dir, clk))
	if err != nil {
		t.Fatal(err)
	}
	driveScenario(t, eng, clk, m)
	eng.Close()
	header, records = walLines(t, filepath.Join(dir, "wal.1"))
	return m, dir, header, records
}

// copyFile copies src to dst.
func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverCorruptMidSuffix: a mangled record after the checkpoint cut,
// with intact records after it, is a damaged log, not a torn tail —
// recovery fails and names the line.
func TestRecoverCorruptMidSuffix(t *testing.T) {
	m, src, header, records := crashedScenario(t, 36)
	ck, err := loadCheckpoint(filepath.Join(src, "ckpt.mid"))
	if err != nil {
		t.Fatal(err)
	}
	bad := int(ck.WALRecords) + 2
	if bad+2 > len(records) {
		t.Fatalf("suffix too short: cut %d, %d records", ck.WALRecords, len(records))
	}
	dir := t.TempDir()
	mangled := append([][]byte{}, records...)
	mangled[bad] = []byte("{\"k\":\"map\",\"t\":\n")
	writeTruncatedWAL(t, header, mangled, len(mangled), filepath.Join(dir, "wal.1"))
	copyFile(t, filepath.Join(src, "ckpt.mid"), filepath.Join(dir, "ckpt"))

	eng, err := Prepare(durableCfg(t, m, dir, NewManualClock()))
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.RecoverFrom()
	if err == nil {
		t.Fatal("recovery accepted a WAL corrupted mid-suffix")
	}
	// Header is line 1, record i is line i+2.
	if want := fmt.Sprintf("line %d", bad+2); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %s", err, want)
	}
}

// TestRecoverCutPastDurableRecords: a checkpoint whose cut lies beyond the
// records the WAL kept (staged records the crash lost) replays nothing and
// restores the checkpoint — the same state as recovering with every
// record present.
func TestRecoverCutPastDurableRecords(t *testing.T) {
	m, src, header, records := crashedScenario(t, 37)
	ck, err := loadCheckpoint(filepath.Join(src, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if int(ck.WALRecords) != len(records) || len(records) < 4 {
		t.Fatalf("final checkpoint cut %d, WAL has %d records", ck.WALRecords, len(records))
	}
	full, short := t.TempDir(), t.TempDir()
	writeTruncatedWAL(t, header, records, len(records), filepath.Join(full, "wal.1"))
	writeTruncatedWAL(t, header, records, len(records)-3, filepath.Join(short, "wal.1"))
	for _, dir := range []string{full, short} {
		copyFile(t, filepath.Join(src, "ckpt"), filepath.Join(dir, "ckpt"))
	}

	eng, rep := recoverEngine(t, m, short)
	if rep.ReplayedRecords != 0 || !rep.FromCheckpoint || rep.CheckpointRecords != ck.WALRecords {
		t.Fatalf("cut past the WAL's records: %+v, want 0 replayed from the checkpoint", rep)
	}
	if got, want := eng.Stats(), ck.Counters; got.Mapped != want.Mapped || got.OnTime != want.OnTime || got.Shed != want.Shed {
		t.Fatalf("recovered stats %+v do not restore checkpoint counters %+v", got, want)
	}
	eng.Close()
	if a, b := recoverAndDrain(t, m, full), recoverAndDrain(t, m, short); !reflect.DeepEqual(a, b) {
		t.Fatalf("short WAL recovered to %+v, full WAL to %+v", b, a)
	}
}
