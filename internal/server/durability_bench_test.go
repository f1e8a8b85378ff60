package server

import (
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkWALAppend measures the write-ahead log's hot path. "stage" is
// encoding and buffering one admission record under the append mutex;
// "commit" is the full durable unit — one record staged plus the group
// commit's flush+fsync. The commit figure is the latency floor a
// single-decision group pays before its client ack is released; real bursts
// amortize the fsync across every record the loop iteration staged.
func BenchmarkWALAppend(b *testing.B) {
	rec := walRecord{
		K: wkAdmit, T: 41.5, MT: 41.5, EN: 9.3e5,
		ID: 7, Ty: 3, Arr: 41.5, DL: 55.2, U: 0.4375, Pri: 1,
		QS: "0123456789abcdef0123456789abcdef",
	}
	open := func(b *testing.B) *wal {
		w, err := createWAL(filepath.Join(b.TempDir(), "wal"), walHeader{
			Format: walFormat, ModelHash: "bench", Seed: 1, Policy: "LL", Budget: -1, Incarnation: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = w.close() })
		return w
	}
	b.Run("stage", func(b *testing.B) {
		w := open(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := rec
			r.ID = i
			w.append(&r)
		}
		b.StopTimer()
		if _, err := w.commit(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("commit", func(b *testing.B) {
		w := open(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := rec
			r.ID = i
			w.append(&r)
			if _, err := w.commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRecover measures one full crash recovery over the durability
// tests' scenario: checkpoint load, WAL suffix replay, dangler resolution,
// event-heap rebuild, and the rotation's post-recovery checkpoint + new WAL
// incarnation. Each iteration recovers a fresh copy of the same crashed
// state, so the work per op is constant.
func BenchmarkRecover(b *testing.B) {
	m := buildModel(b, 30)
	seedDir := b.TempDir()
	clk := NewManualClock()
	eng, err := New(durableCfg(b, m, seedDir, clk))
	if err != nil {
		b.Fatal(err)
	}
	driveScenario(b, eng, clk, m)
	eng.Close() // abrupt stop: WAL and checkpoint stay behind
	walSeed, err := os.ReadFile(filepath.Join(seedDir, "wal.1"))
	if err != nil {
		b.Fatal(err)
	}
	// Recover from the mid-stream checkpoint, not the final one: the final
	// cut has an empty suffix, which would make this a checkpoint-load bench.
	ckptSeed, err := os.ReadFile(filepath.Join(seedDir, "ckpt.mid"))
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	var replayed int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.1"), walSeed, 0o644); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "ckpt"), ckptSeed, 0o644); err != nil {
			b.Fatal(err)
		}
		cfg := durableCfg(b, m, dir, NewManualClock())
		b.StartTimer()
		e, err := Prepare(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := e.RecoverFrom()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		replayed += int64(rep.ReplayedRecords)
		if e.wal != nil {
			_ = e.wal.close()
		}
		b.StartTimer()
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(replayed)/float64(b.N), "records/op")
	}
}
