package repro

// The golden pin of the serving engine's stochastic faults. The other
// server pins drive scripted faults only, so nothing else fixes which
// victim a transient or permanent strike hits, when a stranded task is
// retried, or the fault-stream states the WAL records. One ManualClock
// engine runs under both stochastic processes with requeue recovery, the
// circuit breakers and a WAL, and one digest covers its flight-trace rows
// and events and the WAL bytes. A change to victim selection, retry
// backoff or their logging must leave the digest untouched.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/trace"
)

// goldenServerFaults is the digest of the faulty engine's flight trace
// (rows and events) followed by its wal.1 bytes.
const goldenServerFaults = "0a159fd747931b8ee060a03c670eac020e52acd4e8cc86dfb8bf6ae3c014a836"

func TestGoldenServerFaults(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden values are pinned on amd64; %s fuses multiply-add and rounds differently", runtime.GOARCH)
	}
	env, err := experiment.Build(benchSpec())
	if err != nil {
		t.Fatal(err)
	}
	m := env.Model
	tAvg := m.TAvg()
	dir := t.TempDir()
	fl := trace.NewFlight(m, trace.Header{Kind: trace.KindServe, Seed: 42}, nil)
	clk := server.NewManualClock()
	eng, err := server.New(server.Config{
		Model:    m,
		Mapper:   &sched.Mapper{Heuristic: sched.LightestLoad{}, Filters: sched.EnergyAndRobustness.Filters()},
		Clock:    clk,
		Seed:     42,
		Budget:   env.Budget,
		Observer: fl,
		Faults: fault.Spec{
			Transient:  fault.Process{Enabled: true, MTBF: tAvg / 2},
			Permanent:  fault.Process{Enabled: true, MTBF: 4 * tAvg},
			RepairTime: tAvg / 2,
			Recovery:   fault.Recovery{Mode: fault.Requeue, MaxRetries: 2, Backoff: tAvg / 10, DeadlineAware: true},
		},
		Breaker: server.BreakerConfig{Threshold: 2, Cooldown: tAvg / 2},
		WALPath: filepath.Join(dir, "wal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	for i := 0; i < 240; i++ {
		if _, err := eng.Submit(server.TaskRequest{Type: (7 * i) % m.Params.TaskTypes}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if i%4 == 3 {
			clk.Advance(tAvg / 8)
			eng.Sync()
		}
	}
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	tr := fl.Finish(trace.Summary{}, nil)
	var transient, permanent, requeues int
	for _, ev := range tr.Events {
		switch {
		case ev.Kind == trace.EvCoreFailed && ev.N == int(fault.Transient):
			transient++
		case ev.Kind == trace.EvCoreFailed && ev.N == int(fault.Permanent):
			permanent++
		case ev.Kind == trace.EvTaskRequeued:
			requeues++
		}
	}
	opens := eng.Stats().BreakerOpens
	t.Logf("transient core strikes %d, permanent core losses %d, requeues %d, breaker opens %d",
		transient, permanent, requeues, opens)
	if transient == 0 || permanent == 0 || requeues == 0 || opens == 0 {
		t.Errorf("the pin does not reach every fault path: transient %d, permanent %d, requeues %d, breaker opens %d",
			transient, permanent, requeues, opens)
	}

	var buf bytes.Buffer
	if err := (&trace.Trace{Header: tr.Header, Rows: tr.Rows, Events: tr.Events}).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, "wal.1"))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(buf.Bytes())
	h.Write(wal)
	if digest := hex.EncodeToString(h.Sum(nil)); digest != goldenServerFaults {
		t.Errorf("faulty server digest %s, pinned %s", digest, goldenServerFaults)
	}
}
