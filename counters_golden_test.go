package repro

// The golden pin of the published counts. decisions_golden_test.go pins
// the counters of serial sim.Runs; this file pins what concurrent owners
// and the online server publish. Two LL+en+rob runs on two goroutines at
// once must each leave a registry equal to a serial run's, and the
// process-global pmf tallies they move must agree with the ρ evaluations
// their registries report. A ManualClock server engine, fed a fixed
// stream and drained, must publish the same sched_*/robustness_* counters
// every time. A change to how counts are accumulated or published must
// leave every value here untouched.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/pmf"
	"repro/internal/randx"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Pinned values: the lattice convolutions the concurrent pair performs,
// and the digest of the drained server's counters.
const (
	goldenPairGridConvolutions = 3553
	goldenServerCounters       = "90e4938babd9fc8ef8bd3c16f67269a4ed0fe3bc5ce205edf35bba4e0dd50503"
)

// counterDigest hashes the registry's sched_* and robustness_* counters in
// the snapshot's sorted order, and returns the value of each by identity.
func counterDigest(snap *metrics.Snapshot) (string, map[string]float64) {
	h := sha256.New()
	vals := map[string]float64{}
	var b []byte
	for _, m := range snap.Metrics {
		if m.Kind != metrics.KindCounter ||
			!(strings.HasPrefix(m.Name, "sched_") || strings.HasPrefix(m.Name, "robustness_")) {
			continue
		}
		id := m.ID()
		b = binary.LittleEndian.AppendUint64(b[:0], uint64(len(id)))
		b = append(b, id...)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Value))
		h.Write(b)
		vals[id] = m.Value
	}
	return hex.EncodeToString(h.Sum(nil)), vals
}

// assertReach fails unless the counters show kernel ρ evaluations,
// infeasibility skips and waiting-tail cache misses: the paths a change to
// the per-ρ tallies touches.
func assertReach(t *testing.T, what string, vals map[string]float64) {
	t.Helper()
	for _, id := range []string{
		"robustness_grid_rho_total",
		"robustness_completion_infeasible_skips_total",
		"robustness_freetime_cache_misses_total",
	} {
		if vals[id] <= 0 {
			t.Errorf("%s: %s = %v, the pin does not reach it", what, id, vals[id])
		}
	}
}

func TestGoldenConcurrentCounters(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden values are pinned on amd64; %s fuses multiply-add and rounds differently", runtime.GOARCH)
	}
	spec := benchSpec()
	env, err := experiment.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	mapper := &sched.Mapper{Heuristic: sched.LightestLoad{}, Filters: sched.EnergyAndRobustness.Filters()}
	// The trials with arrivals compressed fourfold and slack halved: queues
	// grow long enough that deadlines fall below the completion support
	// and the infeasibility skip answers.
	trials := make([]*workload.Trial, 2)
	for i := range trials {
		tasks := append([]workload.Task(nil), env.Trial(i).Tasks...)
		for k := range tasks {
			slack := tasks[k].Deadline - tasks[k].Arrival
			tasks[k].Arrival /= 4
			tasks[k].Deadline = tasks[k].Arrival + slack/2
		}
		trials[i] = &workload.Trial{Tasks: tasks}
	}
	run := func(i int) (*metrics.Snapshot, error) {
		reg := metrics.NewRegistry()
		cfg := sim.Config{Model: env.Model, Mapper: mapper, EnergyBudget: env.Budget, Metrics: reg}
		if _, err := sim.Run(cfg, trials[i], randx.NewStream(spec.Seed).ChildN("decisions", i)); err != nil {
			return nil, err
		}
		return reg.Snapshot(), nil
	}

	var serial [2]*metrics.Snapshot
	for i := range serial {
		if serial[i], err = run(i); err != nil {
			t.Fatalf("serial trial %d: %v", i, err)
		}
	}

	var pair [2]*metrics.Snapshot
	var errs [2]error
	var wg sync.WaitGroup
	ops0 := pmf.ReadOpCounts()
	for i := range pair {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pair[i], errs[i] = run(i)
		}()
	}
	wg.Wait()
	ops := pmf.ReadOpCounts().Sub(ops0)

	rho := 0.0
	for i := range pair {
		if errs[i] != nil {
			t.Fatalf("concurrent trial %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(pair[i], serial[i]) {
			t.Errorf("trial %d: the concurrent run's registry differs from the serial run's", i)
		}
		_, vals := counterDigest(pair[i])
		assertReach(t, "sim", vals)
		rho += vals["robustness_grid_rho_total"]
	}
	if float64(ops.GridRhoEvals) != rho {
		t.Errorf("pmf GridRhoEvals moved by %d, the registries report %v kernel ρ evaluations", ops.GridRhoEvals, rho)
	}
	if ops.GridConvolutions != goldenPairGridConvolutions {
		t.Errorf("the concurrent pair ran %d lattice convolutions, pinned %d", ops.GridConvolutions, goldenPairGridConvolutions)
	}
}

func TestGoldenServerCounters(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden values are pinned on amd64; %s fuses multiply-add and rounds differently", runtime.GOARCH)
	}
	env, err := experiment.Build(benchSpec())
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	clk := server.NewManualClock()
	eng, err := server.New(server.Config{
		Model:   env.Model,
		Mapper:  &sched.Mapper{Heuristic: sched.LightestLoad{}, Filters: sched.EnergyAndRobustness.Filters()},
		Clock:   clk,
		Seed:    42,
		Budget:  env.Budget,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// A fixed stream: bursts of every task type, with virtual time moving
	// a fraction of t_avg between them so heads start, run and finish.
	// Every third request asks for a slack just above its type's fastest
	// mean execution: admitted, but infeasible on any busy core.
	m := env.Model
	step := m.TAvg() / 8
	for i := 0; i < 240; i++ {
		req := server.TaskRequest{Type: (7 * i) % m.Params.TaskTypes}
		if i%3 == 0 {
			best := math.Inf(1)
			for n := 0; n < m.Cluster.N(); n++ {
				best = math.Min(best, m.ExecPMF(req.Type, n, cluster.P0).Mean())
			}
			slack := 1.2 * best
			req.Slack = &slack
		}
		if _, err := eng.Submit(req); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if i%4 == 3 {
			clk.Advance(step)
			eng.Sync()
		}
	}
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	digest, vals := counterDigest(reg.Snapshot())
	assertReach(t, "server", vals)
	if digest != goldenServerCounters {
		t.Errorf("server counters digest %s, pinned %s", digest, goldenServerCounters)
	}
}
