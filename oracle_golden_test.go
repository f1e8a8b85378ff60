package repro

// The golden pin of the exact-ρ oracle (sim.Config.ExactRho). golden_test.go
// pins the oracle's figure aggregates only; this file pins what it decides
// and counts. LL+en+rob and Random+en+rob read ρ on every candidate, and
// MECT+en+rob reads the expected free time behind ECT, so between them
// every free-time quantity the scheduler asks the oracle for is reached.
// Each row runs benchSpec()'s trials through sim.Run with a flight
// recorder and a metrics registry, and one SHA-256 covers every flight
// row's decision (node, core, P-state, the predicted ρ and mean as bits)
// and every sched_*/robustness_* counter. A change to how the scheduler
// reaches the oracle must leave every digest untouched.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/randx"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// goldenOracle pins each mapper's digest under the oracle.
var goldenOracle = map[string]string{
	"LL+en+rob":     "b80822aa20167f7c80e429cf6048b8c59a5daced976935a7e2b91cfa43beab17",
	"Random+en+rob": "15abead9d4836bfbba0967c0911f2a945c0a74e73b54d558c6a6d5d7bfd544e4",
	"MECT+en+rob":   "b0923c8dc1be1873db007c2eea9d086319403d530ddbf3331d40519ad3b816d0",
}

func TestGoldenOracle(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64; %s fuses multiply-add and rounds differently", runtime.GOARCH)
	}
	spec := benchSpec()
	env, err := experiment.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []sched.Heuristic{sched.LightestLoad{}, sched.Random{}, sched.MinExpectedCompletionTime{}} {
		m := &sched.Mapper{Heuristic: h, Filters: sched.EnergyAndRobustness.Filters()}
		d := sha256.New()
		var b []byte
		u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
		mapped, rhoEvals := 0, 0.0
		for i := 0; i < spec.Trials; i++ {
			reg := metrics.NewRegistry()
			fl := trace.NewFlight(env.Model, trace.Header{Kind: trace.KindSim, Seed: spec.Seed, Trial: i}, nil)
			tr := env.Trial(i)
			fl.SetTasks(tr.Tasks)
			cfg := sim.Config{Model: env.Model, Mapper: m, EnergyBudget: env.Budget, Observer: fl, Metrics: reg, ExactRho: true}
			res, err := sim.Run(cfg, tr, randx.NewStream(spec.Seed).ChildN("decisions", i))
			if err != nil {
				t.Fatalf("%s trial %d: %v", m.Name(), i, err)
			}
			mapped += res.Mapped
			for _, r := range fl.Finish(trace.Summary{}, nil).Rows {
				b = append(b[:0], 'r')
				for _, v := range []int{r.ID, r.Node, r.CoreIdx, r.PState} {
					u(uint64(int64(v)))
				}
				u(math.Float64bits(r.PredRho))
				u(math.Float64bits(r.PredMean))
				d.Write(b)
			}
			for _, c := range reg.Snapshot().Metrics {
				if c.Kind != metrics.KindCounter ||
					!(strings.HasPrefix(c.Name, "sched_") || strings.HasPrefix(c.Name, "robustness_")) {
					continue
				}
				id := c.ID()
				b = append(b[:0], 'c')
				u(uint64(len(id)))
				b = append(b, id...)
				u(math.Float64bits(c.Value))
				d.Write(b)
				if c.Name == "sched_rho_evaluations_total" {
					rhoEvals += c.Value
				}
			}
		}
		if mapped == 0 || rhoEvals == 0 {
			t.Errorf("%s: %d mapped, %v ρ evaluations; the pin reaches nothing", m.Name(), mapped, rhoEvals)
		}
		if got := hex.EncodeToString(d.Sum(nil)); got != goldenOracle[m.Name()] {
			t.Errorf("%s: oracle digest %s, pinned %q (a pin is never edited — find what changed)", m.Name(), got, goldenOracle[m.Name()])
		}
	}
}
