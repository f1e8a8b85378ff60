package repro

// The golden pin of the mapper's decision stream. golden_test.go pins the
// figures' aggregates and extensions_golden_test.go the extension paths;
// this file pins every single mapping decision of the paper's sixteen
// heuristic × filter variants, plus MECT+en under transient faults and
// under brownout. Each row runs benchSpec()'s trials through sim.Run and
// folds every decision (task, core, P-state, EEC and the prediction, floats
// as their bits), every discard, and the scheduler's and free-time
// engine's counters into one SHA-256. A candidate-enumeration change that
// claims to be exact must leave every digest untouched.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/randx"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// decRow is one pinned configuration: decisions and discards summed over
// the trials, candidates the energy filter rejected, and the digest.
type decRow struct {
	name       string
	mapped     int
	discarded  int
	enRejected int
	digest     string
}

// goldenDecisions is the pinned table, in decisionCases order.
var goldenDecisions = []decRow{
	{"SQ", 721, 0, 0, "c313ba4e651763244b89a8eea5fe561809a1c9a6cd058ac3f5fe101006504ceb"},
	{"SQ+en", 890, 0, 81485, "c1d74fa5bfec124f34e250bca76d36376d0ae1343937bdd2bce333529cc68268"},
	{"SQ+rob", 721, 0, 0, "a291634c9a02a8e079a88e091752ad1208447ed6188a378198702f26edc81dbe"},
	{"SQ+en+rob", 890, 0, 81428, "092d9e5233a50a87f7828a4d280150ba5803dd8362a7ae66aaed96d7973bdc65"},
	{"MECT", 735, 0, 0, "3b1ee5999210e8e4d5b5c009517066e2b215850a8e13366ca35bfc69ab878bc5"},
	{"MECT+en", 886, 0, 81228, "f108b3a4774868d3c83e244ebbbf632c2acc9c0929f0be0933c0d46c7dbd5592"},
	{"MECT+rob", 735, 0, 0, "05faf7de5d525231bf8884afe0f925439f2c78f2d066f124701eb280c00c6460"},
	{"MECT+en+rob", 886, 0, 81228, "783dcea6a9dbcc50c69eb7ac25528a122de76227bb0e95c86858a8a18b33e956"},
	{"LL", 638, 0, 0, "9257f304413ed0ce3a205fb0b5e3e717b2b38e0276c6883a88a41264895e7930"},
	{"LL+en", 893, 0, 83754, "a0b73a43e8d59fc3e11e29d9ce65410314b5f6521242b36614ec70b3e35bc8ea"},
	{"LL+rob", 638, 0, 0, "9a3f1c6aea7eacc45f8ab232191d923df460c2b7719846607c94f1898fe81cc6"},
	{"LL+en+rob", 893, 0, 83754, "19948b858aed8fe7fb740b50bcbb4b5e39c33a07007b8d5d3751a723762c3fd0"},
	{"Random", 900, 0, 0, "03f9f5ae443d3f4ff04716148cf87108989595225c97631c7a45a9c872e0eb17"},
	{"Random+en", 900, 0, 46192, "3a2fdd3e83330aaefd384083f5a92513cdb1d762088834f9d0e1038a7041db9a"},
	{"Random+rob", 900, 0, 0, "6f94166ee47f3d2b41b718c7ee8c588ae5731e9d0dc96b1a37e05fa59d95ac3c"},
	{"Random+en+rob", 900, 0, 59693, "0c45970b5f333f6f4350d04fb1dc0ec5259dfdebdf84a77304278c596467e419"},
	{"MECT+en/mtbf", 903, 0, 84178, "f1e0d1a146f57346ea706aa56abd6575559cfcb38f22786719a35ed237227135"},
	{"MECT+en/brownout", 634, 96, 154858, "951b6bda3370be2d0439ed2e3e74c9cd4fdb56c445ec371c9e3195716faac429"},
}

// decCase configures one row on top of a run at the environment's budget.
type decCase struct {
	name string
	set  func(env *experiment.Env, c *sim.Config)
}

func decisionCases() []decCase {
	var cases []decCase
	for _, h := range sched.AllHeuristics() {
		for _, v := range sched.AllFilterVariants() {
			m := &sched.Mapper{Heuristic: h, Filters: v.Filters()}
			cases = append(cases, decCase{m.Name(), func(_ *experiment.Env, c *sim.Config) { c.Mapper = m }})
		}
	}
	mectEn := func(set func(*experiment.Env, *sim.Config)) func(*experiment.Env, *sim.Config) {
		return func(env *experiment.Env, c *sim.Config) {
			c.Mapper = &sched.Mapper{Heuristic: sched.MinExpectedCompletionTime{}, Filters: sched.EnergyOnly.Filters()}
			set(env, c)
		}
	}
	return append(cases,
		decCase{"MECT+en/mtbf", mectEn(func(env *experiment.Env, c *sim.Config) { c.Faults = mtbfFaults(env.Model) })},
		decCase{"MECT+en/brownout", mectEn(brownout)},
	)
}

// running is the head a core is executing, as the observer saw it start.
type running struct {
	task  workload.Task
	ps    cluster.PState
	start float64
}

// decisionRecorder hashes every decision and discard in order, and tracks
// the running heads so it can tell whether a decision saw a started head
// whose free-time truncation cut has moved past its first impulse.
type decisionRecorder struct {
	h       hash.Hash
	scratch []byte
	model   *workload.Model

	heads   map[cluster.CoreID]running
	cutMove int // decisions made while some running head had cut > 0
}

var (
	_ sim.Observer         = (*decisionRecorder)(nil)
	_ sim.FaultObserver    = (*decisionRecorder)(nil)
	_ sim.DecisionObserver = (*decisionRecorder)(nil)
)

func newDecisionRecorder(m *workload.Model) *decisionRecorder {
	return &decisionRecorder{h: sha256.New(), model: m, heads: map[cluster.CoreID]running{}}
}

func (r *decisionRecorder) u(v uint64)  { r.scratch = binary.LittleEndian.AppendUint64(r.scratch, v) }
func (r *decisionRecorder) i(v int)     { r.u(uint64(int64(v))) }
func (r *decisionRecorder) f(v float64) { r.u(math.Float64bits(v)) }

func (r *decisionRecorder) flush() {
	r.h.Write(r.scratch)
	r.scratch = r.scratch[:0]
}

// sawCut notes whether any running head's truncation cut at t is past its
// first impulse — the state in which the free-time mean depends on t.
func (r *decisionRecorder) sawCut(t float64) {
	for core, h := range r.heads {
		lat := r.model.ExecLattice(h.task.Type, core.Node, h.ps).Lat.Shift(h.start)
		if lat.SearchValue(t) > 0 {
			r.cutMove++
			return
		}
	}
}

func (r *decisionRecorder) TaskDecision(t float64, task workload.Task, a sched.Assignment, pred sched.Prediction, eec float64) {
	r.sawCut(t)
	r.scratch = append(r.scratch, 'd')
	r.f(t)
	r.i(task.ID)
	r.i(a.CoreIdx)
	r.i(int(a.PState))
	r.f(eec)
	r.f(pred.Rho)
	r.f(pred.Mean)
	r.f(pred.P50)
	r.f(pred.P99)
	r.flush()
}

func (r *decisionRecorder) TaskDiscarded(t float64, task workload.Task) {
	r.sawCut(t)
	r.scratch = append(r.scratch, 'x')
	r.f(t)
	r.i(task.ID)
	r.flush()
}

func (r *decisionRecorder) TaskStarted(t float64, task workload.Task, a sched.Assignment) {
	r.heads[a.Core] = running{task: task, ps: a.PState, start: t}
}

func (r *decisionRecorder) TaskFinished(_ float64, _ workload.Task, a sched.Assignment, _ bool) {
	delete(r.heads, a.Core)
}

func (r *decisionRecorder) TaskKilled(_ float64, task workload.Task, c cluster.CoreID) {
	if h, ok := r.heads[c]; ok && h.task.ID == task.ID {
		delete(r.heads, c)
	}
}

func (r *decisionRecorder) TaskMapped(float64, workload.Task, sched.Assignment)     {}
func (r *decisionRecorder) PStateChanged(float64, cluster.CoreID, cluster.PState)   {}
func (r *decisionRecorder) EnergyExhausted(float64)                                 {}
func (r *decisionRecorder) CoreFailed(float64, cluster.CoreID, fault.Kind, float64) {}
func (r *decisionRecorder) CoreRepaired(float64, cluster.CoreID)                    {}
func (r *decisionRecorder) TaskRequeued(float64, workload.Task, int)                {}

// counters folds the scheduler's and the free-time engine's counters into
// the digest, in the snapshot's sorted order, and returns the energy
// filter's rejections.
func (r *decisionRecorder) counters(reg *metrics.Registry) int {
	r.scratch = append(r.scratch, '=')
	en := 0
	for _, m := range reg.Snapshot().Metrics {
		if m.Kind != metrics.KindCounter ||
			!(strings.HasPrefix(m.Name, "sched_") || strings.HasPrefix(m.Name, "robustness_")) {
			continue
		}
		id := m.ID()
		r.i(len(id))
		r.scratch = append(r.scratch, id...)
		r.f(m.Value)
		if m.Name == "sched_filter_rejections_total" && len(m.Labels) == 1 && m.Labels[0].Value == "en" {
			en += int(m.Value)
		}
	}
	r.flush()
	// Task IDs and cores restart with the next trial.
	clear(r.heads)
	return en
}

func TestGoldenDecisions(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64; %s fuses multiply-add and rounds differently", runtime.GOARCH)
	}
	spec := benchSpec()
	env, err := experiment.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	var got []decRow
	cutMoves := 0
	for _, c := range decisionCases() {
		rec := newDecisionRecorder(env.Model)
		row := decRow{name: c.name}
		for i := 0; i < spec.Trials; i++ {
			reg := metrics.NewRegistry()
			cfg := sim.Config{Model: env.Model, EnergyBudget: env.Budget, Observer: rec, Metrics: reg}
			c.set(env, &cfg)
			// The same decision stream the experiment harness hands trial i.
			res, err := sim.Run(cfg, env.Trial(i), randx.NewStream(spec.Seed).ChildN("decisions", i))
			if err != nil {
				t.Fatalf("%s trial %d: %v", c.name, i, err)
			}
			row.enRejected += rec.counters(reg)
			row.mapped += res.Mapped
			row.discarded += res.Discarded
		}
		row.digest = hex.EncodeToString(rec.h.Sum(nil))
		got = append(got, row)
		cutMoves += rec.cutMove
	}

	bad := len(got) != len(goldenDecisions)
	for i := 0; !bad && i < len(got); i++ {
		bad = got[i] != goldenDecisions[i]
	}
	if bad {
		var b strings.Builder
		for _, r := range got {
			fmt.Fprintf(&b, "\t{%q, %d, %d, %d, %q},\n", r.name, r.mapped, r.discarded, r.enRejected, r.digest)
		}
		t.Errorf("decision rows moved; measured (a pin is never edited — find what changed):\n%s", b.String())
	}

	// The pins protect only what they reach.
	discards, rejections := 0, 0
	for _, r := range got {
		discards += r.discarded
		rejections += r.enRejected
	}
	for what, n := range map[string]int{
		"a discard": discards,
		"a decision beside a started head with cut > 0": cutMoves,
		"an energy-filter rejection":                    rejections,
	} {
		if n <= 0 {
			t.Errorf("no row reaches %s", what)
		}
	}
}
