package repro

// The golden pin of the simulator's extension paths. golden_test.go pins
// the paper's figures; this file pins what they never exercise: parking,
// power uncertainty, fault injection with requeue recovery, scripted
// transient and permanent strikes, brownout, overdue cancellation and the
// central-queue mode. Each row runs benchSpec()'s trials through sim.Run
// with Trace on and an observer that implements every extension interface,
// and folds the Result, every TaskTrace and every callback (floats as
// their bits) into one SHA-256. The readable counts beside each digest say
// what moved when it does.

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
	"repro/internal/energy"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/randx"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// extRow is one pinned configuration: counts summed over the trials, and
// the digest of everything the runs reported.
type extRow struct {
	name    string
	onTime  int
	mapped  int
	faults  int
	retries int
	digest  string
}

// goldenExtensions is the pinned table, in extensionCases order.
var goldenExtensions = []extRow{
	{"LL+en+rob/plain", 691, 893, 0, 0, "2d5bcf55e58aa5618c25442508e96fcc4f169b193374350b1acc25d21dd20c35"},
	{"LL+en+rob/park", 897, 900, 0, 0, "30793e09f33906631a94e96f5b234302813a603bb1f897d0f478bcd707701da8"},
	{"LL+en+rob/powercv", 700, 900, 0, 0, "4665a7b701a1c20814081663a3c54ba72e8e33d6a08c501b67e9890d1e124e36"},
	{"LL+en+rob/mtbf", 694, 919, 39, 24, "8211514bea84839c9c4e2ea8312679655626ff79a3f71c252f92de39db9c5df2"},
	{"LL+en+rob/scripted", 700, 918, 15, 30, "fc4e3609a2cc01f70223d7916cb40e192dedb8b4bbaf0c9d383157977855dca4"},
	{"LL+en+rob/brownout", 564, 661, 0, 0, "80e9d18abf51c8deef685de2d3ee7e50bf5a1b376f4a9f0565f94fa6c2005c3f"},
	{"Random+en+rob/mtbf", 756, 947, 48, 56, "625ce55a2ba8175a47bf83b3ed105eebcb8daec6a59b7f551fadfb261d4a8cbb"},
	{"Random/cancel", 535, 900, 0, 0, "1209c3a9fef7f87b49d67cb05a4a280f152dc713c3cb0a4e6581c72dc0d60c24"},
	{"central/plain", 770, 900, 0, 0, "72e9a307fd0cc61ac617ee1b75537dedce3784f6984bf6e6411e89ddcfe0733c"},
	{"central/park", 773, 900, 0, 0, "80c039d93e50d3857245d8def7dd875a61e9589d02d38b37158a385fafd8875a"},
	{"central/mtbf", 729, 945, 52, 45, "02b299fab514944ebb8a4a3fa33a6f0e24dbaa63c24a39d5045551b579f8189e"},
	{"central/scripted", 743, 921, 15, 21, "4e0eb80521085557da596cae56176391ded2ad6f45a29d83ad91174e3a264d09"},
	{"central/brownout", 575, 828, 0, 0, "9cd6006ef25a8378f234e1c9c0daeb3b83e79b7fb493cc07ba4f55b7c5659d12"},
}

// extCase configures one row on top of a traced run at the environment's
// budget.
type extCase struct {
	name string
	set  func(env *experiment.Env, c *sim.Config)
}

func enRob(h sched.Heuristic) *sched.Mapper {
	return &sched.Mapper{Heuristic: h, Filters: sched.EnergyAndRobustness.Filters()}
}

// mtbfFaults is a transient-fault process striking the cluster every
// t_avg/2 on average, with deadline-aware requeue recovery.
func mtbfFaults(m *workload.Model) fault.Spec {
	tavg := m.TAvg()
	return fault.Spec{
		Transient:  fault.Process{Enabled: true, Dist: fault.Exponential, MTBF: 0.5 * tavg},
		RepairTime: 0.25 * tavg,
		Recovery:   fault.Recovery{Mode: fault.Requeue, MaxRetries: 2, Backoff: 0.05 * tavg, DeadlineAware: true},
	}
}

// scriptedFaults strikes cores 0 and 3 transiently, then takes down a core
// of node 1 with a long repair and kills node 1 permanently while that
// repair is still pending.
func scriptedFaults(m *workload.Model) fault.Spec {
	tavg := m.TAvg()
	node1 := 0
	for idx, id := range m.Cluster.Cores() {
		if id.Node == 1 {
			node1 = idx
			break
		}
	}
	return fault.Spec{
		RepairTime: 0.3 * tavg,
		Script: []fault.Scripted{
			{Time: 0.5 * tavg, Kind: fault.Transient, Core: 0},
			{Time: 1.0 * tavg, Kind: fault.Transient, Core: 3, Repair: 0.1 * tavg},
			{Time: 1.5 * tavg, Kind: fault.Transient, Core: node1, Repair: 5 * tavg},
			{Time: 2.0 * tavg, Kind: fault.Permanent, Node: 1},
			{Time: 2.5 * tavg, Kind: fault.Transient, Core: 0},
		},
		Recovery: fault.Recovery{Mode: fault.Requeue, MaxRetries: 3, Backoff: 0.02 * tavg},
	}
}

func park(m *workload.Model) sim.ParkPolicy {
	return sim.ParkPolicy{Enabled: true, Timeout: m.TAvg() / 4, WakeLatency: 5, PowerFrac: 0.05}
}

func brownout(env *experiment.Env, c *sim.Config) {
	c.EnergyBudget = 0.6 * env.Budget
	c.Brownout = energy.DefaultBrownoutStages()
}

func extensionCases() []extCase {
	ll := func(set func(*experiment.Env, *sim.Config)) func(*experiment.Env, *sim.Config) {
		return func(env *experiment.Env, c *sim.Config) {
			c.Mapper = enRob(sched.LightestLoad{})
			set(env, c)
		}
	}
	central := func(set func(*experiment.Env, *sim.Config)) func(*experiment.Env, *sim.Config) {
		return func(env *experiment.Env, c *sim.Config) {
			c.CentralQueue = sim.EDFCheapest{}
			set(env, c)
		}
	}
	return []extCase{
		{"LL+en+rob/plain", ll(func(*experiment.Env, *sim.Config) {})},
		{"LL+en+rob/park", ll(func(env *experiment.Env, c *sim.Config) { c.Park = park(env.Model) })},
		{"LL+en+rob/powercv", ll(func(_ *experiment.Env, c *sim.Config) { c.PowerCV = 0.3 })},
		{"LL+en+rob/mtbf", ll(func(env *experiment.Env, c *sim.Config) { c.Faults = mtbfFaults(env.Model) })},
		{"LL+en+rob/scripted", ll(func(env *experiment.Env, c *sim.Config) { c.Faults = scriptedFaults(env.Model) })},
		{"LL+en+rob/brownout", ll(brownout)},
		{"Random+en+rob/mtbf", func(env *experiment.Env, c *sim.Config) {
			c.Mapper = enRob(sched.Random{})
			c.Faults = mtbfFaults(env.Model)
		}},
		{"Random/cancel", func(_ *experiment.Env, c *sim.Config) {
			c.Mapper = &sched.Mapper{Heuristic: sched.Random{}}
			c.CancelOverdueWaiting = true
		}},
		{"central/plain", central(func(*experiment.Env, *sim.Config) {})},
		{"central/park", central(func(env *experiment.Env, c *sim.Config) { c.Park = park(env.Model) })},
		{"central/mtbf", central(func(env *experiment.Env, c *sim.Config) { c.Faults = mtbfFaults(env.Model) })},
		{"central/scripted", central(func(env *experiment.Env, c *sim.Config) { c.Faults = scriptedFaults(env.Model) })},
		{"central/brownout", central(brownout)},
	}
}

// pinRecorder hashes every callback in arrival order and counts the paths
// the pins are meant to reach.
type pinRecorder struct {
	h       hash.Hash
	scratch []byte

	prevTag    byte
	prevT      float64
	decided    map[int]bool
	repairMaps int // decisions made in the same step as a core repair
	remaps     int // decisions for a task that was decided before
	permanent  int // cores struck by a permanent fault
	cancelled  int
	maxStage   int
}

var (
	_ sim.Observer         = (*pinRecorder)(nil)
	_ sim.EnergyObserver   = (*pinRecorder)(nil)
	_ sim.FaultObserver    = (*pinRecorder)(nil)
	_ sim.BrownoutObserver = (*pinRecorder)(nil)
	_ sim.DecisionObserver = (*pinRecorder)(nil)
)

func newPinRecorder() *pinRecorder {
	return &pinRecorder{h: sha256.New(), decided: map[int]bool{}}
}

func (r *pinRecorder) flush() {
	r.h.Write(r.scratch)
	r.scratch = r.scratch[:0]
}

func (r *pinRecorder) u(v uint64)  { r.scratch = binary.LittleEndian.AppendUint64(r.scratch, v) }
func (r *pinRecorder) i(v int)     { r.u(uint64(int64(v))) }
func (r *pinRecorder) f(v float64) { r.u(math.Float64bits(v)) }
func (r *pinRecorder) b(v bool) {
	if v {
		r.i(1)
	} else {
		r.i(0)
	}
}
func (r *pinRecorder) s(v string)            { r.i(len(v)); r.scratch = append(r.scratch, v...) }
func (r *pinRecorder) core(c cluster.CoreID) { r.i(c.Node); r.i(c.Proc); r.i(c.Core) }

func (r *pinRecorder) task(t workload.Task) {
	r.i(t.ID)
	r.i(t.Type)
	r.f(t.Arrival)
	r.f(t.Deadline)
	r.f(t.U)
	r.f(t.Priority)
	r.s(t.Tenant)
	r.i(int(t.Class))
}

func (r *pinRecorder) assignment(a sched.Assignment) {
	r.core(a.Core)
	r.i(a.CoreIdx)
	r.i(int(a.PState))
}

// event starts one callback record: its tag and time.
func (r *pinRecorder) event(tag byte, t float64) {
	r.scratch = append(r.scratch, tag)
	r.f(t)
}

func (r *pinRecorder) done(tag byte, t float64) {
	r.flush()
	r.prevTag, r.prevT = tag, t
}

func (r *pinRecorder) TaskMapped(t float64, task workload.Task, a sched.Assignment) {
	r.event('M', t)
	r.task(task)
	r.assignment(a)
	r.done('M', t)
}

func (r *pinRecorder) TaskDiscarded(t float64, task workload.Task) {
	r.event('D', t)
	r.task(task)
	r.done('D', t)
}

func (r *pinRecorder) TaskStarted(t float64, task workload.Task, a sched.Assignment) {
	r.event('S', t)
	r.task(task)
	r.assignment(a)
	r.done('S', t)
}

func (r *pinRecorder) TaskFinished(t float64, task workload.Task, a sched.Assignment, onTime bool) {
	r.event('F', t)
	r.task(task)
	r.assignment(a)
	r.b(onTime)
	r.done('F', t)
}

func (r *pinRecorder) PStateChanged(t float64, c cluster.CoreID, ps cluster.PState) {
	r.event('P', t)
	r.core(c)
	r.i(int(ps))
	r.done('P', t)
}

func (r *pinRecorder) EnergyExhausted(t float64) {
	r.event('X', t)
	r.done('X', t)
}

func (r *pinRecorder) EnergySample(t, consumed, rate float64) {
	r.event('E', t)
	r.f(consumed)
	r.f(rate)
	r.flush() // not a step of its own: leaves prevTag alone
}

func (r *pinRecorder) CoreFailed(t float64, c cluster.CoreID, kind fault.Kind, repair float64) {
	r.event('K', t)
	r.core(c)
	r.i(int(kind))
	r.f(repair)
	if kind == fault.Permanent {
		r.permanent++
	}
	r.done('K', t)
}

func (r *pinRecorder) CoreRepaired(t float64, c cluster.CoreID) {
	r.event('R', t)
	r.core(c)
	r.done('R', t)
}

func (r *pinRecorder) TaskKilled(t float64, task workload.Task, c cluster.CoreID) {
	r.event('k', t)
	r.task(task)
	r.core(c)
	r.done('k', t)
}

func (r *pinRecorder) TaskRequeued(t float64, task workload.Task, attempt int) {
	r.event('Q', t)
	r.task(task)
	r.i(attempt)
	r.done('Q', t)
}

func (r *pinRecorder) BrownoutStageChanged(t float64, stage int, frac float64) {
	r.event('B', t)
	r.i(stage)
	r.f(frac)
	r.done('B', t)
}

func (r *pinRecorder) TaskDecision(t float64, task workload.Task, a sched.Assignment, pred sched.Prediction, eec float64) {
	if r.prevTag == 'R' && r.prevT == t {
		r.repairMaps++
	}
	if r.decided[task.ID] {
		r.remaps++
	}
	r.decided[task.ID] = true
	r.event('d', t)
	r.task(task)
	r.assignment(a)
	r.f(pred.Rho)
	r.f(pred.Mean)
	r.f(pred.P50)
	r.f(pred.P99)
	r.f(eec)
	r.done('d', t)
}

// result folds every Result field and every TaskTrace into the digest.
func (r *pinRecorder) result(res *sim.Result) {
	r.scratch = append(r.scratch, '=')
	for _, v := range []int{res.Window, res.OnTime, res.Missed, res.Late, res.Discarded, res.Cancelled,
		res.Unfinished, res.Mapped, res.Wakeups, res.Faults, res.TasksKilled, res.Retries,
		res.LostToFailure, res.BrownoutStage} {
		r.i(v)
	}
	for _, v := range []float64{res.EnergyConsumed, res.ExhaustedAt, res.EnergyEstimateLeft, res.Makespan,
		res.AvgQueueDepthTime, res.WeightedOnTime, res.ParkedTime, res.DownTime, res.EnergyVerifyError} {
		r.f(v)
	}
	r.b(res.EnergyExhausted)
	r.i(len(res.Traces))
	for _, tr := range res.Traces {
		r.task(tr.Task)
		r.i(int(tr.Outcome))
		r.assignment(tr.Assignment)
		r.b(tr.Mapped)
		r.f(tr.Start)
		r.f(tr.Finish)
	}
	r.flush()
	// Task IDs restart with the next trial.
	r.prevTag = 0
	clear(r.decided)
	r.cancelled += res.Cancelled
	r.maxStage = max(r.maxStage, res.BrownoutStage)
}

func TestGoldenExtensions(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64; %s fuses multiply-add and rounds differently", runtime.GOARCH)
	}
	spec := benchSpec()
	env, err := experiment.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	var got []extRow
	reach := map[string]*pinRecorder{}
	for _, c := range extensionCases() {
		rec := newPinRecorder()
		row := extRow{name: c.name}
		for i := 0; i < spec.Trials; i++ {
			cfg := sim.Config{Model: env.Model, EnergyBudget: env.Budget, Trace: true, Observer: rec}
			c.set(env, &cfg)
			// The same decision stream the experiment harness hands trial i.
			res, err := sim.Run(cfg, env.Trial(i), randx.NewStream(spec.Seed).ChildN("decisions", i))
			if err != nil {
				t.Fatalf("%s trial %d: %v", c.name, i, err)
			}
			rec.result(res)
			row.onTime += res.OnTime
			row.mapped += res.Mapped
			row.faults += res.Faults
			row.retries += res.Retries
		}
		row.digest = hex.EncodeToString(rec.h.Sum(nil))
		got = append(got, row)
		reach[c.name] = rec
	}

	bad := len(got) != len(goldenExtensions)
	for i := 0; !bad && i < len(got); i++ {
		bad = got[i] != goldenExtensions[i]
	}
	if bad {
		var b strings.Builder
		for _, r := range got {
			fmt.Fprintf(&b, "\t{%q, %d, %d, %d, %d, %q},\n", r.name, r.onTime, r.mapped, r.faults, r.retries, r.digest)
		}
		t.Errorf("extension rows moved; measured (a pin is never edited — find what changed):\n%s", b.String())
	}

	// The pins protect only what they reach.
	reached := func(what string, n int) {
		if n <= 0 {
			t.Errorf("no row reaches %s", what)
		}
	}
	reached("a repair-triggered central dispatch", reach["central/mtbf"].repairMaps+reach["central/scripted"].repairMaps)
	for _, name := range []string{"LL+en+rob/mtbf", "LL+en+rob/scripted", "Random+en+rob/mtbf", "central/mtbf", "central/scripted"} {
		reached(name+" re-mapping a retried task", reach[name].remaps)
	}
	reached("an overdue cancellation", reach["Random/cancel"].cancelled)
	for _, name := range []string{"LL+en+rob/brownout", "central/brownout"} {
		reached(name+" brownout stage >= 1", reach[name].maxStage)
	}
	for _, name := range []string{"LL+en+rob/scripted", "central/scripted"} {
		reached(name+" a permanent strike", reach[name].permanent)
	}
}
