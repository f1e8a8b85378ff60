package repro

// The simulator and the serving engine step the same cluster model. This
// test sends one task stream through both and requires the same observer
// callbacks: for every task its mapping, start, finish, kills and
// requeues; for every core its P-state changes, failures and repairs.
//
// What cannot match today, and how the stream stays clear of it:
//   - EnergyLeft: the simulator passes the heuristic-side estimate ζ(t_l),
//     debited by EEC at commit; the server passes the meter's remainder.
//     The budget is unconstrained and LL without filters reads neither.
//   - TasksLeft: the simulator passes the tasks left in the trial, the
//     server its Horizon. Only the energy filter reads it; none is set.
//   - The brownout ParkIdle step: the simulator power-gates a core that
//     goes idle under a parking stage (applyIdlePower); serving has no
//     such step. No brownout schedule is set.
//   - A fault at the same instant as an arrival: the simulator maps the
//     arrival first (kind order), the server runs the fault first (runDue
//     before the decision). Every scripted fault falls strictly between
//     two arrivals.
//   - A draining server consumes fault events without effect, where the
//     simulator still applies them while work remains. The clock is
//     advanced past the last event before the drain.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/randx"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// parityRecorder logs every callback the comparison covers, keyed by the
// task or core it is about. Times and other floats are logged as bits.
type parityRecorder struct {
	sim.NopObserver
	byTask map[int][]string
	byCore map[cluster.CoreID][]string
	// Reach counters: the stream must exercise every fault path.
	kills, requeues, retried, repairs, transient, permanent int
}

func newParityRecorder() *parityRecorder {
	return &parityRecorder{byTask: map[int][]string{}, byCore: map[cluster.CoreID][]string{}}
}

func (r *parityRecorder) task(task workload.Task, format string, args ...any) {
	r.byTask[task.ID] = append(r.byTask[task.ID], fmt.Sprintf("arr %x dl %x u %x: ",
		math.Float64bits(task.Arrival), math.Float64bits(task.Deadline), math.Float64bits(task.U))+fmt.Sprintf(format, args...))
}

func (r *parityRecorder) core(c cluster.CoreID, format string, args ...any) {
	r.byCore[c] = append(r.byCore[c], fmt.Sprintf(format, args...))
}

func (r *parityRecorder) TaskMapped(t float64, task workload.Task, a sched.Assignment) {
	r.task(task, "mapped %x %v/%d %v", math.Float64bits(t), a.Core, a.CoreIdx, a.PState)
}

func (r *parityRecorder) TaskStarted(t float64, task workload.Task, a sched.Assignment) {
	r.task(task, "started %x %v/%d %v", math.Float64bits(t), a.Core, a.CoreIdx, a.PState)
}

func (r *parityRecorder) TaskFinished(t float64, task workload.Task, a sched.Assignment, onTime bool) {
	r.task(task, "finished %x %v/%d %v on-time %v", math.Float64bits(t), a.Core, a.CoreIdx, a.PState, onTime)
}

func (r *parityRecorder) PStateChanged(t float64, c cluster.CoreID, ps cluster.PState) {
	r.core(c, "pstate %x %v", math.Float64bits(t), ps)
}

func (r *parityRecorder) CoreFailed(t float64, c cluster.CoreID, kind fault.Kind, repair float64) {
	if kind == fault.Permanent {
		r.permanent++
	} else {
		r.transient++
	}
	r.core(c, "failed %x %v repair %x", math.Float64bits(t), kind, math.Float64bits(repair))
}

func (r *parityRecorder) CoreRepaired(t float64, c cluster.CoreID) {
	r.repairs++
	r.core(c, "repaired %x", math.Float64bits(t))
}

func (r *parityRecorder) TaskKilled(t float64, task workload.Task, c cluster.CoreID) {
	r.kills++
	r.task(task, "killed %x on %v", math.Float64bits(t), c)
}

func (r *parityRecorder) TaskRequeued(t float64, task workload.Task, attempt int) {
	r.requeues++
	if attempt > 1 {
		r.retried++
	}
	r.task(task, "requeued %x attempt %d", math.Float64bits(t), attempt)
}

var _ sim.FaultObserver = (*parityRecorder)(nil)

func TestSimServerParity(t *testing.T) {
	env, err := experiment.Build(benchSpec())
	if err != nil {
		t.Fatal(err)
	}
	m := env.Model
	tAvg := m.TAvg()

	// The stream: the first 60 tasks of trial 0. Arrivals are rebuilt as
	// the running sum of the trial's gaps — the additions the server's
	// ManualClock performs — so both engines see bit-equal arrival times.
	const n = 60
	src := env.Trial(0).Tasks[:n]
	gaps := make([]float64, n)
	tasks := make([]workload.Task, n)
	now, prev := 0.0, 0.0
	for i, task := range src {
		gaps[i] = task.Arrival - prev
		prev = task.Arrival
		now += gaps[i]
		tasks[i] = task
		tasks[i].ID = i
		tasks[i].Arrival = now
		tasks[i].Deadline = now + (task.Deadline - task.Arrival)
	}
	between := func(i int) float64 { return (tasks[i].Arrival + tasks[i+1].Arrival) / 2 }
	for _, i := range []int{14, 29, 37, 44} {
		if tasks[i].Arrival == tasks[i+1].Arrival {
			t.Fatalf("arrivals %d and %d coincide; a fault between them would tie with an arrival", i, i+1)
		}
	}
	cores := m.Cluster.Cores()
	coreOn := func(node int) int {
		for idx, id := range cores {
			if id.Node == node {
				return idx
			}
		}
		t.Fatalf("node %d has no core", node)
		return -1
	}
	coreAt := func(id cluster.CoreID) int {
		for idx, c := range cores {
			if c == id {
				return idx
			}
		}
		t.Fatalf("no core %v", id)
		return -1
	}
	// One strike per node, so the server's breakers (threshold 2) stay
	// closed: the simulator has none. The strike on n3.p1.c2 hits the
	// retry of task 1, which the first strike killed, so one task is
	// killed twice and its second requeue is attempt 2.
	spec := fault.Spec{
		Script: []fault.Scripted{
			{Time: between(14), Kind: fault.Transient, Core: coreOn(0), Repair: tAvg},
			{Time: between(29), Kind: fault.Permanent, Node: 1},
			{Time: between(37), Kind: fault.Transient, Core: coreAt(cluster.CoreID{Node: 3, Proc: 1, Core: 2}), Repair: tAvg},
			{Time: between(44), Kind: fault.Transient, Core: coreOn(2), Repair: tAvg / 2},
		},
		Recovery: fault.Recovery{Mode: fault.Requeue, MaxRetries: 2, Backoff: tAvg / 10},
	}
	mapper := func() *sched.Mapper {
		return &sched.Mapper{Heuristic: sched.LightestLoad{}, Filters: sched.NoFilter.Filters()}
	}

	simRec := newParityRecorder()
	if _, err := sim.Run(sim.Config{
		Model:        m,
		Mapper:       mapper(),
		EnergyBudget: math.Inf(1),
		Faults:       spec,
		Observer:     simRec,
	}, &workload.Trial{Tasks: tasks}, randx.NewStream(42)); err != nil {
		t.Fatal(err)
	}

	srvRec := newParityRecorder()
	clk := server.NewManualClock()
	eng, err := server.New(server.Config{
		Model:            m,
		Mapper:           mapper(),
		Clock:            clk,
		Seed:             42,
		NoShedInfeasible: true,
		Faults:           spec,
		Observer:         srvRec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i, task := range tasks {
		clk.Advance(gaps[i])
		u, dl := task.U, task.Deadline
		d, err := eng.Submit(server.TaskRequest{Type: task.Type, U: &u, Deadline: &dl})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if d.Status != server.StatusMapped || d.TaskID != i {
			t.Fatalf("submit %d: %+v, want task %d mapped", i, d, i)
		}
	}
	// Past every completion, repair and retry, so the drain finds no work.
	clk.Advance(1000 * tAvg)
	eng.Sync()
	if s := eng.Stats(); s.InFlight != 0 {
		t.Fatalf("%d tasks still in flight after the clock passed every event", s.InFlight)
	}
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	t.Logf("simulator: %d transient and %d permanent core failures, %d kills, %d requeues (%d past the first), %d repairs",
		simRec.transient, simRec.permanent, simRec.kills, simRec.requeues, simRec.retried, simRec.repairs)
	if simRec.transient == 0 || simRec.permanent == 0 || simRec.kills == 0 || simRec.requeues == 0 ||
		simRec.retried == 0 || simRec.repairs == 0 {
		t.Errorf("the stream does not reach every fault path")
	}
	for id := 0; id < n; id++ {
		if !reflect.DeepEqual(simRec.byTask[id], srvRec.byTask[id]) {
			t.Errorf("task %d:\nsim    %q\nserver %q", id, simRec.byTask[id], srvRec.byTask[id])
		}
	}
	if len(srvRec.byTask) != n {
		t.Errorf("server reported %d tasks, want %d", len(srvRec.byTask), n)
	}
	for _, c := range cores {
		if !reflect.DeepEqual(simRec.byCore[c], srvRec.byCore[c]) {
			t.Errorf("core %v:\nsim    %q\nserver %q", c, simRec.byCore[c], srvRec.byCore[c])
		}
	}
}
