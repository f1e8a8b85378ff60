package sim

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/randx"
	"repro/internal/robustness"
	"repro/internal/sched"
	"repro/internal/workload"
)

// tasksLeftRecorder is EDFCheapest that records what each dispatch passes
// it.
type tasksLeftRecorder struct {
	EDFCheapest
	now  []float64
	left []int
}

func (r *tasksLeftRecorder) Select(calc *robustness.Calculator, pool []workload.Task, node int, now, energyLeft float64, tasksLeft int) (int, cluster.PState) {
	r.now = append(r.now, now)
	r.left = append(r.left, tasksLeft)
	return r.EDFCheapest.Select(calc, pool, node, now, energyLeft, tasksLeft)
}

// TestCentralDispatchPassesTasksLeft: a pull policy sees the number of
// trial tasks still to arrive, the T_left an Eq. 6 fair-share policy needs.
func TestCentralDispatchPassesTasksLeft(t *testing.T) {
	m := buildModel(t, 91, 60)
	tr, err := workload.GenerateTrial(randx.NewStream(7), m)
	if err != nil {
		t.Fatal(err)
	}
	rec := &tasksLeftRecorder{}
	cfg := Config{Model: m, CentralQueue: rec, EnergyBudget: math.Inf(1)}
	if _, err := Run(cfg, tr, randx.NewStream(7).Child("d")); err != nil {
		t.Fatal(err)
	}
	if len(rec.left) == 0 {
		t.Fatal("policy never consulted")
	}
	for i, now := range rec.now {
		// At an instant shared by several arrivals, only those already
		// processed have left the count.
		later, notBefore := 0, 0
		for _, task := range tr.Tasks {
			if task.Arrival > now {
				later++
			}
			if task.Arrival >= now {
				notBefore++
			}
		}
		if got := rec.left[i]; got < later || got > notBefore {
			t.Fatalf("dispatch %d at t=%v passed tasksLeft %d; %d..%d tasks had not arrived", i, now, got, later, notBefore)
		}
	}
	if rec.left[0] == 0 {
		t.Fatal("first dispatch passed tasksLeft 0")
	}
}

// mappedCore is one TaskMapped callback: when, and onto which core.
type mappedCore struct {
	t    float64
	core cluster.CoreID
}

type dispatchLog struct {
	NopObserver
	mapped   []mappedCore
	repaired []cluster.CoreID
}

func (o *dispatchLog) TaskMapped(t float64, _ workload.Task, a sched.Assignment) {
	o.mapped = append(o.mapped, mappedCore{t, a.Core})
}
func (o *dispatchLog) CoreFailed(float64, cluster.CoreID, fault.Kind, float64) {}
func (o *dispatchLog) CoreRepaired(_ float64, c cluster.CoreID)                { o.repaired = append(o.repaired, c) }
func (o *dispatchLog) TaskKilled(float64, workload.Task, cluster.CoreID)       {}
func (o *dispatchLog) TaskRequeued(float64, workload.Task, int)                {}

// TestCentralDispatchSkipsDeadNode: node 1 dies permanently while one of its
// cores waits out a transient repair. Central dispatch must never hand work
// to the transiently-down core, nor to any core of the dead node — the
// pending repair included, which must not resurrect its core.
func TestCentralDispatchSkipsDeadNode(t *testing.T) {
	m := buildModel(t, 92, 80)
	tr, err := workload.GenerateTrial(randx.NewStream(11), m)
	if err != nil {
		t.Fatal(err)
	}
	span := tr.Tasks[len(tr.Tasks)-1].Arrival
	victim := -1
	for idx, id := range m.Cluster.Cores() {
		if id.Node == 1 {
			victim = idx
			break
		}
	}
	strike, kill, repairAt := 0.2*span, 0.4*span, 0.8*span
	spec := fault.Spec{
		Script: []fault.Scripted{
			{Time: strike, Kind: fault.Transient, Core: victim, Repair: repairAt - strike},
			{Time: kill, Kind: fault.Permanent, Node: 1},
		},
		Recovery: fault.Recovery{Mode: fault.Requeue, MaxRetries: 3, Backoff: 0.01 * m.TAvg()},
	}
	log := &dispatchLog{}
	cfg := Config{Model: m, CentralQueue: EDFCheapest{}, EnergyBudget: math.Inf(1), Faults: spec, Observer: log}
	res, err := Run(cfg, tr, randx.NewStream(11).Child("d"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != 2 {
		t.Fatalf("%d faults, want the 2 scripted", res.Faults)
	}
	victimID := m.Cluster.Cores()[victim]
	var node1Before, afterRepair int
	for _, d := range log.mapped {
		switch {
		case d.core == victimID && d.t >= strike:
			t.Fatalf("t=%v: dispatched to %v, down since t=%v", d.t, d.core, strike)
		case d.core.Node == 1 && d.t >= kill:
			t.Fatalf("t=%v: dispatched to %v of node 1, dead since t=%v", d.t, d.core, kill)
		case d.core.Node == 1:
			node1Before++
		}
		if d.t >= repairAt {
			afterRepair++
		}
	}
	for _, c := range log.repaired {
		if c.Node == 1 {
			t.Fatalf("core %v of the dead node was repaired", c)
		}
	}
	// Guard the guards: node 1 took work before it died, and dispatching
	// continued past the instant the pending repair came due.
	if node1Before == 0 || afterRepair == 0 {
		t.Fatalf("scenario did not bite: %d dispatches to node 1 before the kill, %d after the repair time", node1Before, afterRepair)
	}
}
