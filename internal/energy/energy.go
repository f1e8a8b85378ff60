// Package energy implements the paper's energy model (§III-C): per-core
// P-state transition lists ν(i,j,k), per-core energy η(i,j,k) (Eq. 1), and
// cluster energy ζ with power-supply-efficiency division (Eq. 2). It also
// provides a live Meter that integrates the cluster's piecewise-constant
// power draw as the simulation advances and pinpoints the exact instant the
// energy constraint ζ_max is exhausted.
package energy

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/metrics"
)

// Transition is one entry of a core's P-state transition list ν(i,j,k): at
// Time the core entered P-state To.
type Transition struct {
	Time float64
	To   cluster.PState
}

// CoreEnergy evaluates Eq. 1 for one core: the sum over transitions of the
// power of the entered P-state times the time until the next transition
// (or end for the last one). The transition list must be time-ordered and
// non-empty, and end must be at or after the last transition.
func CoreEnergy(node *cluster.Node, transitions []Transition, end float64) (float64, error) {
	if len(transitions) == 0 {
		return 0, errors.New("energy: empty transition list")
	}
	total := 0.0
	for n := 0; n < len(transitions); n++ {
		next := end
		if n+1 < len(transitions) {
			next = transitions[n+1].Time
		}
		dt := next - transitions[n].Time
		if dt < 0 {
			return 0, fmt.Errorf("energy: transitions out of order at %d (dt=%v)", n, dt)
		}
		if !transitions[n].To.Valid() {
			return 0, fmt.Errorf("energy: invalid P-state %d at transition %d", transitions[n].To, n)
		}
		total += node.Power[transitions[n].To] * dt
	}
	return total, nil
}

// ClusterEnergy evaluates Eq. 2: the sum over all cores of η(i,j,k)/ε(i).
// lists must hold one transition list per core, in the order of
// Cluster.Cores().
func ClusterEnergy(c *cluster.Cluster, lists [][]Transition, end float64) (float64, error) {
	cores := c.Cores()
	if len(lists) != len(cores) {
		return 0, fmt.Errorf("energy: %d transition lists for %d cores", len(lists), len(cores))
	}
	total := 0.0
	for idx, id := range cores {
		node := c.Node(id)
		e, err := CoreEnergy(node, lists[idx], end)
		if err != nil {
			return 0, fmt.Errorf("core %v: %w", id, err)
		}
		total += e / node.Efficiency
	}
	return total, nil
}

// ExpectedEnergy returns EEC (§V-A): the expected energy an assignment
// consumes at the wall, i.e. expected execution time × μ(i,π) / ε(i).
func ExpectedEnergy(node *cluster.Node, p cluster.PState, expectedExecTime float64) float64 {
	return expectedExecTime * node.Power[p] / node.Efficiency
}

// Meter integrates the cluster's power draw in simulation time. Every core
// is always in exactly one P-state (cores cannot be turned off, §III-A);
// the total draw is therefore piecewise constant between P-state changes,
// and the meter advances exactly.
type Meter struct {
	c      *cluster.Cluster
	eff    []float64
	state  []cluster.PState
	rate   float64 // current total draw at the wall, watts
	now    float64
	used   float64
	budget float64

	// override[i] >= 0 replaces the P-state table power for core i —
	// the hook for the §VIII extensions (stochastic per-execution power,
	// parked cores). Negative means "use the table".
	override []float64
	// draw[i] is core i's current contribution to rate: its override or
	// table power, divided by its supply efficiency. It is refreshed
	// wherever core i's state or override changes, so recompute only sums.
	draw []float64

	record bool
	lists  [][]Transition

	// Optional instrumentation (nil-safe): meter advances, real P-state
	// transitions, and a live consumed-energy gauge for exposition.
	advances    *metrics.Counter
	transitions *metrics.Counter
	consumed    *metrics.Gauge
}

// NewMeter creates a meter with every core initialized to the given idle
// P-state at time 0 (this is each core's first mandated transition,
// §III-C). budget is ζ_max; use math.Inf(1) for an unconstrained run.
// If record is true the meter keeps full transition lists so the exact
// Eq. 1/Eq. 2 computation can be replayed for verification.
func NewMeter(c *cluster.Cluster, initial cluster.PState, budget float64, record bool) (*Meter, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if !initial.Valid() {
		return nil, fmt.Errorf("energy: invalid initial P-state %d", initial)
	}
	if budget <= 0 {
		return nil, fmt.Errorf("energy: budget %v must be > 0", budget)
	}
	cores := c.Cores()
	m := &Meter{
		c:        c,
		eff:      make([]float64, len(cores)),
		state:    make([]cluster.PState, len(cores)),
		budget:   budget,
		record:   record,
		override: make([]float64, len(cores)),
		draw:     make([]float64, len(cores)),
	}
	for i := range m.override {
		m.override[i] = -1
	}
	if record {
		m.lists = make([][]Transition, len(cores))
	}
	for idx, id := range cores {
		node := c.Node(id)
		m.eff[idx] = node.Efficiency
		m.state[idx] = initial
		if record {
			m.lists[idx] = []Transition{{Time: 0, To: initial}}
		}
	}
	m.refreshAll()
	return m, nil
}

// recompute rebuilds the wall rate as a fresh sum of the cached per-core
// draws in index order. Keeping rate a pure function of (state, override)
// — instead of adding and subtracting one core's change — means a meter
// restored from a checkpoint integrates future advances bit-identically to
// the uninterrupted meter: there is no accumulated ulp drift to reproduce.
// Callers refresh the draw of whichever core changed before calling it.
func (m *Meter) recompute() {
	rate := 0.0
	for _, d := range m.draw {
		rate += d
	}
	m.rate = rate
}

// refreshAll re-derives every core's cached draw and the rate from
// (state, override).
func (m *Meter) refreshAll() {
	for idx := range m.draw {
		m.draw[idx] = m.coreDraw(idx)
	}
	m.recompute()
}

// refresh re-derives one core's cached draw and the rate.
func (m *Meter) refresh(coreIdx int) {
	m.draw[coreIdx] = m.coreDraw(coreIdx)
	m.recompute()
}

// MeterState is a serializable snapshot of the meter's accounting: the
// integration point (now, used) plus each core's P-state and power
// override. Restore rebuilds an identical meter — same rate bits, same
// future integration — on a fresh instance over the same cluster.
type MeterState struct {
	Now      float64          `json:"now"`
	Used     float64          `json:"used"`
	States   []cluster.PState `json:"states"`
	Override []float64        `json:"override"`
	// Budget is the meter's budget at capture time. Zero means "keep the
	// meter's constructed budget" — states written before budgets became
	// adjustable omit the field, and those meters were never adjusted.
	Budget float64 `json:"budget,omitempty"`
}

// State captures the meter for a checkpoint.
func (m *Meter) State() MeterState {
	st := MeterState{
		Now:      m.now,
		Used:     m.used,
		States:   append([]cluster.PState(nil), m.state...),
		Override: append([]float64(nil), m.override...),
	}
	if !math.IsInf(m.budget, 1) {
		// +Inf (unconstrained) is not JSON-encodable; leave the field zero
		// and let Restore keep the constructed budget.
		st.Budget = m.budget
	}
	return st
}

// Restore rewinds the meter to a captured state. The meter must have been
// constructed over the same cluster (same core count); recording stops, as
// transition lists cannot be reconstructed across a restore.
func (m *Meter) Restore(st MeterState) error {
	if len(st.States) != len(m.state) || len(st.Override) != len(m.override) {
		return fmt.Errorf("energy: restore state for %d/%d cores into meter with %d",
			len(st.States), len(st.Override), len(m.state))
	}
	budget := m.budget
	if st.Budget != 0 {
		// A captured budget overrides the constructed one: sub-budgets are
		// adjustable at runtime (SetBudget), so the checkpointed value — not
		// the boot-time carve — is the one Used must validate against.
		if st.Budget < 0 || math.IsNaN(st.Budget) || math.IsInf(st.Budget, 0) {
			return fmt.Errorf("energy: restore with invalid budget %v", st.Budget)
		}
		budget = st.Budget
	}
	if st.Now < 0 || math.IsNaN(st.Now) || st.Used < 0 || math.IsNaN(st.Used) || st.Used > budget {
		return fmt.Errorf("energy: restore with invalid now=%v used=%v (budget %v)", st.Now, st.Used, budget)
	}
	for i, p := range st.States {
		if !p.Valid() {
			return fmt.Errorf("energy: restore with invalid P-state %d for core %d", p, i)
		}
	}
	m.now = st.Now
	m.used = st.Used
	m.budget = budget
	copy(m.state, st.States)
	copy(m.override, st.Override)
	m.record = false
	m.lists = nil
	m.refreshAll()
	m.consumed.Set(m.used)
	return nil
}

// Instrument attaches counters for Advance calls and real P-state
// transitions, plus a gauge tracking consumed energy live. Any handle may
// be nil; instrumentation changes accounting not at all.
func (m *Meter) Instrument(advances, transitions *metrics.Counter, consumed *metrics.Gauge) {
	m.advances = advances
	m.transitions = transitions
	m.consumed = consumed
}

// Now returns the meter's current time.
func (m *Meter) Now() float64 { return m.now }

// Consumed returns the energy consumed at the wall so far.
func (m *Meter) Consumed() float64 { return m.used }

// Remaining returns the unconsumed budget (never negative).
func (m *Meter) Remaining() float64 { return math.Max(0, m.budget-m.used) }

// Budget returns ζ_max.
func (m *Meter) Budget() float64 { return m.budget }

// SetBudget replaces the meter's budget, effective immediately. The new
// budget must be positive, finite, and at least the energy already
// consumed — a budget controller may reclaim unspent headroom or grant
// more, but it can never un-consume energy. Exhaustion semantics are
// unchanged: a later Advance stops at the instant used reaches the new
// budget.
func (m *Meter) SetBudget(b float64) error {
	if !(b > 0) || math.IsInf(b, 0) {
		return fmt.Errorf("energy: budget %v must be positive and finite", b)
	}
	if b < m.used {
		return fmt.Errorf("energy: budget %v below consumed %v", b, m.used)
	}
	m.budget = b
	return nil
}

// Rate returns the current total cluster draw at the wall in watts.
func (m *Meter) Rate() float64 { return m.rate }

// PStateOf returns the current P-state of the core at the given flat index.
func (m *Meter) PStateOf(coreIdx int) cluster.PState { return m.state[coreIdx] }

// Overridden reports whether the core's draw is currently governed by a
// SetPower override rather than its P-state table power.
func (m *Meter) Overridden(coreIdx int) bool { return m.override[coreIdx] >= 0 }

// Advance moves the meter to time t, accumulating energy. If the budget is
// exhausted strictly before t, the meter stops at the exact exhaustion
// instant and returns (exhaustionTime, true); otherwise it advances fully
// and returns (t, false). Advancing backwards is an error expressed by
// panic, since it indicates a broken event loop rather than bad user input.
func (m *Meter) Advance(t float64) (float64, bool) {
	if t < m.now {
		panic(fmt.Sprintf("energy: Advance to %v before current time %v", t, m.now))
	}
	dt := t - m.now
	dE := m.rate * dt
	m.advances.Inc()
	if m.used+dE >= m.budget && m.rate > 0 {
		// The budget runs out somewhere in (now, t]. The division can drift
		// a few ulps outside that interval, which previously let the
		// comparison fall through and push used past budget; clamp the
		// exhaustion instant into [now, t] and always stop there.
		tEx := m.now + (m.budget-m.used)/m.rate
		tEx = math.Max(m.now, math.Min(tEx, t))
		m.now = tEx
		m.used = m.budget
		m.consumed.Set(m.used)
		return tEx, true
	}
	m.now = t
	m.used = math.Min(m.used+dE, m.budget)
	m.consumed.Set(m.used)
	return t, false
}

// coreDraw returns the core's current contribution to the wall rate.
func (m *Meter) coreDraw(coreIdx int) float64 {
	p := m.override[coreIdx]
	if p < 0 {
		p = m.c.Node(m.c.Cores()[coreIdx]).Power[m.state[coreIdx]]
	}
	return p / m.eff[coreIdx]
}

// SetPState changes the P-state of the core at the given flat index,
// effective at the meter's current time, and clears any power override.
// Callers must Advance first; the simulator only transitions idle cores,
// per §III-A, but the meter itself does not enforce idleness — it is pure
// accounting.
func (m *Meter) SetPState(coreIdx int, p cluster.PState) {
	if !p.Valid() {
		panic(fmt.Sprintf("energy: invalid P-state %d", p))
	}
	if m.state[coreIdx] == p && m.override[coreIdx] < 0 {
		return
	}
	m.state[coreIdx] = p
	m.override[coreIdx] = -1
	m.refresh(coreIdx)
	m.transitions.Inc()
	if m.record {
		m.lists[coreIdx] = append(m.lists[coreIdx], Transition{Time: m.now, To: p})
	}
}

// SetPower overrides the core's power draw with an explicit wattage,
// effective at the meter's current time, until the next SetPState or
// ClearPower. This is the accounting hook for the §VIII extensions:
// per-execution stochastic power and parked (power-gated) cores. Runs
// using overrides cannot be Verify'd against the Eq. 1 transition replay,
// which knows only P-state table powers.
func (m *Meter) SetPower(coreIdx int, watts float64) {
	if watts < 0 || math.IsNaN(watts) || math.IsInf(watts, 0) {
		panic(fmt.Sprintf("energy: invalid power override %v", watts))
	}
	m.override[coreIdx] = watts
	m.refresh(coreIdx)
	m.record = false // transition replay can no longer reproduce the run
}

// ClearPower removes a power override, returning the core to its P-state
// table power.
func (m *Meter) ClearPower(coreIdx int) {
	if m.override[coreIdx] < 0 {
		return
	}
	m.override[coreIdx] = -1
	m.refresh(coreIdx)
}

// Transitions returns the recorded per-core transition lists (nil unless
// the meter was created with record=true). The final mandated transition at
// workload end (§III-C) is the caller's responsibility; Verify adds it
// implicitly by evaluating Eq. 1 up to the end time.
func (m *Meter) Transitions() [][]Transition { return m.lists }

// Verify recomputes the consumed energy from the recorded transition lists
// via Eqs. 1–2 and returns the absolute difference from the meter's
// integral. It errors if the meter was not recording.
func (m *Meter) Verify() (float64, error) {
	if !m.record {
		return 0, errors.New("energy: meter was not recording transitions")
	}
	exact, err := ClusterEnergy(m.c, m.lists, m.now)
	if err != nil {
		return 0, err
	}
	return math.Abs(exact - m.used), nil
}
