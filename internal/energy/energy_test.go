package energy

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/randx"
)

func testCluster(t *testing.T, seed uint64) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Generate(randx.NewStream(seed), cluster.PaperGenParams())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCoreEnergyEq1(t *testing.T) {
	c := testCluster(t, 1)
	node := &c.Nodes[0]
	// P4 for 10 tu, P0 for 5 tu, back to P4 for 3 tu.
	trs := []Transition{
		{Time: 0, To: cluster.P4},
		{Time: 10, To: cluster.P0},
		{Time: 15, To: cluster.P4},
	}
	got, err := CoreEnergy(node, trs, 18)
	if err != nil {
		t.Fatal(err)
	}
	want := node.Power[cluster.P4]*10 + node.Power[cluster.P0]*5 + node.Power[cluster.P4]*3
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("CoreEnergy %v, want %v", got, want)
	}
}

func TestCoreEnergyErrors(t *testing.T) {
	c := testCluster(t, 1)
	node := &c.Nodes[0]
	if _, err := CoreEnergy(node, nil, 10); err == nil {
		t.Fatal("expected error for empty list")
	}
	if _, err := CoreEnergy(node, []Transition{{Time: 5, To: cluster.P0}, {Time: 1, To: cluster.P4}}, 10); err == nil {
		t.Fatal("expected error for out-of-order transitions")
	}
	if _, err := CoreEnergy(node, []Transition{{Time: 0, To: cluster.PState(9)}}, 10); err == nil {
		t.Fatal("expected error for invalid P-state")
	}
}

func TestClusterEnergyEq2(t *testing.T) {
	c := testCluster(t, 2)
	cores := c.Cores()
	lists := make([][]Transition, len(cores))
	for i := range lists {
		lists[i] = []Transition{{Time: 0, To: cluster.P4}}
	}
	got, err := ClusterEnergy(c, lists, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, id := range cores {
		n := c.Node(id)
		want += n.Power[cluster.P4] * 100 / n.Efficiency
	}
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("ClusterEnergy %v, want %v", got, want)
	}
	if _, err := ClusterEnergy(c, lists[:1], 100); err == nil {
		t.Fatal("expected error for wrong list count")
	}
}

func TestExpectedEnergy(t *testing.T) {
	c := testCluster(t, 3)
	n := &c.Nodes[0]
	got := ExpectedEnergy(n, cluster.P1, 200)
	want := 200 * n.Power[cluster.P1] / n.Efficiency
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("EEC %v, want %v", got, want)
	}
}

func TestMeterBasicIntegration(t *testing.T) {
	c := testCluster(t, 4)
	m, err := NewMeter(c, cluster.P4, math.Inf(1), true)
	if err != nil {
		t.Fatal(err)
	}
	wantRate := 0.0
	for _, id := range c.Cores() {
		n := c.Node(id)
		wantRate += n.Power[cluster.P4] / n.Efficiency
	}
	if math.Abs(m.Rate()-wantRate) > 1e-9 {
		t.Fatalf("initial rate %v, want %v", m.Rate(), wantRate)
	}
	if at, ex := m.Advance(50); ex || at != 50 {
		t.Fatalf("unexpected exhaustion: at=%v ex=%v", at, ex)
	}
	if math.Abs(m.Consumed()-wantRate*50) > 1e-6 {
		t.Fatalf("consumed %v, want %v", m.Consumed(), wantRate*50)
	}
}

func TestMeterSetPStateChangesRate(t *testing.T) {
	c := testCluster(t, 5)
	m, _ := NewMeter(c, cluster.P4, math.Inf(1), true)
	r0 := m.Rate()
	m.SetPState(0, cluster.P0)
	if m.Rate() <= r0 {
		t.Fatal("raising a core to P0 should raise the total rate")
	}
	if m.PStateOf(0) != cluster.P0 {
		t.Fatal("P-state not updated")
	}
	// Setting the same state is a no-op and must not duplicate transitions.
	n := len(m.Transitions()[0])
	m.SetPState(0, cluster.P0)
	if len(m.Transitions()[0]) != n {
		t.Fatal("no-op SetPState recorded a transition")
	}
}

func TestMeterVerifyMatchesEq12(t *testing.T) {
	c := testCluster(t, 6)
	m, _ := NewMeter(c, cluster.P4, math.Inf(1), true)
	m.Advance(10)
	m.SetPState(0, cluster.P0)
	m.SetPState(3, cluster.P2)
	m.Advance(35)
	m.SetPState(0, cluster.P4)
	m.Advance(100)
	diff, err := m.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if diff > 1e-6 {
		t.Fatalf("meter drifted %v from exact Eq. 1/2 computation", diff)
	}
}

func TestMeterExhaustion(t *testing.T) {
	c := testCluster(t, 7)
	m, _ := NewMeter(c, cluster.P4, math.Inf(1), false)
	rate := m.Rate()
	budget := rate * 40 // exactly 40 tu at the initial rate
	m2, _ := NewMeter(c, cluster.P4, budget, false)
	at, ex := m2.Advance(100)
	if !ex {
		t.Fatal("expected exhaustion")
	}
	if math.Abs(at-40) > 1e-9 {
		t.Fatalf("exhaustion at %v, want 40", at)
	}
	if m2.Remaining() != 0 {
		t.Fatalf("remaining %v after exhaustion", m2.Remaining())
	}
	if m2.Now() != at {
		t.Fatalf("meter time %v, want stop at exhaustion %v", m2.Now(), at)
	}
}

func TestMeterExactBoundaryNotEarly(t *testing.T) {
	c := testCluster(t, 8)
	m, _ := NewMeter(c, cluster.P4, math.Inf(1), false)
	rate := m.Rate()
	m2, _ := NewMeter(c, cluster.P4, rate*40, false)
	// Advancing to just before the boundary must not exhaust.
	if _, ex := m2.Advance(39.999999); ex {
		t.Fatal("exhausted before budget boundary")
	}
}

func TestMeterAdvanceBackwardsPanics(t *testing.T) {
	c := testCluster(t, 9)
	m, _ := NewMeter(c, cluster.P4, math.Inf(1), false)
	m.Advance(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on backwards Advance")
		}
	}()
	m.Advance(5)
}

func TestNewMeterErrors(t *testing.T) {
	c := testCluster(t, 10)
	if _, err := NewMeter(&cluster.Cluster{}, cluster.P4, 1, false); err == nil {
		t.Fatal("expected error for invalid cluster")
	}
	if _, err := NewMeter(c, cluster.PState(7), 1, false); err == nil {
		t.Fatal("expected error for invalid P-state")
	}
	if _, err := NewMeter(c, cluster.P4, 0, false); err == nil {
		t.Fatal("expected error for non-positive budget")
	}
}

func TestMeterVerifyRequiresRecording(t *testing.T) {
	c := testCluster(t, 11)
	m, _ := NewMeter(c, cluster.P4, math.Inf(1), false)
	if _, err := m.Verify(); err == nil {
		t.Fatal("expected error verifying a non-recording meter")
	}
	if m.Transitions() != nil {
		t.Fatal("non-recording meter returned transition lists")
	}
}

func TestMeterPowerOverride(t *testing.T) {
	c := testCluster(t, 13)
	m, _ := NewMeter(c, cluster.P4, math.Inf(1), false)
	r0 := m.Rate()
	node := c.Node(c.Cores()[0])
	// Override core 0 to double its P4 power.
	m.SetPower(0, 2*node.Power[cluster.P4])
	wantDelta := node.Power[cluster.P4] / node.Efficiency
	if math.Abs(m.Rate()-(r0+wantDelta)) > 1e-9 {
		t.Fatalf("rate after override %v, want %v", m.Rate(), r0+wantDelta)
	}
	// Energy integrates at the overridden rate.
	m.Advance(10)
	want := (r0 + wantDelta) * 10
	if math.Abs(m.Consumed()-want) > 1e-6 {
		t.Fatalf("consumed %v, want %v", m.Consumed(), want)
	}
	// ClearPower restores the table rate.
	m.ClearPower(0)
	if math.Abs(m.Rate()-r0) > 1e-9 {
		t.Fatalf("rate after clear %v, want %v", m.Rate(), r0)
	}
	// Clearing again is a no-op.
	m.ClearPower(0)
	if math.Abs(m.Rate()-r0) > 1e-9 {
		t.Fatal("double clear changed rate")
	}
}

func TestMeterSetPStateClearsOverride(t *testing.T) {
	c := testCluster(t, 14)
	m, _ := NewMeter(c, cluster.P4, math.Inf(1), false)
	r0 := m.Rate()
	m.SetPower(0, 500)
	m.SetPState(0, cluster.P4) // same state, but must clear the override
	if math.Abs(m.Rate()-r0) > 1e-9 {
		t.Fatalf("SetPState did not clear override: %v vs %v", m.Rate(), r0)
	}
}

func TestMeterSetPowerDisablesVerify(t *testing.T) {
	c := testCluster(t, 15)
	m, _ := NewMeter(c, cluster.P4, math.Inf(1), true)
	m.SetPower(0, 10)
	if _, err := m.Verify(); err == nil {
		t.Fatal("Verify should refuse after a power override")
	}
}

func TestMeterSetPowerPanicsOnBadWatts(t *testing.T) {
	c := testCluster(t, 16)
	m, _ := NewMeter(c, cluster.P4, math.Inf(1), false)
	for _, w := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for watts %v", w)
				}
			}()
			m.SetPower(0, w)
		}()
	}
}

func TestMeterBudgetAccessor(t *testing.T) {
	c := testCluster(t, 12)
	m, _ := NewMeter(c, cluster.P4, 12345, false)
	if m.Budget() != 12345 {
		t.Fatal("Budget accessor wrong")
	}
}

func TestMeterStateRestoreBitIdentical(t *testing.T) {
	c := testCluster(t, 1)
	mk := func() *Meter {
		m, err := NewMeter(c, cluster.P4, 1e9, false)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// Drive one meter through a mixed history, snapshot mid-way, and demand
	// that a restored meter integrates the identical suffix bit-for-bit.
	drive := func(m *Meter) {
		m.Advance(10)
		m.SetPState(0, cluster.P0)
		m.Advance(17.25)
		m.SetPower(1, 0)
		m.Advance(31.5)
	}
	orig := mk()
	drive(orig)
	st := orig.State()

	suffix := func(m *Meter) (float64, float64, float64) {
		m.Advance(40.125)
		m.ClearPower(1)
		m.SetPState(0, cluster.P2)
		m.Advance(55.75)
		return m.Now(), m.Consumed(), m.Rate()
	}
	wn, wu, wr := suffix(orig)

	rest := mk()
	if err := rest.Restore(st); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if rest.Now() != st.Now || rest.Consumed() != st.Used {
		t.Fatalf("restore point: now=%v used=%v, want %v/%v", rest.Now(), rest.Consumed(), st.Now, st.Used)
	}
	gn, gu, gr := suffix(rest)
	if gn != wn || gu != wu || gr != wr {
		t.Fatalf("restored suffix diverged: now %v vs %v, used %v vs %v, rate %v vs %v", gn, wn, gu, wu, gr, wr)
	}
}

func TestMeterRestoreRejectsBadState(t *testing.T) {
	c := testCluster(t, 1)
	m, err := NewMeter(c, cluster.P4, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	good := m.State()
	bad := good
	bad.States = good.States[:1]
	if err := m.Restore(bad); err == nil {
		t.Fatal("Restore accepted truncated state")
	}
	bad = good
	bad.Used = 101 // past the budget
	if err := m.Restore(bad); err == nil {
		t.Fatal("Restore accepted used > budget")
	}
	bad = good
	bad.States = append([]cluster.PState(nil), good.States...)
	bad.States[0] = cluster.PState(99)
	if err := m.Restore(bad); err == nil {
		t.Fatal("Restore accepted invalid P-state")
	}
}

// TestMeterRateIsIndexOrderSum drives a random mix of P-state changes,
// power overrides and override clears, with a Restore(State()) into a
// fresh meter half way, and requires the rate after every operation to be
// bit-equal to the index-order sum of each core's table-or-override power
// over its efficiency — the pure function of (state, override) that lets a
// restored meter integrate exactly like the uninterrupted one.
func TestMeterRateIsIndexOrderSum(t *testing.T) {
	c := testCluster(t, 4)
	cores := c.Cores()
	m, err := NewMeter(c, cluster.P4, math.Inf(1), false)
	if err != nil {
		t.Fatal(err)
	}
	state := make([]cluster.PState, len(cores))
	override := make([]float64, len(cores))
	for i := range cores {
		state[i], override[i] = cluster.P4, -1
	}
	check := func(step int, op string) {
		t.Helper()
		want := 0.0
		for i, id := range cores {
			p := override[i]
			if p < 0 {
				p = c.Node(id).Power[state[i]]
			}
			want += p / c.Node(id).Efficiency
		}
		if math.Float64bits(m.Rate()) != math.Float64bits(want) {
			t.Fatalf("step %d (%s): rate %v, index-order sum %v", step, op, m.Rate(), want)
		}
	}
	check(-1, "new")
	r := randx.NewStream(11)
	const steps = 5000
	for step := 0; step < steps; step++ {
		idx := r.IntN(len(cores))
		switch op := r.IntN(3); {
		case step == steps/2:
			fresh, err := NewMeter(c, cluster.P0, math.Inf(1), false)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Restore(m.State()); err != nil {
				t.Fatal(err)
			}
			m = fresh
			check(step, "restore")
		case op == 0:
			ps := cluster.PState(r.IntN(cluster.NumPStates))
			m.SetPState(idx, ps)
			state[idx], override[idx] = ps, -1
			check(step, "SetPState")
		case op == 1:
			w := 100 * r.Float64()
			m.SetPower(idx, w)
			override[idx] = w
			check(step, "SetPower")
		default:
			m.ClearPower(idx)
			override[idx] = -1
			check(step, "ClearPower")
		}
	}
}
