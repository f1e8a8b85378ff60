package fault

import (
	"bytes"
	"testing"

	"repro/internal/randx"
)

// walkVictim is the reference victim walk PickVictim replaced in both
// engines: count the up entries of a down mask, draw one IntN over that
// count, and walk the mask in index order.
func walkVictim(rng *randx.Stream, down []bool) (int, bool) {
	up := 0
	for _, d := range down {
		if !d {
			up++
		}
	}
	if up == 0 {
		return 0, false
	}
	n := rng.IntN(up)
	for idx, d := range down {
		if d {
			continue
		}
		if n == 0 {
			return idx, true
		}
		n--
	}
	return 0, false
}

// maskFrom expands the low n bits of bits into a mask.
func maskFrom(bits uint64, n int) []bool {
	m := make([]bool, n)
	for i := range m {
		m[i] = bits>>i&1 == 1
	}
	return m
}

func TestPickVictimNoDrawWhenNoneEligible(t *testing.T) {
	for _, tc := range []struct {
		flags    []bool
		eligible bool
	}{
		{nil, true},
		{nil, false},
		{[]bool{true, true, true}, false},
		{[]bool{false, false}, true},
	} {
		rng := randx.NewStream(7)
		before := rng.State()
		if idx, ok := PickVictim(rng, tc.flags, tc.eligible); ok {
			t.Errorf("flags %v eligible=%v: picked %d with nothing eligible", tc.flags, tc.eligible, idx)
		}
		if !bytes.Equal(rng.State(), before) {
			t.Errorf("flags %v eligible=%v: the stream moved with nothing eligible", tc.flags, tc.eligible)
		}
		if n := CountEligible(tc.flags, tc.eligible); n != 0 {
			t.Errorf("flags %v eligible=%v: CountEligible %d", tc.flags, tc.eligible, n)
		}
	}
}

func TestPickVictimNeverIneligible(t *testing.T) {
	masks := randx.NewStream(11)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + masks.IntN(24)
		flags := maskFrom(uint64(masks.IntN(1<<n)), n)
		eligible := trial%2 == 0
		want := CountEligible(flags, eligible)
		rng := randx.NewStream(uint64(trial))
		idx, ok := PickVictim(rng, flags, eligible)
		if ok != (want > 0) {
			t.Fatalf("flags %v eligible=%v: ok=%v with %d eligible", flags, eligible, ok, want)
		}
		if ok && flags[idx] != eligible {
			t.Fatalf("flags %v eligible=%v: picked ineligible index %d", flags, eligible, idx)
		}
	}
}

func TestPickVictimMatchesWalk(t *testing.T) {
	masks := []string{"", "0", "1", "0000", "1111", "0101", "1010", "1000000", "0000001", "110110011101", "0011100111000101"}
	for _, m := range masks {
		down := make([]bool, len(m))
		alive := make([]bool, len(m))
		for i := range m {
			down[i] = m[i] == '1'
			alive[i] = !down[i]
		}
		for seed := uint64(0); seed < 40; seed++ {
			ref := randx.NewStream(seed)
			wantIdx, wantOK := walkVictim(ref, down)
			for _, tc := range []struct {
				flags    []bool
				eligible bool
			}{{down, false}, {alive, true}} {
				rng := randx.NewStream(seed)
				idx, ok := PickVictim(rng, tc.flags, tc.eligible)
				if idx != wantIdx || ok != wantOK {
					t.Errorf("mask %q seed %d eligible=%v: PickVictim (%d, %v), walk (%d, %v)",
						m, seed, tc.eligible, idx, ok, wantIdx, wantOK)
				}
				if !bytes.Equal(rng.State(), ref.State()) {
					t.Errorf("mask %q seed %d eligible=%v: stream state differs from the walk's", m, seed, tc.eligible)
				}
			}
		}
	}
}

func TestRecoveryRetry(t *testing.T) {
	requeue := Recovery{Mode: Requeue, MaxRetries: 2, Backoff: 10}
	aware := requeue
	aware.DeadlineAware = true
	for _, tc := range []struct {
		name          string
		rec           Recovery
		now, deadline float64
		used          int
		delay         float64
		retry         bool
	}{
		{"drop mode", Recovery{Mode: Drop, MaxRetries: 2, Backoff: 10}, 0, 100, 0, 0, false},
		{"retries exhausted", requeue, 0, 100, 2, 0, false},
		{"retries exhausted, deadline-aware", aware, 0, 100, 2, 0, false},
		{"first retry", requeue, 0, 100, 0, 10, true},
		{"second retry waits twice the backoff", requeue, 0, 100, 1, 20, true},
		{"late task, not deadline-aware, uncapped", requeue, 50, 40, 1, 20, true},
		{"late task, deadline-aware", aware, 50, 40, 0, 0, false},
		{"deadline exactly now, deadline-aware", aware, 50, 50, 0, 0, false},
		{"deadline-aware, under the slack/2 cap", aware, 0, 100, 1, 20, true},
		{"deadline-aware, capped at slack/2", aware, 70, 100, 1, 15, true},
	} {
		delay, retry := tc.rec.Retry(tc.now, tc.deadline, tc.used)
		if delay != tc.delay || retry != tc.retry {
			t.Errorf("%s: Retry(%v, %v, %d) = (%v, %v), want (%v, %v)",
				tc.name, tc.now, tc.deadline, tc.used, delay, retry, tc.delay, tc.retry)
		}
	}
}

func TestScriptedRepair(t *testing.T) {
	spec := Spec{RepairTime: 30}
	if got := spec.ScriptedRepair(Scripted{Repair: 5}); got != 5 {
		t.Errorf("entry repair 5: got %v", got)
	}
	if got := spec.ScriptedRepair(Scripted{}); got != 30 {
		t.Errorf("entry repair unset: got %v, want the spec's 30", got)
	}
}
