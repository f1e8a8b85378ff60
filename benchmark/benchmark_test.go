package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/experiment"
)

func TestPercentileNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) || !math.IsNaN(median(nil)) {
		t.Error("empty sample must yield NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even sample = %v, want 2.5", got)
	}
}

// The choosing-metrics rule: report a percentile only with at least ten
// samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {1600, 0.99}, {10000, 0.999}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := samplesBeyond(1600, 0.99); got != 16 {
		t.Errorf("a 1600-request window has %d samples beyond its p99, want 16", got)
	}
	// Every full-size latency window must support the p99 it reports.
	for _, w := range serveWorkloads {
		plan := planServe(w, defaultSeconds)
		if per := plan.n / plan.windows; supportedTail(per) < 0.99 {
			t.Errorf("%s: %d requests per window do not support a p99", w, per)
		}
	}
}

func TestPeakRSSIsTheLargestPhaseMedian(t *testing.T) {
	p := peakRSS{order: []string{"pass", "recovery"}, byPhase: map[string][]float64{
		"pass":     {40, 43, 41},
		"recovery": {48, 60, 49, 50, 51}, // one repetition the collector left high
	}}
	if got, n := p.mb(); got != 50 || n != 5 {
		t.Errorf("peak = %v over %d repetitions, want the recovery's median 50 over 5", got, n)
	}
}

func TestWindowMedianIgnoresOneStalledWindow(t *testing.T) {
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = 100 + float64(i%7)
	}
	windowMedian := func() float64 { return median(windowPercentiles(xs, 4, 0.99)) }
	clean := windowMedian()
	for i := 100; i < 200; i++ { // a stall covering the whole second window
		xs[i] += 5000
	}
	if got := windowMedian(); got != clean {
		t.Errorf("window median moved from %v to %v on one stalled window", clean, got)
	}
	if got := len(windowPercentiles(xs, 3, 0.5)); got != 3 {
		t.Errorf("got %d windows, want 3", got)
	}
	// The remainder goes to the last window: nothing is dropped.
	last := windowPercentiles([]float64{1, 1, 1, 1, 1, 1, 9}, 3, 1)
	if last[2] != 9 {
		t.Errorf("last window lost the remainder: %v", last)
	}
}

func TestMedianAcrossVotesOutOneSlowPass(t *testing.T) {
	passes := [][]float64{{1, 2, 3}, {1, 20, 3}, {10, 2, 3}}
	got := medianAcross(passes)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 || sum(got) != 6 {
		t.Errorf("medianAcross = %v, want [1 2 3]", got)
	}
}

func TestPairedWindowDelta(t *testing.T) {
	a := make([]float64, 100)
	b := make([]float64, 100)
	for i := range a {
		b[i] = float64(i) // cost drifts along the schedule
		a[i] = b[i] + 7
	}
	if got := pairedWindowDelta(a, b, 4); got != 7 {
		t.Errorf("pairedWindowDelta = %v, want 7", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the acceptance procedure uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{5, 1})
	if q1 != 0 || q3 != 6 { // Python extrapolates on two samples
		t.Errorf("quartiles(1,5) = %v, %v; Python gives 0, 6", q1, q3)
	}
}

func TestJudgeBounds(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	share := metricDef{Name: "failed", Better: "lower", AbsBound: 0.002}
	tight := func(v float64) sideStats { return summarize([]float64{v, v, v}) }
	for _, c := range []struct {
		name  string
		d     metricDef
		exact bool
		a, b  sideStats
		want  string
	}{
		{"within bound", lower, false, tight(100), tight(109), vSame},
		{"past bound", lower, false, tight(100), tight(111), vWorse},
		{"faster", lower, false, tight(100), tight(80), vBetter},
		{"higher is better", higher, false, tight(100), tight(80), vWorse},
		{"higher gained", higher, false, tight(100), tight(120), vBetter},
		{"absolute bound holds near zero", share, false, tight(0), tight(0.001), vSame},
		{"absolute bound broken", share, false, tight(0), tight(0.003), vWorse},
		{"deterministic pair allows nothing", higher, true, tight(0.6), tight(0.5999), vWorse},
		{"deterministic pair unchanged", higher, true, tight(0.6), tight(0.6), vSame},
		{"own spread wider than the bound", lower, false, summarize([]float64{80, 100, 125}), summarize([]float64{85, 104, 120}), vUnresolved},
		{"wide spread but every run better", lower, false, summarize([]float64{100, 120, 140}), summarize([]float64{60, 70, 80}), vBetter},
		{"wide spread and every run worse", lower, false, summarize([]float64{60, 70, 80}), summarize([]float64{100, 120, 140}), vWorse},
	} {
		if got, _, _ := judge(c.d, c.exact, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFilesExitStatus(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate float64) string {
		r := newResult(wSimFloor, 1, 1, false)
		for _, d := range r.defs {
			v := 1.0
			if d.Name == "ops_per_s" {
				v = rate
			}
			r.set(d.Name, v, 1)
		}
		r.finish()
		path := filepath.Join(dir, name)
		if err := writeJSON(path, resultFile{Runs: []*result{r}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("a.json", 1000), write("b.json", 990), write("c.json", 800)
	var out bytes.Buffer
	if ok, err := compareFiles(&out, []string{base}, []string{same}); err != nil || !ok {
		t.Errorf("1%% slower must pass: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if ok, err := compareFiles(&out, []string{base}, []string{slow}); err != nil || ok {
		t.Errorf("20%% slower must fail: ok=%v err=%v", ok, err)
	}
	if _, err := compareFiles(&out, []string{filepath.Join(dir, "missing.json")}, []string{same}); err == nil {
		t.Error("a missing file must be an error")
	}
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	m, _, err := experiment.BuildModelFromSpec(experiment.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []scheduleKind{paperCycle, poissonEq} {
		a, b, c := genSchedule(7, 300, m, kind), genSchedule(7, 300, m, kind), genSchedule(8, 300, m, kind)
		differs := false
		for i := range a.wire {
			if !bytes.Equal(a.wire[i], b.wire[i]) || a.gaps[i] != b.gaps[i] {
				t.Fatalf("kind %d: request %d differs between two schedules of seed 7", kind, i)
			}
			differs = differs || !bytes.Equal(a.wire[i], c.wire[i])
		}
		if !differs {
			t.Errorf("kind %d: seeds 7 and 8 gave the same schedule", kind)
		}
	}
	// The paper cycle bursts at the ends of every 1 000 tasks.
	s := genSchedule(1, 3000, m, paperCycle)
	var fast, slow float64
	for i, g := range s.gaps {
		if c := i % 1000; c < 200 || c >= 800 {
			fast += g
		} else {
			slow += g
		}
	}
	if ratio := (slow / 1800) / (fast / 1200); ratio < 4 || ratio > 9 {
		t.Errorf("lull gaps are %.1f× burst gaps, want about 6×", ratio)
	}
	ta, _, err := genTrials(3, 2, m)
	if err != nil {
		t.Fatal(err)
	}
	tb, _, _ := genTrials(3, 2, m)
	for i := range ta {
		for j := range ta[i].Tasks {
			if ta[i].Tasks[j] != tb[i].Tasks[j] {
				t.Fatalf("trial %d task %d differs between two generations of seed 3", i, j)
			}
		}
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	tr := &tracer{on: true, spans: []span{
		{ID: 1, Name: "leg", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "req", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "req", Start: 30, End: 60}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "req", Start: 90, End: 120},
	}}
	self := tr.selfTimes()
	if self["leg"] != 40 { // 100 − [10,60] − [90,100]
		t.Errorf("leg self time = %d, want 40", self["leg"])
	}
	if self["req"] != 90 {
		t.Errorf("req self time = %d, want 90", self["req"])
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the root of the repo.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheCatalogue(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d != defaultSeconds %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(allWorkloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != allWorkloads[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, allWorkloads[i])
		}
	}
	var gated []metricDef
	for _, d := range endToEnd {
		if d.Gated {
			gated = append(gated, d)
		}
	}
	if len(bj.EndToEnd) != len(gated) {
		t.Fatalf("%d end_to_end metrics, catalogue gates %d", len(bj.EndToEnd), len(gated))
	}
	for i, d := range gated {
		want := d.Bound
		if d.DriverBound > 0 {
			want = d.DriverBound
		}
		got := bj.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != want {
			t.Errorf("end_to_end[%d] = %+v, catalogue has %s %s %s bound %v", i, got, d.Name, d.Unit, d.Better, want)
		}
		if d.On != nil {
			t.Errorf("%s is gated but not reported on every workload", d.Name)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics, catalogue has %d", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := bj.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, catalogue has %s %s %s", i, got, d.Name, d.Unit, d.Better)
		}
	}
}

// TestSmokeAllWorkloads runs every workload, untraced and traced, at 1/100
// size: every declared metric appears exactly once with a finite value, the
// run is correct, and the driver's line carries exactly the contracted keys.
func TestSmokeAllWorkloads(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range allWorkloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w, seed: 2, seconds: 0.1, traced: traced, outDir: t.TempDir(), setups: 1}
			res, err := runOne(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", w, traced, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			var want []metricDef
			if traced {
				want = perLayer
			} else {
				for _, d := range endToEnd {
					if d.on(w) {
						want = append(want, d)
					}
				}
			}
			seen := map[string]int{}
			for _, v := range res.Metrics {
				seen[v.Name]++
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: %s is %v", w, traced, v.Name, v.Value)
				}
			}
			for _, d := range want {
				if seen[d.Name] != 1 {
					t.Errorf("%s traced=%v: %s appears %d times", w, traced, d.Name, seen[d.Name])
				}
				v, _ := res.get(d.Name)
				if d.Gated && v.Value <= 0 {
					t.Errorf("%s: gated metric %s = %v, must never be zero", w, d.Name, v.Value)
				}
				if traced && !d.on(w) && v.Value != 0 {
					t.Errorf("%s bypasses the layer of %s, which reads %v", w, d.Name, v.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			var line struct {
				Correct   *bool
				Attempted *int64
				Failed    *int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(res.driverLine()), &line); err != nil {
				t.Fatalf("%s traced=%v: driver line does not parse: %v", w, traced, err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Errorf("%s traced=%v: driver line lacks a top-level key: %s", w, traced, res.driverLine())
			}
			wantKeys := 0
			for _, d := range want {
				if traced || d.Gated {
					wantKeys++
					if m, ok := line.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
						t.Errorf("%s traced=%v: driver line lacks %s", w, traced, d.Name)
					}
				}
			}
			if len(line.Metrics) != wantKeys {
				t.Errorf("%s traced=%v: driver line has %d metrics, want %d", w, traced, len(line.Metrics), wantKeys)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace_"+w+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w, err)
				}
			}
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if _, err := runOne(runConfig{workload: "nope", seconds: 1, outDir: t.TempDir(), setups: 1}); err == nil {
		t.Error("an unknown workload must be refused")
	}
}
