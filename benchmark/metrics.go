package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Workload names are fixed; later issues refer to them.
const (
	wSimRho      = "sim_rho"
	wSimFloor    = "sim_floor"
	wServeReplay = "serve_replay"
	wServeWAL    = "serve_wal"
	wServeStack  = "serve_stack"
)

var (
	allWorkloads   = []string{wSimRho, wSimFloor, wServeReplay, wServeWAL, wServeStack}
	simWorkloads   = []string{wSimRho, wSimFloor}
	serveWorkloads = []string{wServeReplay, wServeWAL, wServeStack}
)

// metricDef declares one metric: what it is called, how it is read, and —
// for end-to-end metrics — how far it may worsen before a change counts as
// a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the worse-by bound as a share of the baseline median.
	Bound float64
	// AbsBound, when positive, is the bound in the metric's own unit; the
	// larger of the two applies. Shares that sit at or near zero
	// (failed_share, slo_miss_share) can only be bounded this way.
	AbsBound float64
	// Gated marks the metrics BENCHMARK.json lists under end_to_end: those
	// defined, and never zero, on every workload.
	Gated bool
	// DriverBound, when set, is the bound BENCHMARK.json carries instead of
	// Bound. The acceptance procedure varies the seed from run to run, so a
	// metric that is a function of the inputs spreads there by more than
	// -compare, which holds the seed fixed, has to allow; and it holds two
	// sets of runs taken at different times to one bound per metric on every
	// workload, serve_wal included, whose throughput and latency follow the
	// shared disk (it drifted by 8 % within half an hour here).
	DriverBound float64
	// On lists the workloads that report the metric (end-to-end) or
	// exercise the layer (per-layer); nil means all five. A per-layer
	// metric reads 0 on a workload that bypasses its layer.
	On []string
}

func (d metricDef) on(workload string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd is what a user of the system sees. "op" is one simulated task on
// sim_* and one request on serve_*.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, AbsBound: 0.05, Gated: true},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.12, Gated: true, DriverBound: 0.20},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.20, Gated: true, DriverBound: 0.25},
	{Name: "lat_p99_us", Unit: "us", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.15, Gated: true},
	{Name: "ontime_share", Unit: "fraction", Better: "higher", AbsBound: 0.01, Gated: true, DriverBound: 0.08},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "failed_share", Unit: "fraction", Better: "lower", AbsBound: 0.002},
	{Name: "slo_miss_share", Unit: "fraction", Better: "lower", AbsBound: 0.005, On: serveWorkloads},
	{Name: "recover_records_per_s", Unit: "1/s", Better: "higher", Bound: 0.15, On: []string{wServeWAL}},
}

// deterministic lists the (metric, workload) pairs whose value is a pure
// function of the inputs: two runs of one commit on one seed must agree
// exactly, and -compare holds them to a bound of zero.
func deterministic(metric, workload string) bool {
	if workload == wServeWAL || workload == wServeStack {
		return false
	}
	return metric == "ontime_share" || metric == "failed_share"
}

var (
	rhoLayers    = []string{wSimRho, wServeReplay, wServeWAL, wServeStack}
	walWorkloads = []string{wServeWAL}
	stackOnly    = []string{wServeStack}
)

// perLayer is the attribution table, measured from outside: by timing the
// benchmark's own calls into public functions and reading counters the
// program already exports. Layer = module name.
var perLayer = []metricDef{
	{Name: "cluster.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.build_model_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.generate_trial_ms", Unit: "ms", Better: "lower", On: simWorkloads},

	{Name: "experiment.build_s", Unit: "s", Better: "lower", On: simWorkloads},
	{Name: "experiment.variant_s_p50", Unit: "s", Better: "lower", On: simWorkloads},
	{Name: "experiment.parallel_efficiency", Unit: "fraction", Better: "higher", On: simWorkloads},
	{Name: "metrics.snapshot_merge_us", Unit: "us", Better: "lower", On: simWorkloads},

	{Name: "sim.run_ms_p50", Unit: "ms", Better: "lower", On: simWorkloads},
	{Name: "sim.run_ms_p90", Unit: "ms", Better: "lower", On: simWorkloads},
	{Name: "sim.events_per_task", Unit: "count", Better: "lower", On: simWorkloads},
	{Name: "sim.heap_high_water", Unit: "count", Better: "lower", On: simWorkloads},

	{Name: "sched.decide_none_us", Unit: "us", Better: "lower"},
	{Name: "sched.decide_en_rob_us", Unit: "us", Better: "lower", On: rhoLayers},
	{Name: "sched.candidates_per_task", Unit: "count", Better: "lower"},
	{Name: "sched.filter_reject_share", Unit: "fraction", Better: "lower"},

	{Name: "robustness.rho_query_ns", Unit: "ns", Better: "lower", On: rhoLayers},
	{Name: "robustness.chain_rebuild_us", Unit: "us", Better: "lower", On: rhoLayers},
	{Name: "robustness.chain_extend_us", Unit: "us", Better: "lower", On: rhoLayers},
	{Name: "robustness.free_cache_hit_ratio", Unit: "fraction", Better: "higher", On: rhoLayers},
	{Name: "robustness.rho_evals_per_task", Unit: "count", Better: "lower", On: rhoLayers},
	{Name: "robustness.oracle_ontime_gap", Unit: "fraction", Better: "lower", On: []string{wSimRho}},

	{Name: "pmf.triple_conv_cdf_ns", Unit: "ns", Better: "lower", On: rhoLayers},
	{Name: "pmf.conv_lattice_ns", Unit: "ns", Better: "lower", On: rhoLayers},
	{Name: "pmf.gridconv_per_task", Unit: "count", Better: "lower", On: rhoLayers},
	{Name: "pmf.sparse_conv_per_task", Unit: "count", Better: "lower", On: []string{}},
	{Name: "pmf.fft_share", Unit: "fraction", Better: "lower", On: rhoLayers},

	{Name: "energy.meter_op_ns", Unit: "ns", Better: "lower"},
	{Name: "energy.advances_per_task", Unit: "count", Better: "lower"},

	{Name: "server.http_self_us", Unit: "us", Better: "lower", On: serveWorkloads},
	{Name: "server.decode_ns", Unit: "ns", Better: "lower", On: serveWorkloads},
	{Name: "server.submit_us_p50", Unit: "us", Better: "lower", On: serveWorkloads},
	{Name: "server.decide_us_mean", Unit: "us", Better: "lower", On: serveWorkloads},
	{Name: "server.queue_wait_us_mean", Unit: "us", Better: "lower", On: serveWorkloads},
	{Name: "server.shed_share", Unit: "fraction", Better: "lower", On: serveWorkloads},
	{Name: "server.drain_s", Unit: "s", Better: "lower", On: serveWorkloads},

	{Name: "server.wal_self_us", Unit: "us", Better: "lower", On: walWorkloads},
	{Name: "server.wal_commits_per_decision", Unit: "count", Better: "lower", On: walWorkloads},
	{Name: "server.wal_records_per_decision", Unit: "count", Better: "lower", On: walWorkloads},
	{Name: "server.wal_bytes_per_decision", Unit: "B", Better: "lower", On: walWorkloads},
	{Name: "server.checkpoints", Unit: "count", Better: "lower", On: walWorkloads},
	{Name: "server.recover_s", Unit: "s", Better: "lower", On: walWorkloads},
	{Name: "server.recover_records_per_s", Unit: "1/s", Better: "higher", On: walWorkloads},
	{Name: "server.recover_rss_mb", Unit: "MB", Better: "lower", On: walWorkloads},

	{Name: "server.router_self_us", Unit: "us", Better: "lower", On: stackOnly},
	{Name: "server.tenant_self_us", Unit: "us", Better: "lower", On: stackOnly},
	{Name: "server.router_failovers", Unit: "count", Better: "lower", On: []string{}},

	{Name: "loadgen.gen_late_p50_us", Unit: "us", Better: "lower", On: stackOnly},
	{Name: "loadgen.gen_late_p99_us", Unit: "us", Better: "lower", On: stackOnly},
	{Name: "loadgen.lat_from_due_p50_us", Unit: "us", Better: "lower", On: stackOnly},
	{Name: "loadgen.lat_from_due_p99_us", Unit: "us", Better: "lower", On: stackOnly},
	{Name: "loadgen.achieved_over_offered", Unit: "fraction", Better: "higher", On: stackOnly},

	{Name: "runtime.alloc_kb_per_op", Unit: "kB", Better: "lower"},
	{Name: "runtime.mallocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},

	{Name: "host.nproc", Unit: "count", Better: "higher"},
	{Name: "host.timer_overshoot_us", Unit: "us", Better: "lower"},
	{Name: "host.fsync_us", Unit: "us", Better: "lower", On: walWorkloads},
	{Name: "host.wal_on_tmpfs", Unit: "count", Better: "higher", On: walWorkloads},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// value is one reported number; N is the sample count behind it.
type value struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is one run of one workload, traced or not.
type result struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	// Failures holds the first few correctness messages.
	Failures []string `json:"failures,omitempty"`
	// Digest is the SHA-256 over the response bodies of one pass
	// (serve_replay only): every pass, the traced and the untraced run, and
	// any two commits that decide alike, agree on it.
	Digest string `json:"digest,omitempty"`
	// Notes qualify a number without failing the run.
	Notes []string `json:"notes,omitempty"`
	// Counts are exact, input-determined tallies kept beside the metrics so
	// two runs can be compared for identity.
	Counts  map[string]int64 `json:"counts,omitempty"`
	Metrics []value          `json:"metrics"`

	defs []metricDef
}

func newResult(workload string, seed uint64, seconds float64, traced bool) *result {
	r := &result{Workload: workload, Seed: seed, Seconds: seconds, Traced: traced, Correct: true,
		Counts: map[string]int64{}}
	for _, d := range endToEnd {
		if !traced && d.on(workload) {
			r.defs = append(r.defs, d)
		}
	}
	if traced {
		r.defs = perLayer
	}
	return r
}

// set records a metric. Setting an undeclared name, or one twice, is a bug
// in the benchmark and fails the run.
func (r *result) set(name string, v float64, n int) {
	for _, d := range r.defs {
		if d.Name != name {
			continue
		}
		for _, have := range r.Metrics {
			if have.Name == name {
				r.fail("metric %s set twice", name)
				return
			}
		}
		r.Metrics = append(r.Metrics, value{Name: name, Value: v, Unit: d.Unit, N: n})
		return
	}
	r.fail("metric %s is not declared for %s (traced=%v)", name, r.Workload, r.Traced)
}

// fail records a correctness failure.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

func (r *result) get(name string) (value, bool) {
	for _, v := range r.Metrics {
		if v.Name == name {
			return v, true
		}
	}
	return value{}, false
}

// finish completes the metric list in declaration order. A per-layer metric
// of a layer this workload bypasses reads 0 with n = 0; any other gap, and
// any non-finite value, fails the run.
func (r *result) finish() {
	out := make([]value, 0, len(r.defs))
	for _, d := range r.defs {
		v, ok := r.get(d.Name)
		switch {
		case ok && !d.on(r.Workload) && v.Value != 0:
			r.fail("%s = %v on %s, which must bypass that layer", d.Name, v.Value, r.Workload)
		case !ok && r.Traced && !d.on(r.Workload):
			v = value{Name: d.Name, Unit: d.Unit}
		case !ok:
			r.fail("metric %s was not measured", d.Name)
			v = value{Name: d.Name, Unit: d.Unit}
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.fail("metric %s is not finite (%v)", d.Name, v.Value)
			v.Value = 0
		}
		out = append(out, v)
	}
	r.Metrics = out
}

// printTable writes the aligned per-workload table: name, value, unit, n.
func (r *result) printTable(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %gs) ==\n", r.Workload, mode, r.Seed, r.Seconds)
	wide := 0
	for _, v := range r.Metrics {
		wide = max(wide, len(v.Name))
	}
	for _, v := range r.Metrics {
		fmt.Fprintf(w, "  %-*s %16s %-9s n=%d\n", wide, v.Name, formatValue(v.Value), v.Unit, v.N)
	}
	if r.Digest != "" {
		fmt.Fprintf(w, "  digest %s\n", r.Digest)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL: %s\n", f)
	}
}

func formatValue(v float64) string {
	a := math.Abs(v)
	switch {
	case v == math.Trunc(v) && a < 1e12:
		return fmt.Sprintf("%.0f", v)
	case a >= 1000:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.6f", v)
	}
}

// driverLine is the one-line JSON object the benchmark contract asks for as
// the last line of standard output: with tracing off exactly the gated
// end-to-end metrics, with tracing on exactly the per-layer metrics.
func (r *result) driverLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	gated := make(map[string]bool)
	for _, d := range endToEnd {
		gated[d.Name] = d.Gated
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, map[string]mv{}}
	for _, v := range r.Metrics {
		if r.Traced || gated[v.Name] {
			line.Metrics[v.Name] = mv{Value: v.Value, Unit: v.Unit}
		}
	}
	b, _ := json.Marshal(line) // every value is finite after finish()
	return string(b)
}
