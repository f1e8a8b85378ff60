package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/pmf"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/workload"
)

const (
	// sloLimitUs is the fixed per-request latency limit behind
	// slo_miss_share.
	sloLimitUs = 2000
	// lateLimitUs: an open-loop request sent this long after it was due is a
	// failed operation — the generator, not the server, decided its timing.
	lateLimitUs = 5000
	// stackRate is serve_stack's offered load in requests per wall second;
	// TimeScale maps it onto 1.0·λ_eq of virtual time whatever the server's
	// speed.
	stackRate = 1500
)

// servePlan is the shape of a serve_* workload: `passes` identical passes of
// n requests, each against a freshly set-up server. n scales with -seconds
// through fixed reference rates (see planSim); the latency windows hold about
// 1 600 requests each, so every per-window p99 has 16 samples beyond it.
type servePlan struct {
	passes  int
	n       int // requests per pass
	windows int // latency windows per pass
	conns   int
	shards  int
	wal     bool
	open    bool
	kind    scheduleKind
	// recoverN requests feed the WAL the recovery phase replays, `recoveries`
	// times.
	recoverN, recoveries int
}

func planServe(workload string, seconds float64) servePlan {
	p := servePlan{passes: 5, conns: 1}
	switch workload {
	case wServeReplay:
		p.n = int(2000 * seconds)
	case wServeWAL:
		p.n = int(640 * seconds)
		p.conns, p.wal = workers(), true
		p.recoverN, p.recoveries = p.n, 5
	case wServeStack:
		p.passes = 3
		p.n = int(stackRate * seconds / 3)
		p.shards, p.open, p.kind = 2, true, poissonEq
	}
	p.n = max(p.n, 200)
	p.windows = max(1, p.n/1600)
	return p
}

func serveMapper() *sched.Mapper {
	return &sched.Mapper{Heuristic: sched.LightestLoad{}, Filters: sched.EnergyAndRobustness.Filters()}
}

// engineConfig is the paper's headline policy LL+en+rob in the default grid
// PMF mode with a metrics.Registry attached as ecserve attaches one. The
// budget is ζ_max·n/1000 with Horizon = n, so the energy filter sees the
// paper's per-task pressure over a stream of n requests.
func engineConfig(m *workload.Model, zeta float64, n int, clock server.Clock, reg *metrics.Registry) server.Config {
	return server.Config{
		Model:      m,
		Mapper:     serveMapper(),
		Budget:     zeta * float64(n) / float64(m.Params.WindowSize),
		Clock:      clock,
		Horizon:    n,
		Metrics:    reg,
		Seed:       experiment.PaperSpec().Seed,
		DrainGrace: 60 * time.Second,
	}
}

// liveServer is an engine (or a router over shards) behind its HTTP API on a
// loopback port.
type liveServer struct {
	eng      *server.Engine
	rt       *server.Router
	clk      *server.ManualClock
	reg      *metrics.Registry
	addr     string
	shutdown func(context.Context) error
}

func (s *liveServer) stats() server.Stats {
	if s.rt != nil {
		return s.rt.Stats()
	}
	return s.eng.Stats()
}

// drain finishes the run the way ecserve does on SIGTERM and returns how
// long the engine drain took.
func (s *liveServer) drain() (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	t0 := time.Now()
	var err error
	if s.rt != nil {
		err = s.rt.Drain(ctx)
	} else {
		err = s.eng.Drain(ctx)
	}
	d := time.Since(t0)
	if serr := s.shutdown(ctx); err == nil {
		err = serr
	}
	return d, err
}

// abandon tears a throw-away set-up down.
func (s *liveServer) abandon() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.rt != nil {
		s.rt.Close()
	} else {
		s.eng.Close()
	}
	_ = s.shutdown(ctx)
}

// bootServer is the serving half of set-up: engine(s), listener.
func bootServer(m *workload.Model, zeta float64, plan servePlan, walDir string) (*liveServer, error) {
	s := &liveServer{reg: metrics.NewRegistry()}
	var clock server.Clock
	if !plan.open {
		s.clk = server.NewManualClock()
		clock = s.clk
	}
	cfg := engineConfig(m, zeta, plan.n, clock, s.reg)
	if plan.wal {
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return nil, err
		}
		cfg.WALPath = filepath.Join(walDir, "wal")
		cfg.CheckpointPath = filepath.Join(walDir, "wal.ckpt")
		cfg.CheckpointEvery = 2 * time.Second
	}
	var api *server.Server
	if plan.shards > 0 {
		// Offered load is stackRate per wall second = 1.0·λ_eq per virtual
		// time unit. Each shard's Horizon is n/2 so its fair share of energy
		// per task equals the single engine's (see README, findings).
		cfg.TimeScale = stackRate / m.EquilibriumRate()
		cfg.Horizon = max(1, plan.n/plan.shards)
		rt, err := server.NewSharded(cfg, plan.shards, server.RouterConfig{
			ProbeEvery: 500 * time.Millisecond, RebalanceEvery: 5 * time.Second, Metrics: s.reg})
		if err != nil {
			return nil, err
		}
		if err := rt.Start(); err != nil {
			return nil, err
		}
		s.rt = rt
		api = server.NewRouterServer(rt, false)
	} else {
		eng, err := server.New(cfg)
		if err != nil {
			return nil, err
		}
		s.eng = eng
		api = server.NewServer(eng)
	}
	addr, shutdown, err := api.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.addr, s.shutdown = addr.String(), shutdown
	return s, nil
}

// setupServe is the whole set-up, timed: model build, engine(s) and
// listener start.
func setupServe(plan servePlan, walDir string, tr *tracer) (*workload.Model, float64, *liveServer, float64, error) {
	sp := tr.start("bench.setup", 0, 0)
	defer tr.end(sp)
	t0 := time.Now()
	m, zeta, err := experiment.BuildModelFromSpec(experiment.PaperSpec())
	if err != nil {
		return nil, 0, nil, 0, err
	}
	srv, err := bootServer(m, zeta, plan, walDir)
	if err != nil {
		return nil, 0, nil, 0, err
	}
	return m, zeta, srv, time.Since(t0).Seconds(), nil
}

// dueTimes turns the schedule's virtual gaps into wall offsets at stackRate.
func dueTimes(sch *schedule, m *workload.Model) []int64 {
	due := make([]int64, len(sch.gaps))
	vt := 0.0
	scale := stackRate / m.EquilibriumRate() // virtual units per wall second
	for i, g := range sch.gaps {
		vt += g
		due[i] = int64(vt / scale * float64(time.Second))
	}
	return due
}

// countFailures classifies one leg: transport errors and statuses outside
// {200, 422} are failed operations (422 is the allocator's discard decision
// — ontime_share carries it); so is an open-loop request sent more than
// lateLimitUs after it was due. It also returns the SLO misses, failed
// requests counting as misses.
func countFailures(leg *legResult) (hard, late, sloMiss int64) {
	for i, st := range leg.status {
		bad := st != 200 && st != 422
		tooLate := leg.lateUs != nil && leg.lateUs[i] > lateLimitUs
		switch {
		case bad:
			hard++
		case tooLate:
			late++
		}
		if bad || tooLate || leg.latUs[i] > sloLimitUs {
			sloMiss++
		}
	}
	return hard, late, sloMiss
}

// checkDrained applies the serving invariants after the drain.
func checkDrained(res *result, srv *liveServer, st server.Stats, snap *metrics.Snapshot, budget float64) {
	res.check(st.Balanced(), "stats not balanced after drain: %+v", st)
	res.check(st.InFlight == 0, "%d tasks in flight after drain", st.InFlight)
	res.check(st.EnergyConsumed <= budget*(1+1e-9), "consumed %v exceeds budget %v", st.EnergyConsumed, budget)
	if srv.rt == nil {
		return
	}
	sum := srv.rt.SlackBudget()
	for _, b := range srv.rt.SubBudgets() {
		sum += b
	}
	total := srv.rt.TotalBudget()
	res.check(math.Abs(sum-total) <= 1e-9*total, "Σ sub-budgets + slack = %v, total budget %v", sum, total)
	fo := snap.SumByName("router_failovers_total")
	res.check(fo == 0, "%v router failovers with no shard killed", fo)
}

// servePass is one pass: a timed leg against a fresh server, its drain, and
// the invariants.
type servePass struct {
	leg    *legResult
	stats  server.Stats
	snap   *metrics.Snapshot
	drain  time.Duration
	p50Us  []float64 // per window
	p99Us  []float64
	hard   int64 // failed operations
	late   int64 // open loop: sent too late to count
	sloMis int64
}

func runServePass(res *result, srv *liveServer, plan servePlan, sch *schedule, due []int64, budget float64, tr *tracer, parent int) (*servePass, error) {
	leg, err := httpLeg(srv.addr, sch, due, srv.clk, plan.n, plan.conns, plan.windows, tr, parent)
	if err != nil {
		srv.abandon()
		return nil, err
	}
	p := &servePass{leg: leg}
	if p.drain, err = srv.drain(); err != nil {
		res.fail("drain: %v", err)
	}
	p.stats, p.snap = srv.stats(), srv.reg.Snapshot()
	checkDrained(res, srv, p.stats, p.snap, budget)
	if leg.first != nil {
		res.fail("%d transport error(s), first: %v", leg.errs, leg.first)
	}
	walActivity := p.snap.SumByName("server_wal_records_total") + p.snap.SumByName("server_wal_commits_total")
	if plan.wal {
		res.check(walActivity > 0, "no WAL activity with the WAL armed")
	} else {
		res.check(walActivity == 0, "%v WAL records/commits with the WAL off", walActivity)
	}
	p.hard, p.late, p.sloMis = countFailures(leg)
	res.check(p.hard == 0, "%d request(s) failed (transport error or status outside 200/422)", p.hard)
	p.p50Us = windowPercentiles(leg.latUs, plan.windows, 0.5)
	p.p99Us = windowPercentiles(leg.latUs, plan.windows, 0.99)
	return p, nil
}

// runServe is the untraced run of a serve_* workload.
func runServe(cfg runConfig) (*result, error) {
	res := newResult(cfg.workload, cfg.seed, cfg.seconds, false)
	plan := planServe(cfg.workload, cfg.seconds)
	walDir, _, err := scratchDir(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)
	tr := newTracer(false)

	var (
		sch    *schedule
		due    []int64
		m      *workload.Model
		zeta   float64
		passes []*servePass
		setup  []float64
		rss    peakRSS
	)
	for k := 0; k < plan.passes; k++ {
		settle()
		rss.begin()
		var srv *liveServer
		var secs float64
		m, zeta, srv, secs, err = setupServe(plan, filepath.Join(walDir, fmt.Sprintf("pass-%d", k)), tr)
		if err != nil {
			return nil, err
		}
		setup = append(setup, secs)
		if sch == nil {
			sch = genSchedule(cfg.seed, plan.n, m, plan.kind)
			if plan.open {
				due = dueTimes(sch, m)
			}
		}
		p, err := runServePass(res, srv, plan, sch, due, zeta*float64(plan.n)/float64(m.Params.WindowSize), tr, 0)
		if err != nil {
			return nil, err
		}
		if k > 0 && !plan.open && plan.conns == 1 {
			// One connection on a manual clock: the decision stream is a pure
			// function of the schedule, so every pass must reproduce pass 1.
			res.check(p.leg.digest == passes[0].leg.digest, "pass %d response digest %s != pass 1 %s", k+1, p.leg.digest, passes[0].leg.digest)
			res.check(sameLedger(p.stats, passes[0].stats), "pass %d stats %+v != pass 1 %+v", k+1, p.stats, passes[0].stats)
		}
		passes = append(passes, p)
		rss.end("pass")
	}

	n, total := float64(plan.n), float64(plan.n*plan.passes)
	var wall, cpu, p50, p99 [][]float64
	var hard, late, sloMiss, onTime int64
	for _, p := range passes {
		wall, cpu = append(wall, p.leg.winWallS), append(cpu, p.leg.winCPUS)
		p50, p99 = append(p50, p.p50Us), append(p99, p.p99Us)
		hard, late, sloMiss, onTime = hard+p.hard, late+p.late, sloMiss+p.sloMis, onTime+p.stats.OnTime
	}
	res.Attempted, res.Failed = int64(total), hard
	res.Digest = passes[0].leg.digest
	res.Counts["ontime_tasks"] = passes[0].stats.OnTime
	res.Counts["mapped"] = passes[0].stats.Mapped
	res.Counts["shed"] = passes[0].stats.Shed

	perWindow := plan.n / plan.windows
	if tail := supportedTail(perWindow); tail < 0.99 {
		res.Notes = append(res.Notes, fmt.Sprintf("a window holds %d requests, which support no percentile above p%g: lat_p99_us is indicative only", perWindow, 100*tail))
	}
	res.set("setup_s", median(setup), len(setup))
	if plan.open {
		// Paced: the rate achieved, as a share of the rate offered, times the
		// nominal rate — free of the seeded schedule's own length.
		var ach []float64
		for _, p := range passes {
			ach = append(ach, time.Duration(due[plan.n-1]).Seconds()/p.leg.wall.Seconds())
		}
		res.set("ops_per_s", stackRate*median(ach), plan.passes)
	} else {
		res.set("ops_per_s", n/sum(medianAcross(wall)), plan.passes)
	}
	res.set("lat_p50_us", median(medianAcross(p50)), perWindow)
	res.set("lat_p99_us", median(medianAcross(p99)), perWindow)
	res.set("cpu_us_per_op", sum(medianAcross(cpu))*1e6/n, plan.passes)
	res.set("ontime_share", float64(onTime)/total, int(total))
	res.set("failed_share", float64(hard+late)/total, int(total))
	res.set("slo_miss_share", float64(sloMiss)/total, int(total))
	if plan.wal {
		rec, err := recoveryPhase(res, m, zeta, plan, sch, walDir, &rss, tr, 0)
		if err != nil {
			return nil, err
		}
		res.set("recover_records_per_s", median(rec.recordsPerS), len(rec.recordsPerS))
	}
	peak, reps := rss.mb()
	res.set("peak_rss_mb", peak, reps)
	return res, nil
}

// recoveryResult is what the recovery phase measured.
type recoveryResult struct {
	recordsPerS, seconds []float64
	rssMB                float64
}

// recoveryPhase measures recover.go, the WAL's second reader. A fresh engine
// is fed the first recoverN requests by direct Submit with checkpoints off
// (so every recovery replays the same records), synced, snapshotted and
// closed without draining, as a crash would leave it. Each recovery then
// works on its own copy of the WAL directory: Prepare + RecoverFrom is
// timed; Start + Close follows because Close on a prepared-but-unstarted
// engine blocks forever.
func recoveryPhase(res *result, m *workload.Model, zeta float64, plan servePlan, sch *schedule, walDir string, rss *peakRSS, tr *tracer, parent int) (*recoveryResult, error) {
	src := filepath.Join(walDir, "crash")
	if err := os.MkdirAll(src, 0o755); err != nil {
		return nil, err
	}
	mkcfg := func(dir string, clk server.Clock) server.Config {
		cfg := engineConfig(m, zeta, plan.n, clk, metrics.NewRegistry())
		cfg.WALPath = filepath.Join(dir, "wal")
		cfg.CheckpointPath = filepath.Join(dir, "wal.ckpt")
		return cfg
	}
	clk := server.NewManualClock()
	eng, err := server.New(mkcfg(src, clk))
	if err != nil {
		return nil, err
	}
	n := min(plan.recoverN, len(sch.reqs))
	settle()
	rss.begin()
	leg := directLoop(eng, sch, n, clk, "server.submit", newTracer(false), 0)
	eng.Sync()
	want := eng.Stats()
	eng.Close()
	rss.end("recovery feed")
	if leg.first != nil {
		res.fail("recovery feed: %d Submit error(s), first: %v", leg.errs, leg.first)
	}
	out := &recoveryResult{}
	for k := 0; k < plan.recoveries; k++ {
		settle()
		rss.begin()
		rss0 := procStatusMB("VmRSS")
		dir := filepath.Join(walDir, fmt.Sprintf("recover-%d", k))
		if err := copyDir(src, dir); err != nil {
			return nil, err
		}
		sp := tr.start("server.recover", parent, int64(k))
		t0 := time.Now()
		e, err := server.Prepare(mkcfg(dir, server.NewManualClock()))
		if err != nil {
			return nil, err
		}
		rep, err := e.RecoverFrom()
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("recovery %d: %w", k, err)
		}
		out.rssMB = math.Max(out.rssMB, procStatusMB("VmRSS")-rss0)
		got := e.Stats()
		if err := e.Start(); err != nil {
			return nil, err
		}
		e.Close()
		rss.end("recovery")
		res.check(rep.ReplayedRecords > 0, "recovery %d replayed no records", k)
		res.check(sameLedger(got, want), "recovery %d: recovered stats %+v != pre-close %+v", k, got, want)
		out.seconds = append(out.seconds, d.Seconds())
		out.recordsPerS = append(out.recordsPerS, float64(rep.ReplayedRecords)/d.Seconds())
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sameLedger compares the task ledger, energy and clock of two snapshots —
// everything the WAL makes durable.
func sameLedger(a, b server.Stats) bool {
	return a.Admitted == b.Admitted && a.Mapped == b.Mapped && a.Shed == b.Shed && a.TimedOut == b.TimedOut &&
		a.OnTime == b.OnTime && a.Late == b.Late && a.Failed == b.Failed && a.InFlight == b.InFlight &&
		a.Assigned == b.Assigned &&
		math.Float64bits(a.EnergyConsumed) == math.Float64bits(b.EnergyConsumed) &&
		math.Float64bits(a.VirtualNow) == math.Float64bits(b.VirtualNow)
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func dirBytes(dir, prefix string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil && !ent.IsDir() && strings.HasPrefix(ent.Name(), prefix) {
			total += info.Size()
		}
	}
	return total
}

func histMeanUs(snap *metrics.Snapshot, name string) (float64, int) {
	var sum float64
	var count int64
	for i := range snap.Metrics {
		if mv := &snap.Metrics[i]; mv.Name == name && mv.Hist != nil {
			sum += mv.Hist.Sum
			count += mv.Hist.Count
		}
	}
	return ratio(sum, float64(count)) * 1e6, int(count)
}

// directEngineLeg boots a fresh manual-clock engine (optionally behind a
// one-shard router, optionally with the WAL armed), drives the schedule by
// direct Submit and closes it. A one-shard router is
// bit-identical to the bare engine, so the difference is the router's own
// cost.
func directEngineLeg(m *workload.Model, zeta float64, plan servePlan, sch *schedule, walDir string, viaRouter bool, tr *tracer, parent int) (*legResult, error) {
	clk := server.NewManualClock()
	cfg := engineConfig(m, zeta, plan.n, clk, metrics.NewRegistry())
	if walDir != "" {
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return nil, err
		}
		cfg.WALPath = filepath.Join(walDir, "wal")
		cfg.CheckpointPath = filepath.Join(walDir, "wal.ckpt")
	}
	if viaRouter {
		rt, err := server.NewSharded(cfg, 1, server.RouterConfig{Metrics: cfg.Metrics})
		if err != nil {
			return nil, err
		}
		if err := rt.Start(); err != nil {
			return nil, err
		}
		defer rt.Close()
		return directLoop(rt, sch, plan.n, clk, "server.router_submit", tr, parent), nil
	}
	eng, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	return directLoop(eng, sch, plan.n, clk, "server.submit", tr, parent), nil
}

// untagged strips the tenant tags from a schedule's decoded requests.
func untagged(sch *schedule) *schedule {
	out := *sch
	out.reqs = make([]server.TaskRequest, len(sch.reqs))
	for i, r := range sch.reqs {
		r.Tenant, r.SLO = "", nil
		out.reqs[i] = r
	}
	return &out
}

func p50(xs []float64) float64 { return percentile(sorted(xs), 0.5) }

// runServeTraced is the second run that attributes the time: one pass with
// spans off (the reference for trace.overhead_pct) and the same pass with
// spans on (leg A), then the in-process legs over the same schedule (leg B
// and its variants), recovery, and the kernel loops.
func runServeTraced(cfg runConfig, tr *tracer) (*result, error) {
	res := newResult(cfg.workload, cfg.seed, cfg.seconds, true)
	plan := planServe(cfg.workload, cfg.seconds)
	n := plan.n
	walDir, onTmpfs, err := scratchDir(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)

	off := newTracer(false)
	m, zeta, srv, _, err := setupServe(plan, filepath.Join(walDir, "ref"), off)
	if err != nil {
		return nil, err
	}
	budget := zeta * float64(n) / float64(m.Params.WindowSize)
	sch := genSchedule(cfg.seed, n, m, plan.kind)
	var due []int64
	if plan.open {
		due = dueTimes(sch, m)
	}
	ref, err := runServePass(res, srv, plan, sch, due, budget, off, 0)
	if err != nil {
		return nil, err
	}

	if _, _, srv, _, err = setupServe(plan, filepath.Join(walDir, "a"), tr); err != nil {
		return nil, err
	}
	ops0, mem0 := pmf.ReadOpCounts(), readMem()
	legA := tr.start("bench.leg", 0, 0)
	a, err := runServePass(res, srv, plan, sch, due, budget, tr, legA)
	tr.end(legA)
	if err != nil {
		return nil, err
	}
	mem, ops := memSince(mem0), pmf.ReadOpCounts().Sub(ops0)
	res.check(ref.leg.digest == a.leg.digest, "reference digest %s != traced digest %s", ref.leg.digest, a.leg.digest)
	res.Attempted, res.Failed, res.Digest = int64(n), a.hard, a.leg.digest

	nf := float64(n)
	res.check(ops.Convolutions == 0, "%d sparse convolutions in grid mode", ops.Convolutions)
	res.set("trace.overhead_pct", 100*(a.leg.wall.Seconds()/ref.leg.wall.Seconds()-1), 1)
	schedCounterMetrics(res, a.snap, nf)
	res.set("pmf.gridconv_per_task", float64(ops.GridConvolutions)/nf, n)
	res.set("pmf.sparse_conv_per_task", float64(ops.Convolutions)/nf, n)
	res.set("pmf.fft_share", ratio(float64(ops.FFTConvolutions), float64(ops.GridConvolutions)), int(ops.GridConvolutions))
	runtimeMetrics(res, mem, nf)
	decide, dn := histMeanUs(a.snap, "server_decision_seconds")
	res.set("server.decide_us_mean", decide, dn)
	wait, wn := histMeanUs(a.snap, "server_queue_wait_seconds")
	res.set("server.queue_wait_us_mean", wait, wn)
	res.set("server.shed_share", float64(a.stats.Shed)/nf, n)
	res.set("server.drain_s", a.drain.Seconds(), 1)
	res.set("server.router_failovers", a.snap.SumByName("router_failovers_total"), n)
	res.set("server.decode_ns", decodeKernel(newKernelLoops(cfg.seconds), sch.bodies, m.Params.TaskTypes), min(n, 5000))
	if plan.wal {
		res.set("server.wal_commits_per_decision", a.snap.SumByName("server_wal_commits_total")/nf, n)
		res.set("server.wal_records_per_decision", a.snap.SumByName("server_wal_records_total")/nf, n)
		res.set("server.wal_bytes_per_decision", float64(dirBytes(filepath.Join(walDir, "a"), "wal."))/nf, n)
		res.set("server.checkpoints", a.snap.SumByName("server_checkpoints_total"), 1)
	}

	// Leg B: the same schedule by direct Submit on a manual clock, in the
	// workload's own configuration (WAL armed on serve_wal). The variants
	// differ from it in one thing each; differences are paired window by
	// window.
	legB := tr.start("bench.leg", 0, 1)
	plain := untagged(sch)
	pw := max(plan.windows, 4)
	bare, err := directEngineLeg(m, zeta, plan, plain, "", false, tr, legB)
	if err != nil {
		return nil, err
	}
	b := bare
	if plan.wal {
		if b, err = directEngineLeg(m, zeta, plan, plain, filepath.Join(walDir, "b"), false, tr, legB); err != nil {
			return nil, err
		}
		res.set("server.wal_self_us", pairedWindowDelta(b.latUs, bare.latUs, pw), n)
	}
	res.check(b.first == nil, "leg B: %d Submit error(s), first: %v", b.errs, b.first)
	res.set("server.submit_us_p50", p50(b.latUs), n)
	res.set("server.http_self_us", pairedWindowDelta(a.leg.latUs, b.latUs, pw), n)
	if plan.shards > 0 {
		br, err := directEngineLeg(m, zeta, plan, plain, "", true, tr, legB)
		if err != nil {
			return nil, err
		}
		res.set("server.router_self_us", pairedWindowDelta(br.latUs, bare.latUs, pw), n)
		bt, err := directEngineLeg(m, zeta, plan, sch, "", false, tr, legB)
		if err != nil {
			return nil, err
		}
		res.set("server.tenant_self_us", pairedWindowDelta(bt.latUs, bare.latUs, pw), n)
		la, fd := sorted(a.leg.lateUs), sorted(a.leg.fromDueUs)
		res.set("loadgen.gen_late_p50_us", percentile(la, 0.5), n)
		res.set("loadgen.gen_late_p99_us", percentile(la, 0.99), n)
		res.set("loadgen.lat_from_due_p50_us", percentile(fd, 0.5), n)
		res.set("loadgen.lat_from_due_p99_us", percentile(fd, 0.99), n)
		res.set("loadgen.achieved_over_offered", time.Duration(due[n-1]).Seconds()/a.leg.wall.Seconds(), n)
	}
	tr.end(legB)

	if plan.wal {
		fs, err := probeFsync(walDir, 50)
		if err != nil {
			return nil, err
		}
		res.set("host.fsync_us", fs, 50)
		res.set("host.wal_on_tmpfs", map[bool]float64{true: 1}[onTmpfs], 1)
		short := plan
		short.recoveries = 3
		rec, err := recoveryPhase(res, m, zeta, short, sch, walDir, new(peakRSS), tr, 0)
		if err != nil {
			return nil, err
		}
		res.set("server.recover_s", median(rec.seconds), len(rec.seconds))
		res.set("server.recover_records_per_s", median(rec.recordsPerS), len(rec.recordsPerS))
		res.set("server.recover_rss_mb", rec.rssMB, len(rec.seconds))
	}
	if err := modelLayerMetrics(res, experiment.PaperSpec()); err != nil {
		return nil, err
	}
	if err := kernelMetrics(res, m, cfg); err != nil {
		return nil, err
	}
	return res, nil
}
