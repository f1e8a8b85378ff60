// Command ecserve runs the online allocation service: the paper's
// immediate-mode mapper behind an HTTP/JSON API, with bounded admission,
// deadline-aware load shedding, per-node circuit breakers, energy-budget
// brownout, and graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	ecserve -addr :9090                              # serve the API
//	ecserve -addr :9090 -listen :8080                # + Prometheus/pprof
//	ecserve -heuristic LL -filters en+rob -budget 1  # paper policy, ζ_max
//	ecserve -faults "mtbf=4000,repair=300,recovery=requeue,retries=2,backoff=60,deadline-aware" -rel
//	ecserve -brownout -budget 1                      # staged degradation + admission shedding
//	ecserve -scale 5000 -queue 512 -timeout 2s       # virtual time at 5000 units/s
//
// Submit a task:
//
//	curl -s -X POST localhost:9090/v1/tasks -d '{"type": 7}'
//
// On SIGINT/SIGTERM the server stops admitting (503), decides everything
// already queued, fast-forwards in-flight work to completion, prints the
// drain report (optionally -report JSON), and exits 0 only if no task was
// orphaned.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ecserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", ":9090", "HTTP address for the allocation API")
		listen     = flag.String("listen", "", "serve /metrics, /metrics.json, /debug/vars, /debug/pprof on this address")
		heuristic  = flag.String("heuristic", "LL", "heuristic: SQ, MECT, LL, Random, PLL, GreenLL, MaxRho, MinEEC")
		filters    = flag.String("filters", "en+rob", "filter variant: none, en, rob, en+rob")
		rel        = flag.Bool("rel", false, "append the availability-aware reliability filter to the chain")
		seed       = flag.Uint64("seed", 0, "instance seed (0 = paper default); shared with ecsim/ecload")
		budget     = flag.Float64("budget", 1, "energy budget scale of ζ_max (<=0 = unconstrained)")
		scale      = flag.Float64("scale", 1000, "virtual time units per wall second")
		queueCap   = flag.Int("queue", 256, "admission queue bound; beyond it requests get 429 + Retry-After")
		reqTimeout = flag.Duration("timeout", 5*time.Second, "per-request admission timeout (504 past it)")
		horizon    = flag.Int("horizon", 0, "energy fair-share horizon in tasks (0 = model window)")
		faults     = flag.String("faults", "", "fault-injection spec, key=value list: mtbf, dist=exp|weibull, shape, repair, node-mtbf, recovery=drop|requeue, retries, backoff, deadline-aware")
		brownout   = flag.Bool("brownout", false, "staged 90/95/98% brownout; the deepest stage also sheds admissions")
		grace      = flag.Duration("drain-grace", 10*time.Second, "wall-clock bound on the shutdown drain")
		report     = flag.String("report", "", "write the final drain report JSON to this file ('-' = stdout)")
		flight     = flag.String("flight", "", "record a per-task flight trace (decision audit + predictions + outcomes) to this file; calibrate with ecreplay -calibrate")
		walBase    = flag.String("wal", "", "write-ahead admission log base path (files are <wal>.<incarnation>); enables durable serving")
		ckptPath   = flag.String("checkpoint", "", "engine checkpoint path (default <wal>.ckpt when -wal is set)")
		ckptEvery  = flag.Duration("checkpoint-every", 5*time.Second, "wall-clock period between automatic checkpoints")
		doRecover  = flag.Bool("recover", false, "recover from the checkpoint + WAL before serving (requires -wal)")
		drainNow   = flag.Bool("drain-now", false, "with -recover: recover, drain deterministically without serving, print the report, exit")
		tenantSpec = flag.String("tenants", "", "tenant-spec JSON file: arm multi-tenant admission control (per-tenant token buckets, queue shares, SLO-weighted shedding, abuse quarantine) from the same file ecload generates traffic from")
		shards     = flag.Int("shards", 0, "split serving into N engine shards behind the router tier (0 = classic single-engine path; 1 = one-shard router, bit-identical to 0 on the same seed)")
		placement  = flag.String("placement", "round-robin", "shard placement policy: round-robin, least-loaded, robustness")
		chaos      = flag.Bool("chaos", false, "with -shards: expose POST /v1/chaos/kill?shard=N, the shard kill switch for chaos testing")
		probeEvery = flag.Duration("probe-every", 500*time.Millisecond, "with -shards: shard health-probe period (0 disables the prober)")
		rebalEvery = flag.Duration("rebalance-every", 5*time.Second, "with -shards: energy sub-budget rebalance period (0 disables; death-time reclamation always runs)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	spec := core.DefaultSpec()
	spec.BudgetScale = *budget
	if *seed != 0 {
		spec.Seed = *seed
	}
	model, zeta, err := core.BuildServeModel(spec)
	if err != nil {
		return err
	}

	h, err := core.HeuristicByName(*heuristic)
	if err != nil {
		return err
	}
	variant, err := parseVariant(*filters)
	if err != nil {
		return err
	}
	fl := variant.Filters()
	tag := variant.String()
	if *rel {
		fl = append(fl, sched.ReliabilityFilter{})
		tag += "+rel"
	}

	var fspec core.FaultSpec
	if *faults != "" {
		if fspec, err = core.ParseFaultSpec(*faults); err != nil {
			return err
		}
	}
	var stages []energy.BrownoutStage
	if *brownout {
		stages = energy.DefaultServeBrownoutStages()
	}

	reg := metrics.NewRegistry()
	mapper := &sched.Mapper{Heuristic: h, Filters: fl}
	var fliRec *trace.File
	var fli *trace.Flight
	if *flight != "" && *shards == 0 {
		// The recorder's counters live in the server registry on purpose:
		// rows/drops/flushes are part of this process's observability. Serve
		// traces feed the calibration stage, not the bit-identity replay
		// gate, so recorder-counter skew is harmless here.
		if fliRec, err = trace.NewFile(*flight, reg); err != nil {
			return err
		}
		zenc := zeta
		if math.IsInf(zenc, 1) {
			zenc = -1
		}
		fli = trace.NewFlight(model, trace.Header{
			Kind:      trace.KindServe,
			ModelHash: model.Hash(),
			Seed:      spec.Seed,
			Policy:    mapper.Name(),
			Budget:    zenc,
		}, fliRec)
	}
	var obs sim.Observer
	if fli != nil {
		obs = fli
	}
	cfg := server.Config{
		Model:          model,
		Mapper:         mapper,
		Budget:         zeta,
		Observer:       obs,
		TimeScale:      *scale,
		QueueCap:       *queueCap,
		RequestTimeout: *reqTimeout,
		Horizon:        *horizon,
		Faults:         fspec,
		Brownout:       stages,
		Metrics:        reg,
		Seed:           spec.Seed,
		DrainGrace:     *grace,
	}
	if *drainNow && !*doRecover {
		return fmt.Errorf("-drain-now requires -recover")
	}
	if *doRecover && *walBase == "" {
		return fmt.Errorf("-recover requires -wal")
	}
	if *walBase != "" {
		cfg.WALPath = *walBase
		cfg.CheckpointPath = *ckptPath
		if cfg.CheckpointPath == "" {
			cfg.CheckpointPath = *walBase + ".ckpt"
		}
		cfg.CheckpointEvery = *ckptEvery
	}
	if *tenantSpec != "" {
		data, rerr := os.ReadFile(*tenantSpec)
		if rerr != nil {
			return rerr
		}
		tsp, terr := workload.ParseTenantSpec(data)
		if terr != nil {
			return terr
		}
		cfg.Tenants = &server.TenantConfig{Quotas: server.QuotasFromSpec(tsp, model.EquilibriumRate())}
	}
	if len(fspec.ShardKills) > 0 && *shards == 0 {
		return fmt.Errorf("faults: shard-kill requires -shards")
	}
	if *chaos && *shards == 0 {
		return fmt.Errorf("-chaos requires -shards")
	}

	if *shards > 0 {
		return runSharded(ctx, shardedRun{
			cfg:        cfg,
			n:          *shards,
			placement:  *placement,
			chaos:      *chaos,
			probeEvery: *probeEvery,
			rebalEvery: *rebalEvery,
			addr:       *addr,
			listen:     *listen,
			flight:     *flight,
			report:     *report,
			doRecover:  *doRecover,
			drainNow:   *drainNow,
			grace:      *grace,
			reg:        reg,
			zeta:       zeta,
			scale:      *scale,
			heuristic:  *heuristic,
			tag:        tag,
			faults:     *faults,
			walBase:    *walBase,
			ckptEvery:  *ckptEvery,
		})
	}

	// Boot order under recovery: Prepare (engine exists, reports itself
	// recovering), bind the API (readyz answers 503 "recovering"), replay
	// the log, then Start. A client probing readyz sees the truth the whole
	// way through.
	eng, err := server.Prepare(cfg)
	if err != nil {
		return err
	}

	if *drainNow {
		// Deterministic offline recovery: replay, drain inline with no live
		// clock or listener in the path, report, exit. Running this twice on
		// the same WAL + checkpoint must produce bit-identical reports.
		rrep, rerr := eng.RecoverFrom()
		if rerr != nil {
			return rerr
		}
		printRecovery(rrep)
		if derr := eng.DrainNow(); derr != nil {
			fmt.Fprintln(os.Stderr, "ecserve:", derr)
		}
		return finish(eng, fli, fliRec, reg, *flight, *report)
	}

	api := server.NewServer(eng)
	apiAddr, shutdownAPI, err := api.ListenAndServe(*addr)
	if err != nil {
		return err
	}
	if *doRecover {
		rrep, rerr := eng.RecoverFrom()
		if rerr != nil {
			return rerr
		}
		printRecovery(rrep)
	}
	if err := eng.Start(); err != nil {
		return err
	}
	fmt.Printf("ecserve: %s+%s on http://%s/v1/tasks (seed %d, scale %gx", *heuristic, tag, apiAddr, spec.Seed, *scale)
	if !math.IsInf(zeta, 1) {
		fmt.Printf(", ζ_max %.4g", zeta)
	}
	fmt.Println(")")
	if win := eng.IdleEnergyWindow(); !math.IsInf(win, 1) {
		// The budget drains from idle draw alone, exactly like the paper's
		// fixed-window trials: this service has a finite lifetime. Say so up
		// front instead of surprising the operator with 503s.
		fmt.Printf("ecserve: energy window ≤ %.0f vt (~%.0fs wall at this scale); then the cluster halts\n",
			win, win / *scale)
	}
	if *faults != "" {
		fmt.Printf("ecserve: fault injection live: %s\n", *faults)
	}
	if *walBase != "" {
		fmt.Printf("ecserve: durable: wal %s.* checkpoint %s every %s\n", *walBase, cfg.CheckpointPath, *ckptEvery)
	}
	if cfg.Tenants != nil {
		fmt.Printf("ecserve: multi-tenant admission control armed for %d tenant(s)\n", len(cfg.Tenants.Quotas))
	}

	if *listen != "" {
		msrv, merr := metrics.Serve(*listen, reg.Snapshot)
		if merr != nil {
			return merr
		}
		defer msrv.Close()
		fmt.Printf("ecserve: metrics on http://%s/metrics (pprof under /debug/pprof)\n", msrv.Addr)
	}

	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "\necserve: draining (new requests get 503)...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *grace+5*time.Second)
	defer cancel()
	// Drain and HTTP shutdown run concurrently: the drain answers the
	// Submit calls blocked inside in-flight handlers, which lets Shutdown's
	// wait complete.
	drainErr := make(chan error, 1)
	go func() { drainErr <- eng.Drain(drainCtx) }()
	_ = shutdownAPI(drainCtx)
	if derr := <-drainErr; derr != nil {
		fmt.Fprintln(os.Stderr, "ecserve:", derr)
	}

	return finish(eng, fli, fliRec, reg, *flight, *report)
}

// shardedRun carries the flag surface into the router-tier serving path.
type shardedRun struct {
	cfg                    server.Config
	n                      int
	placement              string
	chaos                  bool
	probeEvery, rebalEvery time.Duration
	addr, listen           string
	flight, report         string
	doRecover, drainNow    bool
	grace                  time.Duration
	reg                    *metrics.Registry
	zeta, scale            float64
	heuristic, tag, faults string
	walBase                string
	ckptEvery              time.Duration
}

// runSharded serves through the router tier: N engine shards with disjoint
// node slices, energy sub-budgets carved from ζ_max, per-shard WAL
// incarnations (<wal>.s<i>), and — with -flight — per-shard flight traces
// (<flight>.s<i>; the plain path at -shards 1, so the one-shard router run
// is file-for-file comparable to the single-engine path).
func runSharded(ctx context.Context, o shardedRun) error {
	place, err := server.PlacementByName(o.placement)
	if err != nil {
		return err
	}
	flights := make([]*trace.Flight, o.n)
	fliRecs := make([]*trace.File, o.n)
	fliPaths := make([]string, o.n)
	var shapeErr error
	rcfg := server.RouterConfig{
		Placement:      place,
		ProbeEvery:     o.probeEvery,
		RebalanceEvery: o.rebalEvery,
		Metrics:        o.reg,
		Shape: func(id int, cfg *server.Config) {
			if o.flight == "" || shapeErr != nil {
				return
			}
			path := o.flight
			if o.n > 1 {
				path = fmt.Sprintf("%s.s%d", o.flight, id)
			}
			rec, ferr := trace.NewFile(path, o.reg)
			if ferr != nil {
				shapeErr = ferr
				return
			}
			zenc := cfg.Budget
			if zenc == 0 || math.IsInf(zenc, 1) {
				zenc = -1
			}
			fl := trace.NewFlight(cfg.Model, trace.Header{
				Kind:      trace.KindServe,
				ModelHash: cfg.Model.Hash(),
				Seed:      cfg.Seed,
				Policy:    cfg.Mapper.Name(),
				Budget:    zenc,
			}, rec)
			cfg.Observer = fl
			flights[id], fliRecs[id], fliPaths[id] = fl, rec, path
		},
	}
	rt, err := server.NewSharded(o.cfg, o.n, rcfg)
	if err != nil {
		return err
	}
	if shapeErr != nil {
		return shapeErr
	}

	if o.drainNow {
		// Deterministic offline recovery across every shard, then the
		// shared-clock orchestrated drain. Running this twice on the same
		// WAL set must produce bit-identical per-shard traces and reports.
		reps, rerr := rt.RecoverAll()
		for _, r := range reps {
			printRecovery(r)
		}
		if rerr != nil {
			return rerr
		}
		if derr := rt.DrainAllNow(); derr != nil {
			fmt.Fprintln(os.Stderr, "ecserve:", derr)
		}
		return finishRouter(rt, flights, fliRecs, fliPaths, o.reg, o.report)
	}

	api := server.NewRouterServer(rt, o.chaos)
	apiAddr, shutdownAPI, err := api.ListenAndServe(o.addr)
	if err != nil {
		return err
	}
	if o.doRecover {
		reps, rerr := rt.RecoverAll()
		for _, r := range reps {
			printRecovery(r)
		}
		if rerr != nil {
			return rerr
		}
	}
	if err := rt.Start(); err != nil {
		return err
	}
	fmt.Printf("ecserve: %s+%s on http://%s/v1/tasks (seed %d, scale %gx, %d shard(s), placement %s",
		o.heuristic, o.tag, apiAddr, o.cfg.Seed, o.scale, o.n, rt.Placement())
	if !math.IsInf(o.zeta, 1) {
		fmt.Printf(", ζ_max %.4g", o.zeta)
	}
	fmt.Println(")")
	for _, st := range rt.ShardStatuses() {
		line := fmt.Sprintf("ecserve: shard %d: nodes %v (%d cores)", st.ID, st.Nodes, st.Cores)
		if st.Budget > 0 {
			line += fmt.Sprintf(", sub-budget %.4g", st.Budget)
		}
		fmt.Println(line)
	}
	if o.faults != "" {
		fmt.Printf("ecserve: fault injection live: %s\n", o.faults)
	}
	if o.walBase != "" {
		fmt.Printf("ecserve: durable: per-shard wal %s.s<i>.* checkpoints every %s\n", o.walBase, o.ckptEvery)
	}
	if o.chaos {
		fmt.Printf("ecserve: chaos kill switch armed: POST http://%s/v1/chaos/kill?shard=N\n", apiAddr)
	}

	if o.listen != "" {
		msrv, merr := metrics.Serve(o.listen, o.reg.Snapshot)
		if merr != nil {
			return merr
		}
		defer msrv.Close()
		fmt.Printf("ecserve: metrics on http://%s/metrics (pprof under /debug/pprof)\n", msrv.Addr)
	}

	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "\necserve: draining (new requests get 503)...")
	drainCtx, cancel := context.WithTimeout(context.Background(), o.grace+5*time.Second)
	defer cancel()
	drainErr := make(chan error, 1)
	go func() { drainErr <- rt.Drain(drainCtx) }()
	_ = shutdownAPI(drainCtx)
	if derr := <-drainErr; derr != nil {
		fmt.Fprintln(os.Stderr, "ecserve:", derr)
	}
	return finishRouter(rt, flights, fliRecs, fliPaths, o.reg, o.report)
}

// finishRouter prints the aggregated drain report, flushes every per-shard
// flight trace with that shard's own summary, writes the report file, and
// turns any orphaned task into a non-zero exit.
func finishRouter(rt *server.Router, flights []*trace.Flight, recs []*trace.File, paths []string, reg *metrics.Registry, reportPath string) error {
	rep := rt.FinalReport()
	fmt.Print(rep.Render())
	for i, sh := range rt.Shards() {
		if flights[i] == nil {
			continue
		}
		st := sh.Engine().Stats()
		flights[i].Finish(trace.Summary{
			Window:         int(st.Admitted),
			OnTime:         int(st.OnTime),
			Late:           int(st.Late),
			Mapped:         int(st.Mapped),
			EnergyConsumed: st.EnergyConsumed,
			Makespan:       st.VirtualNow,
			Faults:         int(st.Faults),
			Retries:        int(st.Retries),
			LostToFailure:  int(st.Failed),
			BrownoutStage:  st.BrownoutStage,
		}, reg.Snapshot())
		if err := recs[i].Close(); err != nil {
			return err
		}
		fmt.Printf("ecserve: flight trace written to %s\n", paths[i])
	}
	if reportPath != "" {
		if err := writeReport(rep, reportPath); err != nil {
			return err
		}
	}
	if rep.Orphaned != 0 || !rep.Balanced {
		return fmt.Errorf("drain left %d orphaned task(s) (balanced=%v)", rep.Orphaned, rep.Balanced)
	}
	return nil
}

// finish prints the drain report, flushes the flight trace, writes the
// report file, and turns any orphaned task into a non-zero exit.
func finish(eng *server.Engine, fli *trace.Flight, fliRec *trace.File, reg *metrics.Registry, flightPath, reportPath string) error {
	rep := eng.FinalReport()
	fmt.Print(rep.Render())
	if fli != nil {
		st := rep.Stats
		fli.Finish(trace.Summary{
			Window:         int(st.Admitted),
			OnTime:         int(st.OnTime),
			Late:           int(st.Late),
			Mapped:         int(st.Mapped),
			EnergyConsumed: st.EnergyConsumed,
			Makespan:       st.VirtualNow,
			Faults:         int(st.Faults),
			Retries:        int(st.Retries),
			LostToFailure:  int(st.Failed),
			BrownoutStage:  st.BrownoutStage,
		}, reg.Snapshot())
		if err := fliRec.Close(); err != nil {
			return err
		}
		fmt.Printf("ecserve: flight trace written to %s\n", flightPath)
	}
	if reportPath != "" {
		if err := writeReport(rep, reportPath); err != nil {
			return err
		}
	}
	if rep.Orphaned != 0 || !rep.Balanced {
		return fmt.Errorf("drain left %d orphaned task(s) (balanced=%v)", rep.Orphaned, rep.Balanced)
	}
	return nil
}

// printRecovery narrates one RecoverFrom pass on stderr.
func printRecovery(r *server.RecoveryReport) {
	src := "genesis WAL"
	if r.FromCheckpoint {
		src = fmt.Sprintf("checkpoint (%d records) + WAL suffix", r.CheckpointRecords)
	}
	fmt.Fprintf(os.Stderr, "ecserve: recovered from %s: replayed %d, re-decided %d, danglers %d, vt %.1f, incarnation %d\n",
		src, r.ReplayedRecords, r.ReDecided, r.Danglers, r.VirtualNow, r.Incarnation)
	if r.TornTail {
		fmt.Fprintf(os.Stderr, "ecserve: torn WAL tail dropped at byte offset %d\n", r.TornOffset)
	}
}

func writeReport(rep *server.FinalReport, path string) error {
	data, err := rep.JSON()
	if err != nil {
		return err
	}
	if path == "-" {
		fmt.Println(string(data))
		return nil
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func parseVariant(s string) (core.FilterVariant, error) {
	for _, v := range sched.AllFilterVariants() {
		if v.String() == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown filter variant %q (none, en, rob, en+rob)", s)
}
