// Command ectrace runs one simulation trial with full event recording and
// renders what happened: per-core ASCII timelines (which P-state each core
// ran in and when, deadline misses, the energy-exhaustion instant), the
// DVFS occupancy profile, the in-system backlog peaks, and optional
// JSONL/CSV event-log export for external tooling.
//
// Usage:
//
//	ectrace -heuristic LL -filters en+rob
//	ectrace -heuristic MECT -filters none -window 300 -jsonl events.jsonl
//	ectrace -heuristic LL -faults "mtbf=2000,repair=400,recovery=requeue" -brownout
//
// SIGINT/SIGTERM cancel the run mid-trial; -trial-timeout bounds the
// trial's wall clock.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/randx"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ectrace:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		heuristic = flag.String("heuristic", "LL", "heuristic: SQ, MECT, LL, Random, PLL, GreenLL, MaxRho, MinEEC")
		filters   = flag.String("filters", "en+rob", "filter variant: none, en, rob, en+rob")
		window    = flag.Int("window", 300, "tasks in the trial")
		seed      = flag.Uint64("seed", 0, "experiment seed (0 = paper default)")
		budget    = flag.Float64("budget", 1, "energy budget scale (<=0 = unconstrained)")
		width     = flag.Int("width", 100, "timeline width in characters")
		jsonl     = flag.String("jsonl", "", "write the event log as JSONL to this file")
		csvPath   = flag.String("csv", "", "write the event log as CSV to this file")
		listen    = flag.String("listen", "", "serve /metrics, /metrics.json, /debug/vars, /debug/pprof on this address")
		hold      = flag.Bool("hold", false, "with -listen: block after the run so the endpoints stay up")
		faults    = flag.String("faults", "", "fault-injection spec, key=value list: mtbf, dist=exp|weibull, shape, repair, node-mtbf, recovery=drop|requeue, retries, backoff, deadline-aware")
		brownout  = flag.Bool("brownout", false, "replace the hard energy halt with the staged 90/95/98% brownout schedule")
		exactRho  = flag.Bool("exactrho", false, "run the exact-ρ oracle instead of the production lattice path: per-decision sparse chains and a direct double sum (uncached reference, several times slower; brackets the lattice quantization)")

		trialTimeout = flag.Duration("trial-timeout", 0, "wall-clock limit for the trial (0 = none)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	spec := core.DefaultSpec()
	spec.Trials = 1
	spec.Workload.WindowSize = *window
	spec.Workload.BurstLen = *window / 5
	spec.BudgetScale = *budget
	if *seed != 0 {
		spec.Seed = *seed
	}
	var variant core.FilterVariant
	found := false
	for _, v := range sched.AllFilterVariants() {
		if v.String() == *filters {
			variant, found = v, true
		}
	}
	if !found {
		return fmt.Errorf("unknown filter variant %q", *filters)
	}
	h, err := core.HeuristicByName(*heuristic)
	if err != nil {
		return err
	}

	sys, err := core.NewSystemContext(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Println(sys.Describe())

	rec := trace.NewEventLog()
	reg := metrics.NewRegistry()
	if *listen != "" {
		srv, err := metrics.Serve(*listen, reg.Snapshot)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("serving metrics on http://%s/metrics (pprof under /debug/pprof)\n", srv.Addr)
	}
	cfg := sim.Config{
		Model:        sys.Model(),
		Mapper:       &sched.Mapper{Heuristic: h, Filters: variant.Filters()},
		EnergyBudget: sys.Budget(),
		Observer:     sim.Multi(rec),
		Metrics:      reg,
		ExactRho:     *exactRho,
	}
	if *faults != "" {
		if cfg.Faults, err = core.ParseFaultSpec(*faults); err != nil {
			return err
		}
	}
	if *brownout {
		cfg.Brownout = core.DefaultBrownoutStages()
	}
	runCtx := ctx
	if *trialTimeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, *trialTimeout)
		defer cancel()
	}
	res, err := sim.RunContext(runCtx, cfg, sys.Env().Trial(0), randx.NewStream(spec.Seed).ChildN("decisions", 0))
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "interrupted; partial event log discarded")
		} else if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "trial exceeded -trial-timeout %v\n", *trialTimeout)
		}
		return err
	}
	fmt.Printf("\n%s\n", res)
	fmt.Println(rec.Summary())

	fmt.Println("core timelines:")
	fmt.Println(rec.Timeline(*width))

	occ := rec.PStateOccupancy()
	total := 0.0
	for _, v := range occ {
		total += v
	}
	fmt.Println("DVFS occupancy (execution core-time share per P-state):")
	for _, ps := range cluster.AllPStates() {
		share := 0.0
		if total > 0 {
			share = 100 * occ[ps] / total
		}
		fmt.Printf("  %v: %6.2f%%  (%.0f core-tu)\n", ps, share, occ[ps])
	}

	times, counts := rec.InSystemSeries()
	peak, peakT := 0, 0.0
	for i, c := range counts {
		if c > peak {
			peak, peakT = c, times[i]
		}
	}
	fmt.Printf("\npeak backlog: %d tasks in system at t=%.0f\n", peak, peakT)

	if eT, eE := rec.EnergySeries(); len(eT) > 0 {
		fmt.Printf("energy trajectory: %d samples, t=[%.0f, %.0f], consumed %.4g -> %.4g\n",
			len(eT), eT[0], eT[len(eT)-1], eE[0], eE[len(eE)-1])
	}
	snap := reg.Snapshot()
	if conv, ok := snap.Value("sched_candidates_total"); ok {
		hits := snap.SumByName("robustness_freetime_cache_hits_total")
		misses := snap.SumByName("robustness_freetime_cache_misses_total")
		ratio := 0.0
		if hits+misses > 0 {
			ratio = 100 * hits / (hits + misses)
		}
		fmt.Printf("metrics: %.0f candidates enumerated, free-time cache %.1f%% hit ratio, %.0f events processed\n",
			conv, ratio, snap.SumByName("sim_events_total"))
	}

	if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.WriteJSON(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d events)\n", *jsonl, rec.Len())
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
	if *hold && *listen != "" {
		fmt.Println("holding; interrupt to exit")
		<-ctx.Done()
		fmt.Fprintln(os.Stderr)
	}
	return nil
}
