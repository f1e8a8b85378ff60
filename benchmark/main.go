// Command benchmark is the repo's yardstick: five named workloads (two
// offline, three serving), each run in its own process, untraced for the
// end-to-end metrics and traced for per-layer attribution. See README.md.
//
// Usage (through run.sh, which builds first):
//
//	benchmark/run.sh [-seed S] [-workload NAME] [-out DIR]   # every workload, both runs
//	benchmark/run.sh -workload NAME -seed S -seconds T -trace 0|1   # one run
//	benchmark/run.sh -compare a1.json[,a2.json…] b1.json[,b2.json…]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the reference length of
// the timed phase, which fixes the input sizes.
const defaultSeconds = 10

func main() {
	var (
		workloadF = flag.String("workload", "", "run one workload in this process: "+strings.Join(allWorkloads, ", ")+" (empty = all, one child process per run)")
		seed      = flag.Uint64("seed", 1, "seed of the generated inputs (trial and request streams); the model instance is fixed")
		seconds   = flag.Float64("seconds", defaultSeconds, "reference length of the timed phase; input sizes scale with it")
		trace     = flag.String("trace", "", "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics); empty = both")
		out       = flag.String("out", filepath.Join("benchmark", "out"), "directory for result.json, trace_<workload>.json and WAL scratch files")
		walDir    = flag.String("waldir", "", "directory for WAL and checkpoint scratch files (default: the -out directory, so a run writes only inside its checkout; a tmpfs such as /dev/shm takes the disk's fsync out of serve_wal)")
		compare   = flag.Bool("compare", false, "compare two sets of result files: -compare a1.json[,a2.json…] b1.json[,b2.json…]")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two comma-separated lists of result files"))
		}
		ok, err := compareFiles(os.Stdout, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ","))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds %v must be positive", *seconds))
	}
	if *workloadF != "" && *trace != "" {
		if *trace != "0" && *trace != "1" {
			fatal(fmt.Errorf("-trace %q: want 0 or 1", *trace))
		}
		cfg := runConfig{workload: *workloadF, seed: *seed, seconds: *seconds, traced: *trace == "1", outDir: *out, walRoot: *walDir, setups: 5}
		if procsFor(cfg.workload) == 1 {
			// Before anything else starts threads of its own.
			if cpu, err := pinProcess(); err != nil {
				cfg.notes = append(cfg.notes, "not pinned to one CPU: "+err.Error())
			} else {
				cfg.notes = append(cfg.notes, fmt.Sprintf("pinned to CPU %d", cpu))
			}
		}
		res, err := runOne(cfg)
		if err != nil {
			fatal(err)
		}
		res.printTable(os.Stdout)
		if err := writeJSON(filepath.Join(*out, runFileName(cfg.workload, cfg.traced)), res); err != nil {
			fatal(err)
		}
		fmt.Println(res.driverLine())
		if !res.Correct {
			os.Exit(1)
		}
		return
	}
	names := allWorkloads
	if *workloadF != "" {
		names = []string{*workloadF}
	}
	ok, err := runAll(names, *seed, *seconds, *trace, *out, *walDir)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func runFileName(workload string, traced bool) string {
	if traced {
		return "run_" + workload + "_traced.json"
	}
	return "run_" + workload + ".json"
}

// runOne executes one run in this process under the ground rules.
func runOne(cfg runConfig) (*result, error) {
	known := false
	for _, w := range allWorkloads {
		known = known || w == cfg.workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(allWorkloads, ", "))
	}
	runtime.GOMAXPROCS(procsFor(cfg.workload))
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tr := newTracer(cfg.traced)
	var res *result
	var err error
	switch {
	case cfg.workload == wSimRho || cfg.workload == wSimFloor:
		if cfg.traced {
			res, err = runSimTraced(cfg, tr)
		} else {
			res, err = runSim(cfg)
		}
	case cfg.traced:
		res, err = runServeTraced(cfg, tr)
	default:
		res, err = runServe(cfg)
	}
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		res.set("trace.spans", float64(tr.count()), tr.count())
		if werr := tr.write(filepath.Join(cfg.outDir, "trace_"+cfg.workload+".json"), cfg.workload, cfg.seed); werr != nil {
			return nil, werr
		}
	}
	res.Notes = append(res.Notes, cfg.notes...)
	res.finish()
	return res, nil
}

// resultFile is benchmark/out/result.json.
type resultFile struct {
	Commit  string    `json:"commit,omitempty"`
	Started time.Time `json:"started"`
	Seed    uint64    `json:"seed"`
	Seconds float64   `json:"seconds"`
	Nproc   int       `json:"nproc"`
	Runs    []*result `json:"runs"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll is the one command: each workload untraced then traced, each run in
// its own child process, one table per run, results gathered into
// result.json. It reports whether every run was correct.
func runAll(names []string, seed uint64, seconds float64, trace, outDir, walDir string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	modes := []string{"0", "1"}
	if trace != "" {
		modes = []string{trace}
	}
	rf := resultFile{Commit: vcsRevision(), Started: time.Now().UTC(), Seed: seed, Seconds: seconds, Nproc: runtime.NumCPU()}
	ok := true
	for _, w := range names {
		var untraced *result
		for _, mode := range modes {
			cmd := exec.Command(self,
				"-workload", w, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", mode, "-out", outDir, "-waldir", walDir)
			cmd.Stderr = os.Stderr
			outBytes, runErr := cmd.Output()
			lines := strings.Split(strings.TrimRight(string(outBytes), "\n"), "\n")
			// The child's last line is the driver's JSON object; the table
			// above it is what a person reads.
			if n := len(lines); n > 1 {
				fmt.Println(strings.Join(lines[:n-1], "\n"))
			}
			var exitErr *exec.ExitError
			if runErr != nil && !errors.As(runErr, &exitErr) {
				return false, fmt.Errorf("%s: %w", w, runErr)
			}
			b, rerr := os.ReadFile(filepath.Join(outDir, runFileName(w, mode == "1")))
			if rerr != nil || (exitErr != nil && exitErr.ExitCode() != 1) {
				return false, fmt.Errorf("%s (trace %s) produced no result: %v", w, mode, runErr)
			}
			res := new(result)
			if err := json.Unmarshal(b, res); err != nil {
				return false, err
			}
			if mode == "0" {
				untraced = res
			} else if untraced != nil && untraced.Digest != "" && res.Digest != untraced.Digest {
				// The traced run replays one pass of the same schedule
				// against the same configuration; its responses must be the
				// untraced run's.
				res.Correct = false
				res.Failures = append(res.Failures, fmt.Sprintf("traced digest %s != untraced digest %s", res.Digest, untraced.Digest))
				fmt.Printf("  FAIL: %s\n", res.Failures[len(res.Failures)-1])
			}
			ok = ok && res.Correct
			rf.Runs = append(rf.Runs, res)
		}
	}
	path := filepath.Join(outDir, "result.json")
	if err := writeJSON(path, rf); err != nil {
		return false, err
	}
	fmt.Printf("wrote %s (%d runs, all correct: %v)\n", path, len(rf.Runs), ok)
	return ok, nil
}

func vcsRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}
