package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workers is P of the ground rules: the process never runs more than this
// many worker goroutines, connections or Ps.
func workers() int { return min(runtime.NumCPU(), 2) }

// procsFor is a workload's GOMAXPROCS. The sim_* workloads run P trial
// workers side by side. The serve_* workloads run on one P: generator and
// server share the process, so with two Ps every request hands goroutines
// from one vCPU to the other, and what that costs depends on where the host
// has put the vCPUs, not on the program (see README, host caveats).
func procsFor(workload string) int {
	if workload == wSimRho || workload == wSimFloor {
		return workers()
	}
	return 1
}

// cpuTime is the process's user+sys CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// procStatusMB reads a kB field (VmHWM, VmRSS) of /proc/self/status in MB;
// 0 where /proc is missing.
func procStatusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field+":") {
			continue
		}
		parts := strings.Fields(line[len(field)+1:])
		if len(parts) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// peakRSS measures peak resident memory phase by phase. A serve_* run
// repeats each of its phases (a pass, a recovery) several times, and how
// high one repetition pushes VmHWM depends on where the collector's cycles
// happen to fall in it (41–55 MB for the same recovery): the maximum over
// the whole run, which VmHWM at exit is, keeps the unluckiest. So every
// repetition starts VmHWM afresh (writing "5" to /proc/self/clear_refs),
// and the run's peak is the largest phase's median over its repetitions.
// Where the kernel will not restart VmHWM it is VmHWM at exit.
type peakRSS struct {
	unsupported bool
	order       []string
	byPhase     map[string][]float64
}

// begin starts a repetition of a phase.
func (p *peakRSS) begin() {
	if os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) != nil {
		p.unsupported = true
	}
}

// end records the peak since begin.
func (p *peakRSS) end(phase string) {
	if p.byPhase == nil {
		p.byPhase = map[string][]float64{}
	}
	if _, seen := p.byPhase[phase]; !seen {
		p.order = append(p.order, phase)
	}
	p.byPhase[phase] = append(p.byPhase[phase], procStatusMB("VmHWM"))
}

// mb is the run's peak and the number of repetitions behind it.
func (p *peakRSS) mb() (float64, int) {
	if p.unsupported || len(p.order) == 0 {
		return procStatusMB("VmHWM"), 1
	}
	peak, n := 0.0, 0
	for _, phase := range p.order {
		if m := median(p.byPhase[phase]); m > peak {
			peak, n = m, len(p.byPhase[phase])
		}
	}
	return peak, n
}

// scratchDir creates the directory WAL files go to: by default inside the
// output directory, so the run reads and writes only under its checkout.
// onTmpfs reports whether it landed on a memory filesystem — then serve_wal
// measures the commit software path alone; otherwise its numbers include
// the disk's fsync.
func scratchDir(cfg runConfig) (dir string, onTmpfs bool, err error) {
	root := cfg.walRoot
	if root == "" {
		root = cfg.outDir
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", false, err
	}
	dir, err = os.MkdirTemp(root, "wal-")
	if err != nil {
		return "", false, err
	}
	var st syscall.Statfs_t
	if serr := syscall.Statfs(dir, &st); serr == nil {
		const tmpfsMagic, ramfsMagic = 0x01021994, 0x858458f6
		onTmpfs = int64(st.Type) == tmpfsMagic || int64(st.Type) == ramfsMagic
	}
	return dir, onTmpfs, nil
}

// probeTimerOvershoot is how late time.Sleep(50µs) returns on this host
// (median over n sleeps, µs): the floor under any open-loop generator's
// send-time error.
func probeTimerOvershoot(n int) float64 {
	const ask = 50 * time.Microsecond
	over := make([]float64, n)
	for i := range over {
		t0 := time.Now()
		time.Sleep(ask)
		over[i] = float64(time.Since(t0)-ask) / float64(time.Microsecond)
	}
	return median(over)
}

// probeFsync is the median cost (µs) of a 64-byte append + File.Sync in dir.
func probeFsync(dir string, n int) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync.probe"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 64)
	cost := make([]float64, n)
	for i := range cost {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, fmt.Errorf("fsync probe: %w", err)
		}
		cost[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	return median(cost), nil
}

// memDelta is the runtime.MemStats movement over a phase.
type memDelta struct {
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPause             time.Duration
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	now := readMem()
	return memDelta{
		allocBytes: now.TotalAlloc - before.TotalAlloc,
		mallocs:    now.Mallocs - before.Mallocs,
		gcCycles:   now.NumGC - before.NumGC,
		gcPause:    time.Duration(now.PauseTotalNs - before.PauseTotalNs),
	}
}

// settle collects the garbage of the phase that just ended and returns the
// freed pages, so VmHWM reads the largest single phase rather than however
// much dead heap the collector happened to leave between phases.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}
