package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Verdicts of one (metric, workload) comparison.
const (
	vWorse      = "worse"
	vSame       = "same"
	vBetter     = "better"
	vUnresolved = "unresolved"
)

// sideStats summarises one side's runs of one (metric, workload).
type sideStats struct {
	values         []float64
	median, q1, q3 float64
}

func summarize(xs []float64) sideStats {
	s := sideStats{values: xs, median: median(xs)}
	s.q1, s.q3 = quartiles(xs)
	return s
}

// judge compares side b (the change) against side a (the baseline) for one
// metric. Positive delta means worse. The bound is the larger of the
// relative bound on a's median and the absolute bound; a deterministic
// (metric, workload) pair is held to zero. When a side's own spread exceeds
// the bound the medians cannot resolve a move of that size, so the verdict
// is unresolved — unless every run of one side beats every run of the other.
func judge(d metricDef, exact bool, a, b sideStats) (verdict string, delta, bound float64) {
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	delta = sign * (b.median - a.median)
	if !exact {
		bound = math.Max(d.Bound*math.Abs(a.median), d.AbsBound)
	}
	switch {
	case delta > bound:
		verdict = vWorse
	case delta < -bound:
		verdict = vBetter
	default:
		verdict = vSame
	}
	if math.Max(a.q3-a.q1, b.q3-b.q1) <= bound {
		return verdict, delta, bound
	}
	allBetter, allWorse := true, true
	for _, x := range a.values {
		for _, y := range b.values {
			allBetter = allBetter && sign*(y-x) < 0
			allWorse = allWorse && sign*(y-x) > 0
		}
	}
	switch {
	case allBetter:
		return vBetter, delta, bound
	case allWorse && verdict == vWorse:
		return vWorse, delta, bound
	}
	return vUnresolved, delta, bound
}

// runSet is one side of a comparison: every run found in its files.
type runSet []*result

func loadRunSet(paths []string) (runSet, error) {
	var rs runSet
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if len(rf.Runs) == 0 {
			return nil, fmt.Errorf("%s: no runs (want a result.json written by run.sh)", p)
		}
		rs = append(rs, rf.Runs...)
	}
	return rs, nil
}

func (rs runSet) values(workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range rs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		if v, ok := r.get(metric); ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// identity renders what must repeat exactly on a deterministic workload: the
// response digest, the exact tallies, and every per-task count of the traced
// run.
func (rs runSet) identity(workload string) map[string]string {
	out := map[string]string{}
	note := func(key, val string) {
		if prev, ok := out[key]; ok && prev != val {
			val = prev + "|" + val // the side disagrees with itself
		}
		out[key] = val
	}
	for _, r := range rs {
		if r.Workload != workload {
			continue
		}
		if !r.Traced {
			if r.Digest != "" {
				note("digest", r.Digest)
			}
			for k, v := range r.Counts {
				note(k, fmt.Sprint(v))
			}
			continue
		}
		for _, v := range r.Metrics {
			if v.Unit == "count" && !strings.HasPrefix(v.Name, "runtime.") &&
				!strings.HasPrefix(v.Name, "host.") && !strings.HasPrefix(v.Name, "trace.") {
				note(v.Name, fmt.Sprint(v.Value))
			}
		}
	}
	return out
}

// compareFiles prints one row per (metric, workload) and reports whether no
// pair regressed.
func compareFiles(w io.Writer, aPaths, bPaths []string) (bool, error) {
	a, err := loadRunSet(aPaths)
	if err != nil {
		return false, err
	}
	b, err := loadRunSet(bPaths)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-13s %-22s %14s %14s %12s %12s  %s\n", "workload", "metric", "a median", "b median", "worse-by", "bound", "verdict")
	for _, wl := range allWorkloads {
		for _, d := range endToEnd {
			if !d.on(wl) {
				continue
			}
			av, bv := a.values(wl, d.Name, false), b.values(wl, d.Name, false)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			sa, sb := summarize(av), summarize(bv)
			verdict, delta, bound := judge(d, deterministic(d.Name, wl), sa, sb)
			ok = ok && verdict != vWorse
			fmt.Fprintf(w, "%-13s %-22s %14s %14s %12s %12s  %s (n=%d,%d)\n", wl, d.Name,
				formatValue(sa.median), formatValue(sb.median), formatValue(delta), formatValue(bound), verdict, len(av), len(bv))
		}
		if wl == wServeWAL || wl == wServeStack {
			continue
		}
		ia, ib := a.identity(wl), b.identity(wl)
		same, differ := 0, []string{}
		for k, va := range ia {
			vb, both := ib[k]
			switch {
			case !both:
			case va == vb && !strings.Contains(va, "|"):
				same++
			default:
				differ = append(differ, k)
			}
		}
		fmt.Fprintf(w, "%-13s %-22s %d identical", wl, "digest and counts", same)
		sort.Strings(differ)
		if len(differ) > 0 {
			fmt.Fprintf(w, ", differ: %s", strings.Join(differ, " "))
		}
		fmt.Fprintln(w)
	}
	return ok, nil
}
