package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of an ascending sample: the
// smallest element with at least p of the sample at or below it. p is a
// fraction in (0, 1]; an empty sample yields NaN.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p*float64(len(asc)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(asc) {
		k = len(asc) - 1
	}
	return asc[k]
}

// median is the middle of the sample (mean of the two middle elements for
// an even count); NaN when empty. The input need not be sorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// samplesBeyond is the number of samples strictly above the nearest-rank
// percentile p of a sample of n.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p*float64(n)))
}

// minBeyond is the choosing-metrics rule: a percentile is reported only
// when at least this many samples lie beyond it.
const minBeyond = 10

// supportedTail returns the highest of p50/p90/p99/p99.9 that a sample of n
// supports under the minBeyond rule, or 0 when not even the median does.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		if samplesBeyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// windowPercentiles splits xs (in arrival order) into `windows` equal
// consecutive windows — the remainder goes to the last — and returns the
// per-window percentile p. One noisy-neighbour stall then moves one window,
// not the statistic taken over windows.
func windowPercentiles(xs []float64, windows int, p float64) []float64 {
	if windows < 1 {
		windows = 1
	}
	if windows > len(xs) {
		windows = len(xs)
	}
	out := make([]float64, 0, windows)
	size := len(xs) / windows
	for w := 0; w < windows; w++ {
		lo, hi := w*size, (w+1)*size
		if w == windows-1 {
			hi = len(xs)
		}
		out = append(out, percentile(sorted(xs[lo:hi]), p))
	}
	return out
}

// pairedWindowDelta is the median over windows of (window median of a −
// window median of b). Both legs send the same requests in the same order,
// so pairing window by window cancels how the cost of a request drifts along
// the schedule and leaves the difference between the two paths.
func pairedWindowDelta(a, b []float64, windows int) float64 {
	pa, pb := windowPercentiles(a, windows, 0.5), windowPercentiles(b, windows, 0.5)
	d := make([]float64, min(len(pa), len(pb)))
	for i := range d {
		d[i] = pa[i] - pb[i]
	}
	return median(d)
}

// quartiles returns the first and third quartile with the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), which the acceptance
// procedure uses; fewer than two samples yield the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// medianAcross returns, per column, the median over rows. The rows are the
// passes of a run and the columns its segments — a variant run, a window of
// consecutive requests — whose work is identical in every pass. A
// noisy-neighbour stall that slows one segment of one pass is voted out by
// the other passes' measurements of that same segment; a median over whole
// passes would keep whatever hit the middle pass.
func medianAcross(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	out := make([]float64, len(rows[0]))
	col := make([]float64, len(rows))
	for j := range out {
		for p := range rows {
			col[p] = rows[p][j]
		}
		out[j] = median(col)
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
