package pmf

import (
	"fmt"
	"math"
)

// This file implements the fixed-grid ("lattice") fast path for the §IV-B
// convolution machinery. A sparse PMF is snapped once onto a lattice with a
// shared step; after that every operation the scheduler's hot path needs is
// integer-index arithmetic:
//
//   - convolution of two lattice distributions is exact and associative
//     (origins add, bin indices add), so a chain product can be cached and
//     extended in any association order without the compaction drift that
//     forces the sparse pipeline to keep whole left-associated chains;
//   - a CDF query is a single clamped prefix-sum lookup;
//   - ρ = P(H + W + E ≤ deadline) reduces to a double sum over the sparse
//     factors' impulses against the dense factor's prefix sums
//     (TripleConvCDF), with no completion PMF materialized at all.
//
// Two representations share the lattice:
//
//   - Lattice is sparse-on-grid: impulses at origin + idx[k]·step. Execution
//     PMFs (≤ a few dozen impulses) and truncated head stages stay in this
//     form, so convolving one into a dense product costs
//     len(impulses)·len(dense) multiply-adds with no sorting or bucketing.
//   - Grid is dense: a probability per consecutive bin plus prefix sums.
//     Chain products (the ⊛ of many execution PMFs) live here.
//
// Quantization contract: ToLattice moves each impulse by at most step/2
// (round-to-nearest bin). Convolving q snapped operands therefore yields a
// distribution whose CDF is bracketed by the exact CDF evaluated q·step/2
// to either side of the query point — the tolerance the grid-vs-exact
// property test asserts. Degenerate/identity factors are exact.

// Lattice is a discrete distribution on a fixed grid: impulses of mass
// prob[k] at origin + idx[k]·step, with idx strictly increasing. Like PMF it
// is immutable after construction and safe to share. The zero Lattice has no
// impulses.
type Lattice struct {
	origin float64
	step   float64
	idx    []int32
	prob   []float64
	cum    []float64 // cum[k] = prob[0] + … + prob[k]
}

// Grid is a dense distribution on a fixed grid: bin i holds mass probs[i] at
// value origin + i·step. cum holds the inclusive prefix sums, so a CDF query
// is one clamped lookup. nnz counts the non-zero bins, which drives the
// convolution dispatch. Immutable after construction.
type Grid struct {
	origin float64
	step   float64
	probs  []float64
	cum    []float64
	nnz    int
}

// ToLattice snaps p onto a lattice of the given step anchored at p.Min():
// each impulse moves to its nearest bin (|shift| ≤ step/2), impulses landing
// on the same bin merge by mass addition in ascending order. Total mass is
// the same float sum up to association of merged bins. Panics if step is not
// positive and finite; the zero PMF yields the zero Lattice.
func ToLattice(p PMF, step float64) Lattice {
	checkStep(step)
	if p.IsZero() {
		return Lattice{}
	}
	origin := p.vals[0]
	n := len(p.vals)
	idx := make([]int32, 0, n)
	prob := make([]float64, 0, n)
	inv := 1 / step
	for i := range p.vals {
		k := int32(math.Round((p.vals[i] - origin) * inv))
		if m := len(idx); m > 0 && idx[m-1] == k {
			prob[m-1] += p.probs[i]
			continue
		}
		idx = append(idx, k)
		prob = append(prob, p.probs[i])
	}
	return Lattice{origin: origin, step: step, idx: idx, prob: prob, cum: prefixSums(prob)}
}

// Shared backing slices for every point lattice: Lattice is immutable after
// construction, so the degenerate distribution differs only by origin and
// the hot path can mint one without allocating.
var (
	pointIdx  = []int32{0}
	pointProb = []float64{1}
)

// PointLattice is the degenerate lattice distribution concentrated at v.
// Allocation-free: the impulse slices are shared across all point lattices.
func PointLattice(v, step float64) Lattice {
	checkStep(step)
	return Lattice{origin: v, step: step, idx: pointIdx, prob: pointProb, cum: pointProb}
}

func checkStep(step float64) {
	if !(step > 0) || math.IsInf(step, 0) {
		panic(fmt.Sprintf("pmf: grid step %v must be positive and finite", step))
	}
}

func prefixSums(prob []float64) []float64 {
	cum := make([]float64, len(prob))
	s := 0.0
	for i, p := range prob {
		s += p
		cum[i] = s
	}
	return cum
}

// IsZero reports whether the lattice has no impulses.
func (l *Lattice) IsZero() bool { return len(l.idx) == 0 }

// Len returns the number of impulses.
func (l *Lattice) Len() int { return len(l.idx) }

// Step returns the lattice step.
func (l *Lattice) Step() float64 { return l.step }

// Origin returns the lattice origin (the value of bin index 0).
func (l *Lattice) Origin() float64 { return l.origin }

// Value returns the value of the k-th impulse.
func (l *Lattice) Value(k int) float64 { return l.origin + float64(l.idx[k])*l.step }

// Prob returns the mass of the k-th impulse.
func (l *Lattice) Prob(k int) float64 { return l.prob[k] }

// Min returns the smallest support value. Panics on the zero Lattice.
func (l *Lattice) Min() float64 { return l.Value(0) }

// Mean returns the expectation.
func (l *Lattice) Mean() float64 {
	if l.IsZero() {
		return math.NaN()
	}
	m := 0.0
	for k := range l.idx {
		m += l.prob[k] * l.Value(k)
	}
	return m
}

// TotalMass returns the sum of the impulse masses.
func (l *Lattice) TotalMass() float64 {
	if l.IsZero() {
		return 0
	}
	return l.cum[len(l.cum)-1]
}

// Shift translates the distribution by dt. Only the origin moves; the
// impulse slices are shared with the receiver.
func (l Lattice) Shift(dt float64) Lattice {
	l.origin += dt
	return l
}

// SearchValue returns the index of the first impulse with value >= t — the
// cut TruncateAt would apply, mirroring PMF.SearchValue. The zero Lattice
// yields 0. It is sort.Search over the same predicate, written out so the
// hot path builds no closure over a copy of the lattice.
func (l *Lattice) SearchValue(t float64) int {
	lo, hi := 0, len(l.idx)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if l.Value(h) >= t {
			hi = h
		} else {
			lo = h + 1
		}
	}
	return lo
}

// IsCut reports whether cut == SearchValue(t) without searching: the
// impulse before cut must fail SearchValue's predicate (value >= t) and the
// one at cut must meet it, where cut == 0 and cut == Len() need only the
// side that exists. A NaN t fails the predicate everywhere, as in the
// search. A caller that cached the cut of an earlier query checks it here
// first and searches only when t has crossed an impulse, in either
// direction — so a clock that steps back still gets the searched cut.
func (l *Lattice) IsCut(cut int, t float64) bool {
	if cut < 0 || cut > len(l.idx) {
		return false
	}
	return (cut == 0 || !(l.Value(cut-1) >= t)) && (cut == len(l.idx) || l.Value(cut) >= t)
}

// TruncateAt removes the first cut impulses and renormalizes the remainder,
// returning the truncated lattice and the mass that survived (before
// renormalization) — the grid form of PMF.TruncateBelow, keyed by the cut
// index so equal cuts yield bit-identical results. cut == Len() (or a
// remainder with no mass) returns the zero Lattice and kept == 0; the caller
// owns the degenerate-head fallback.
func (l *Lattice) TruncateAt(cut int) (Lattice, float64) {
	return l.TruncateInto(cut, &LatticeScratch{})
}

// LatticeScratch holds reusable backing arrays for TruncateInto, so a
// caller that re-truncates the same distribution as its cut drifts (the
// free-time engine's running head, once per decision per busy core) does
// not churn the heap with each new cut.
type LatticeScratch struct{ prob, cum []float64 }

// TruncateInto is TruncateAt with the renormalized masses and their prefix
// sums written into the scratch's arrays instead of fresh allocations:
// bit-identical impulses, cumulative sums and kept mass. A truncated result
// aliases the scratch and is valid only until the next TruncateInto call
// with the same scratch; a cut that keeps everything returns the receiver
// and one that keeps nothing leaves the scratch untouched.
func (l *Lattice) TruncateInto(cut int, s *LatticeScratch) (Lattice, float64) {
	if cut <= 0 {
		return *l, 1
	}
	if cut >= len(l.idx) {
		return Lattice{}, 0
	}
	mass := 0.0
	for _, p := range l.prob[cut:] {
		mass += p
	}
	if mass <= 0 {
		return Lattice{}, 0
	}
	n := len(l.prob) - cut
	if cap(s.prob) < n {
		s.prob = make([]float64, n)
		s.cum = make([]float64, n)
	}
	prob, cum := s.prob[:n], s.cum[:n]
	inv := 1 / mass
	sum := 0.0
	for j, p := range l.prob[cut:] {
		// The explicit conversion rounds the stored mass before it enters
		// the prefix sum, which then adds exactly what prob holds.
		q := float64(p * inv)
		prob[j] = q
		sum += q
		cum[j] = sum
	}
	return Lattice{origin: l.origin, step: l.step, idx: l.idx[cut:], prob: prob, cum: cum}, mass
}

// TruncatedMean returns the mean and kept mass of TruncateAt(cut) without
// building the truncated lattice: bit-identical to TruncateAt(cut) followed
// by Mean, and allocation-free. A cut that keeps no mass returns NaN (the
// zero Lattice's mean) and kept == 0.
func (l *Lattice) TruncatedMean(cut int) (mean, kept float64) {
	if cut <= 0 {
		return l.Mean(), 1
	}
	if cut >= len(l.idx) {
		return math.NaN(), 0
	}
	for _, p := range l.prob[cut:] {
		kept += p
	}
	if kept <= 0 {
		return math.NaN(), 0
	}
	inv := 1 / kept
	for k := cut; k < len(l.idx); k++ {
		// The explicit conversion rounds the renormalized mass exactly as
		// TruncateAt's stored copy is rounded.
		mean += float64(l.prob[k]*inv) * l.Value(k)
	}
	return mean, kept
}

// PMF materializes the lattice as a sparse PMF with values origin + idx·step.
func (l *Lattice) PMF() PMF {
	if l.IsZero() {
		return PMF{}
	}
	vals := make([]float64, len(l.idx))
	probs := make([]float64, len(l.prob))
	for k := range l.idx {
		vals[k] = l.Value(k)
	}
	copy(probs, l.prob)
	return PMF{vals: vals, probs: probs}
}

// Grid materializes the lattice densely, anchoring the grid origin at the
// first impulse.
func (l *Lattice) Grid() Grid {
	if l.IsZero() {
		return Grid{}
	}
	base := l.idx[0]
	n := int(l.idx[len(l.idx)-1]-base) + 1
	probs := make([]float64, n)
	for k := range l.idx {
		probs[l.idx[k]-base] = l.prob[k]
	}
	return newGrid(l.origin+float64(base)*l.step, l.step, probs)
}

func newGrid(origin, step float64, probs []float64) Grid {
	nnz := 0
	cum := make([]float64, len(probs))
	s := 0.0
	for i, p := range probs {
		if p != 0 {
			nnz++
		}
		s += p
		cum[i] = s
	}
	return Grid{origin: origin, step: step, probs: probs, cum: cum, nnz: nnz}
}

// ToGrid snaps p onto a dense grid of the given step (ToLattice then Grid).
func ToGrid(p PMF, step float64) Grid {
	l := ToLattice(p, step)
	return l.Grid()
}

// IdentityGrid is the convolution identity on a lattice of the given step:
// unit mass at value 0. Convolving with it adds nothing but the origin.
func IdentityGrid(step float64) Grid {
	checkStep(step)
	return Grid{origin: 0, step: step, probs: []float64{1}, cum: []float64{1}, nnz: 1}
}

// IsZero reports whether the grid has no bins.
func (g *Grid) IsZero() bool { return len(g.probs) == 0 }

// Len returns the number of bins (including empty ones).
func (g Grid) Len() int { return len(g.probs) }

// Step returns the lattice step.
func (g *Grid) Step() float64 { return g.step }

// Origin returns the value of bin 0.
func (g *Grid) Origin() float64 { return g.origin }

// MinValue returns the value of the first non-empty bin. Panics on the zero
// Grid.
func (g *Grid) MinValue() float64 {
	for i, p := range g.probs {
		if p != 0 {
			return g.origin + float64(i)*g.step
		}
	}
	return g.origin
}

// TotalMass returns the sum of bin masses.
func (g *Grid) TotalMass() float64 {
	if g.IsZero() {
		return 0
	}
	return g.cum[len(g.cum)-1]
}

// Mean returns the expectation.
func (g *Grid) Mean() float64 {
	if g.IsZero() {
		return math.NaN()
	}
	m := 0.0
	for i, p := range g.probs {
		if p != 0 {
			m += p * (g.origin + float64(i)*g.step)
		}
	}
	return m
}

// CDFIndex returns the cumulative mass through bin t, clamped: negative t
// yields 0, t past the last bin yields the total mass.
func (g *Grid) CDFIndex(t int) float64 {
	if t < 0 || g.IsZero() {
		return 0
	}
	if t >= len(g.cum) {
		return g.cum[len(g.cum)-1]
	}
	return g.cum[t]
}

// CDF returns P(X <= x): the prefix sum through bin floor((x-origin)/step).
func (g *Grid) CDF(x float64) float64 {
	if g.IsZero() {
		return 0
	}
	return g.CDFIndex(binFloor(x-g.origin, g.step))
}

// binFloor converts an offset from the origin to the last bin index at or
// below it, clamped to the int range.
func binFloor(off, step float64) int {
	f := math.Floor(off / step)
	const lim = float64(1 << 40)
	if f >= lim {
		return 1 << 40
	}
	if f <= -lim {
		return -(1 << 40)
	}
	return int(f)
}

// PMF materializes the non-empty bins as a sparse PMF.
func (g Grid) PMF() PMF {
	if g.IsZero() {
		return PMF{}
	}
	vals := make([]float64, 0, g.nnz)
	probs := make([]float64, 0, g.nnz)
	for i, p := range g.probs {
		if p == 0 {
			continue
		}
		vals = append(vals, g.origin+float64(i)*g.step)
		probs = append(probs, p)
	}
	return PMF{vals: vals, probs: probs}
}

// ConvolveLattice returns the distribution of X+Y for X ~ g, Y ~ l on the
// same lattice: a shifted multiply-add of g into the result per impulse of
// l, exact up to float rounding — no sorting, merging, or compaction. Panics
// if the steps differ. This is the chain-extension kernel: cost
// l.Len()·g.Len() madds.
func (g Grid) ConvolveLattice(l Lattice) Grid {
	if g.IsZero() || l.IsZero() {
		panic("pmf: ConvolveLattice on zero operand")
	}
	if g.step != l.step {
		panic(fmt.Sprintf("pmf: lattice step mismatch %v vs %v", g.step, l.step))
	}
	opGridConvolutions.Add(1)
	base := l.idx[0]
	span := int(l.idx[len(l.idx)-1] - base)
	out := make([]float64, len(g.probs)+span)
	for k := range l.idx {
		off := int(l.idx[k] - base)
		p := l.prob[k]
		dst := out[off : off+len(g.probs)]
		for i, gp := range g.probs {
			dst[i] += p * gp
		}
	}
	return newGrid(g.origin+l.origin+float64(base)*g.step, g.step, out)
}

// GridScratch holds reusable backing arrays for ConvolveLatticeInto, so a
// caller that rebuilds the same kind of product repeatedly (the free-time
// engine's per-core tail⊛head cache, whose truncation cut drifts with
// every decision's now) does not churn the heap with each rebuild.
type GridScratch struct{ probs, cum []float64 }

// ConvolveLatticeInto is ConvolveLattice with the result backed by the
// scratch's arrays instead of fresh allocations: same accumulation order,
// bit-identical bins and prefix sums. The returned Grid aliases the
// scratch and is valid only until the next ConvolveLatticeInto call with
// the same scratch; use ConvolveLattice when the result must be immutable.
func (g *Grid) ConvolveLatticeInto(l Lattice, s *GridScratch) Grid {
	if g.IsZero() || l.IsZero() {
		panic("pmf: ConvolveLatticeInto on zero operand")
	}
	if g.step != l.step {
		panic(fmt.Sprintf("pmf: lattice step mismatch %v vs %v", g.step, l.step))
	}
	opGridConvolutions.Add(1)
	base := l.idx[0]
	span := int(l.idx[len(l.idx)-1] - base)
	n := len(g.probs) + span
	if cap(s.probs) < n {
		s.probs = make([]float64, n)
		s.cum = make([]float64, n)
	}
	out := s.probs[:n]
	for i := range out {
		out[i] = 0
	}
	for k := range l.idx {
		off := int(l.idx[k] - base)
		p := l.prob[k]
		dst := out[off : off+len(g.probs)]
		for i, gp := range g.probs {
			dst[i] += p * gp
		}
	}
	nnz := 0
	cum := s.cum[:n]
	sum := 0.0
	for i, p := range out {
		if p != 0 {
			nnz++
		}
		sum += p
		cum[i] = sum
	}
	return Grid{origin: g.origin + l.origin + float64(base)*g.step, step: g.step, probs: out, cum: cum, nnz: nnz}
}

// fftCostFactor scales N·log2(N) into the same units as the direct
// kernel's nnz·len multiply-add count. Calibrated from
// BenchmarkGridConvolve/dispatch on the bench host: the direct kernel
// runs at ~0.8ns per madd while the FFT path (two complex transforms with
// recurrence-free per-index twiddles — the price of bit determinism —
// plus packing) costs ~25 madd-equivalents per N·log2(N) point, putting
// the crossover near 1024-bin operands.
const fftCostFactor = 24.0

// Convolve returns the distribution of X+Y for dense X ~ g, Y ~ h on the
// same lattice. Dispatch: the direct kernel runs the sparser operand's
// non-zero bins against the other's full support (nnz·len madds); above the
// benchmarked crossover the power-of-two-padded real FFT path wins and is
// used instead. Both paths are deterministic; they differ by at most
// ~1e-12 relative mass per bin (the FFT's rounding), which the grid parity
// test budgets for. Panics on a zero operand or step mismatch.
func (g Grid) Convolve(h Grid) Grid {
	if g.IsZero() || h.IsZero() {
		panic("pmf: Convolve on zero Grid operand")
	}
	if g.step != h.step {
		panic(fmt.Sprintf("pmf: lattice step mismatch %v vs %v", g.step, h.step))
	}
	opGridConvolutions.Add(1)
	// Run the operand with fewer non-zero bins as the kernel.
	a, b := g, h
	if b.nnz < a.nnz {
		a, b = b, a
	}
	outLen := len(g.probs) + len(h.probs) - 1
	direct := float64(a.nnz) * float64(len(b.probs))
	n := fftSize(outLen)
	if direct > fftCostFactor*float64(n)*math.Log2(float64(n)) {
		opFFTConvolutions.Add(1)
		return newGrid(g.origin+h.origin, g.step, fftConvolve(g.probs, h.probs))
	}
	out := make([]float64, outLen)
	for i, p := range a.probs {
		if p == 0 {
			continue
		}
		dst := out[i : i+len(b.probs)]
		for j, q := range b.probs {
			dst[j] += p * q
		}
	}
	return newGrid(g.origin+h.origin, g.step, out)
}

// ConvCDF returns P(G + E ≤ x) for independent G ~ g (dense) and E ~ e
// (sparse on the same lattice): the CDF of their convolution at x without
// materializing it — at most e.Len() prefix-sum lookups, no allocation.
// When one factor of a ρ chain (the tail⊛head product) is reused across
// many candidates, materializing it once and answering each candidate
// through ConvCDF replaces the O(|h|·|e|) double sum of TripleConvCDF
// with an O(|e|) single sum. The sum saturates at 1; zero operands
// yield 0. Pointer operands keep the per-candidate call free of struct
// copies — the hot path evaluates this once per (P-state, core) pair. The
// kernel touches no shared state: callers report their calls through
// CountRhoEvals.
func (g *Grid) ConvCDF(e *Lattice, x float64) float64 {
	if g.IsZero() || e.IsZero() {
		return 0
	}
	t0 := int64(binFloor(x-g.origin-e.origin, g.step))
	last := int64(len(g.cum) - 1)
	tot := g.cum[last]
	sum := 0.0
	for j := range e.idx {
		k := t0 - int64(e.idx[j])
		if k < 0 {
			// e ascends, so every later impulse lands further past x.
			break
		}
		if k >= last {
			sum += e.prob[j] * tot
			continue
		}
		sum += e.prob[j] * g.cum[k]
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// TripleConvCDF returns P(H + W + E ≤ x) for independent H ~ h, E ~ e
// (sparse on the lattice) and W ~ w (dense on the same lattice): the grid
// form of the ρ evaluation, answered entirely from w's prefix sums —
// h.Len()·e.Len() madds, no convolution, no allocation. The sum saturates
// at 1. Zero operands yield 0. Pointer operands and caller-side counting
// for the same reasons as ConvCDF: the scheduler calls this per candidate.
func TripleConvCDF(h *Lattice, w *Grid, e *Lattice, x float64) float64 {
	if h.IsZero() || w.IsZero() || e.IsZero() {
		return 0
	}
	t0 := int64(binFloor(x-h.origin-w.origin-e.origin, w.step))
	wLast := int64(len(w.cum) - 1)
	wTot := w.cum[wLast]
	e0 := int64(e.idx[0])
	eLast := int64(e.idx[len(e.idx)-1])
	eTot := e.cum[len(e.cum)-1]
	sum := 0.0
	for i := range h.idx {
		s := t0 - int64(h.idx[i])
		if s-e0 < 0 {
			// h ascends, so every later impulse is further past the
			// deadline: nothing more can contribute.
			break
		}
		if s-eLast >= wLast {
			// Every (e, w) combination is at or before the deadline.
			sum += h.prob[i] * eTot * wTot
			continue
		}
		inner := 0.0
		for j := range e.idx {
			k := s - int64(e.idx[j])
			if k < 0 {
				break
			}
			if k >= wLast {
				inner += e.prob[j] * wTot
				continue
			}
			inner += e.prob[j] * w.cum[k]
		}
		sum += h.prob[i] * inner
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}
