// Package pmf implements the discrete probability mass functions that the
// paper uses to model uncertain task execution times (§III-B) and the
// operations its robustness machinery needs (§IV-B): shifting a distribution
// by a start time, discarding impulses that are already in the past and
// renormalizing, convolving the distributions of queued tasks, and reading
// off expectations and deadline probabilities.
//
// A PMF is a finite list of (value, probability) impulses with strictly
// increasing values and probabilities summing to one. All operations return
// new PMFs; values are never mutated in place, so PMFs are safe to share
// across goroutines once constructed.
package pmf

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Tolerance is the absolute slack allowed when checking that probabilities
// sum to one. Renormalization is exact up to floating-point rounding; the
// tolerance exists to absorb that rounding across long operation chains.
const Tolerance = 1e-9

// DefaultMaxImpulses bounds the support size kept after convolution and
// explicit compaction. 64 impulses keeps the completion-time chains of
// §IV-B accurate to well under a percent on deadline probabilities while
// keeping convolution on the scheduler's hot path cheap.
const DefaultMaxImpulses = 64

// PMF is an immutable discrete probability mass function.
type PMF struct {
	vals  []float64
	probs []float64
}

var (
	// ErrEmpty is returned when a PMF would have no impulses.
	ErrEmpty = errors.New("pmf: no impulses")
	// ErrLengthMismatch is returned when values and probabilities differ in length.
	ErrLengthMismatch = errors.New("pmf: values and probabilities differ in length")
	// ErrBadProbability is returned for negative, NaN, or non-normalizable probabilities.
	ErrBadProbability = errors.New("pmf: invalid probability")
	// ErrBadValue is returned for NaN or infinite support values.
	ErrBadValue = errors.New("pmf: invalid support value")
)

// New builds a PMF from parallel value/probability slices. Values need not
// be sorted; duplicates are merged by summing their probabilities.
// Probabilities must be non-negative with a positive finite sum and are
// normalized to sum to one; an impulse whose normalized mass underflows to
// zero is dropped, as a zero input mass is. The input slices are not
// retained.
func New(vals, probs []float64) (PMF, error) {
	if len(vals) != len(probs) {
		return PMF{}, ErrLengthMismatch
	}
	if len(vals) == 0 {
		return PMF{}, ErrEmpty
	}
	type impulse struct{ v, p float64 }
	imps := make([]impulse, 0, len(vals))
	total := 0.0
	for i := range vals {
		v, p := vals[i], probs[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return PMF{}, fmt.Errorf("%w: value %v", ErrBadValue, v)
		}
		if math.IsNaN(p) || p < 0 || math.IsInf(p, 0) {
			return PMF{}, fmt.Errorf("%w: probability %v", ErrBadProbability, p)
		}
		if p == 0 {
			continue
		}
		imps = append(imps, impulse{v, p})
		total += p
	}
	if len(imps) == 0 || total <= 0 || math.IsInf(total, 1) {
		return PMF{}, fmt.Errorf("%w: total mass %v", ErrBadProbability, total)
	}
	sort.Slice(imps, func(i, j int) bool { return imps[i].v < imps[j].v })
	outV := make([]float64, 0, len(imps))
	outP := make([]float64, 0, len(imps))
	for _, im := range imps {
		if n := len(outV); n > 0 && outV[n-1] == im.v {
			outP[n-1] += im.p
			continue
		}
		outV = append(outV, im.v)
		outP = append(outP, im.p)
	}
	inv := 1 / total
	n := 0
	for i := range outP {
		// The largest impulse keeps at least 1/len(outP) of the mass, so
		// at least one survives.
		if p := outP[i] * inv; p > 0 {
			outV[n], outP[n] = outV[i], p
			n++
		}
	}
	return PMF{vals: outV[:n], probs: outP[:n]}, nil
}

// MustNew is New but panics on error; for literals in tests and generators
// whose inputs are correct by construction.
func MustNew(vals, probs []float64) PMF {
	p, err := New(vals, probs)
	if err != nil {
		panic(err)
	}
	return p
}

// Point returns the degenerate PMF concentrated at v.
func Point(v float64) PMF {
	return PMF{vals: []float64{v}, probs: []float64{1}}
}

// IsZero reports whether p is the zero PMF (no impulses), i.e. an
// uninitialized value rather than a valid distribution.
func (p PMF) IsZero() bool { return len(p.vals) == 0 }

// Len returns the number of impulses.
func (p PMF) Len() int { return len(p.vals) }

// Value returns the i-th support value (ascending order).
func (p PMF) Value(i int) float64 { return p.vals[i] }

// Prob returns the probability of the i-th support value.
func (p PMF) Prob(i int) float64 { return p.probs[i] }

// Min returns the smallest support value. Panics on the zero PMF.
func (p PMF) Min() float64 { return p.vals[0] }

// Max returns the largest support value. Panics on the zero PMF.
func (p PMF) Max() float64 { return p.vals[len(p.vals)-1] }

// Values returns a copy of the support values in ascending order.
func (p PMF) Values() []float64 {
	out := make([]float64, len(p.vals))
	copy(out, p.vals)
	return out
}

// Probs returns a copy of the probabilities, parallel to Values.
func (p PMF) Probs() []float64 {
	out := make([]float64, len(p.probs))
	copy(out, p.probs)
	return out
}

// TotalMass returns the sum of probabilities; one for any valid PMF, up to
// floating-point rounding.
func (p PMF) TotalMass() float64 {
	s := 0.0
	for _, q := range p.probs {
		s += q
	}
	return s
}

// Validate checks the structural invariants: non-empty, strictly increasing
// finite values, positive probabilities summing to one within Tolerance.
func (p PMF) Validate() error {
	if len(p.vals) == 0 {
		return ErrEmpty
	}
	if len(p.vals) != len(p.probs) {
		return ErrLengthMismatch
	}
	sum := 0.0
	for i := range p.vals {
		if math.IsNaN(p.vals[i]) || math.IsInf(p.vals[i], 0) {
			return fmt.Errorf("%w: value %v at %d", ErrBadValue, p.vals[i], i)
		}
		if i > 0 && p.vals[i] <= p.vals[i-1] {
			return fmt.Errorf("%w: values not strictly increasing at %d", ErrBadValue, i)
		}
		if p.probs[i] <= 0 || math.IsNaN(p.probs[i]) {
			return fmt.Errorf("%w: probability %v at %d", ErrBadProbability, p.probs[i], i)
		}
		sum += p.probs[i]
	}
	if math.Abs(sum-1) > Tolerance {
		return fmt.Errorf("%w: total mass %v not within %v of 1", ErrBadProbability, sum, Tolerance)
	}
	return nil
}

// ApproxEqual reports whether p and q have identical supports and
// probabilities within eps, element-wise.
func (p PMF) ApproxEqual(q PMF, eps float64) bool {
	if len(p.vals) != len(q.vals) {
		return false
	}
	for i := range p.vals {
		if math.Abs(p.vals[i]-q.vals[i]) > eps || math.Abs(p.probs[i]-q.probs[i]) > eps {
			return false
		}
	}
	return true
}

// String renders a compact human-readable form for debugging.
func (p PMF) String() string {
	if p.IsZero() {
		return "pmf{}"
	}
	s := "pmf{"
	for i := range p.vals {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g:%.4g", p.vals[i], p.probs[i])
	}
	return s + "}"
}
