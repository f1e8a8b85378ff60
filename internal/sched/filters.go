package sched

import "math"

// This file implements the two generic filter mechanisms of §V-F.

// ZetaMulFunc maps the system's average queue depth to the energy filter's
// multiplier ζ_mul.
type ZetaMulFunc func(avgQueueDepth float64) float64

// PaperZetaMul is the adaptive ζ_mul schedule of §V-F: 0.8 for average
// queue depth below 0.8, 1.0 for depths in [0.8, 1.2], and 1.2 above 1.2.
// (The paper specifies 0.8→<0.8, 1.0→[0.8,1.0], 1.2→>1.2 and leaves
// (1.0, 1.2] open; we close the gap with 1.0, the adjacent band.)
func PaperZetaMul(avgQueueDepth float64) float64 {
	switch {
	case avgQueueDepth < 0.8:
		return 0.8
	case avgQueueDepth <= 1.2:
		return 1.0
	default:
		return 1.2
	}
}

// FixedZetaMul returns a ZetaMulFunc that ignores queue depth — used by the
// ζ_mul ablation study.
func FixedZetaMul(mul float64) ZetaMulFunc {
	return func(float64) float64 { return mul }
}

// EnergyFilter eliminates assignments whose expected energy consumption
// exceeds a "fair share" of the remaining energy budget (Eq. 6):
// ζ_fair(t_l) = ζ_mul × ζ(t_l) / T_left(t_l).
type EnergyFilter struct {
	// Mul selects ζ_mul from the average queue depth; nil means PaperZetaMul.
	Mul ZetaMulFunc
}

// Name returns "en".
func (EnergyFilter) Name() string { return "en" }

// NeedsRho reports false.
func (EnergyFilter) NeedsRho() bool { return false }

// Threshold returns ζ_fair(t_l) for the context. When no tasks remain
// unarrived the fair share is unbounded (every assignment passes); when the
// energy estimate is non-positive the threshold is zero and everything is
// eliminated, discarding the task.
func (f EnergyFilter) Threshold(ctx *Context) float64 {
	mul := f.Mul
	if mul == nil {
		mul = PaperZetaMul
	}
	if ctx.TasksLeft <= 0 {
		return math.Inf(1)
	}
	if ctx.EnergyLeft <= 0 {
		return 0
	}
	m := mul(ctx.AvgQueueDepth)
	if ctx.ZetaMulOverride > 0 && ctx.ZetaMulOverride < m {
		m = ctx.ZetaMulOverride
	}
	return m * ctx.EnergyLeft / float64(ctx.TasksLeft)
}

// Keep retains candidates with EEC at or below the fair share.
func (f EnergyFilter) Keep(ctx *Context, c *Candidate) bool {
	return c.EEC <= f.eecBound(ctx)
}

// eecBound is the energy filter's bound for the decision: ζ_fair(t_l).
func (f EnergyFilter) eecBound(ctx *Context) float64 { return f.Threshold(ctx) }

// eecFilter is a filter whose rule is EEC ≤ a bound that is fixed for the
// whole decision. Keep applies the bound to one candidate; Mapper.Map
// reads it once per decision and compares every candidate against it.
type eecFilter interface {
	Filter
	eecBound(ctx *Context) float64
}

// PaperRhoThresh is ρ_thresh = 0.5, the probability threshold §V-F found to
// work well.
const PaperRhoThresh = 0.5

// RobustnessFilter eliminates assignments whose probability of completing
// the task by its deadline falls below the threshold (§V-F).
type RobustnessFilter struct {
	// Thresh is ρ_thresh; zero value means PaperRhoThresh.
	Thresh float64
}

// Name returns "rob".
func (RobustnessFilter) Name() string { return "rob" }

// NeedsRho reports true.
func (RobustnessFilter) NeedsRho() bool { return true }

// Keep retains candidates with ρ at or above the threshold.
func (f RobustnessFilter) Keep(_ *Context, c *Candidate) bool {
	t := f.Thresh
	if t == 0 {
		t = PaperRhoThresh
	}
	return c.Rho() >= t
}

// ReliabilityFilter eliminates assignments whose deadline probability,
// discounted by the target core's availability, falls below the threshold.
// Under fault injection a core that is up now may still fail before the
// task completes; availability·ρ is the probability the task both fits its
// deadline and lands on a core that stays up, under the steady-state
// up-fraction estimate of the configured transient-fault process. With no
// availability estimate in the context the filter reduces to the plain
// robustness filter.
type ReliabilityFilter struct {
	// Thresh is the availability·ρ threshold; zero value means
	// PaperRhoThresh.
	Thresh float64
}

// Name returns "rel".
func (ReliabilityFilter) Name() string { return "rel" }

// NeedsRho reports true.
func (ReliabilityFilter) NeedsRho() bool { return true }

// Keep retains candidates with availability·ρ at or above the threshold.
func (f ReliabilityFilter) Keep(ctx *Context, c *Candidate) bool {
	t := f.Thresh
	if t == 0 {
		t = PaperRhoThresh
	}
	avail := ctx.availability(c.CoreIdx)
	if avail <= 0 {
		return false
	}
	return avail*c.Rho() >= t
}

// EECCapFilter eliminates assignments whose expected energy consumption
// exceeds a fixed per-task ceiling. Unlike EnergyFilter, which derives its
// threshold from the remaining budget, the cap is absolute — it is the
// serving-path hook for requests that carry their own maxEnergy bound.
// A non-positive cap keeps everything (no constraint requested).
type EECCapFilter struct {
	// Cap is the maximum admissible EEC; <= 0 disables the filter.
	Cap float64
}

// Name returns "cap".
func (EECCapFilter) Name() string { return "cap" }

// NeedsRho reports false.
func (EECCapFilter) NeedsRho() bool { return false }

// Keep retains candidates with EEC at or below the cap.
func (f EECCapFilter) Keep(ctx *Context, c *Candidate) bool {
	return c.EEC <= f.eecBound(ctx)
}

// eecBound is the cap, or +Inf when the filter is disabled.
func (f EECCapFilter) eecBound(*Context) float64 {
	if f.Cap <= 0 {
		return math.Inf(1)
	}
	return f.Cap
}

// FilterVariant names one of the four filtering configurations evaluated in
// Figures 2–5.
type FilterVariant int

// The four variants, in the paper's presentation order.
const (
	// NoFilter is the unfiltered heuristic ("none").
	NoFilter FilterVariant = iota
	// EnergyOnly applies only the energy filter ("en").
	EnergyOnly
	// RobustnessOnly applies only the robustness filter ("rob").
	RobustnessOnly
	// EnergyAndRobustness applies both ("en+rob").
	EnergyAndRobustness
)

// String returns the paper's label for the variant.
func (v FilterVariant) String() string {
	switch v {
	case NoFilter:
		return "none"
	case EnergyOnly:
		return "en"
	case RobustnessOnly:
		return "rob"
	case EnergyAndRobustness:
		return "en+rob"
	}
	return "unknown"
}

// Filters instantiates the variant's filter chain with paper parameters.
func (v FilterVariant) Filters() []Filter {
	switch v {
	case EnergyOnly:
		return []Filter{EnergyFilter{}}
	case RobustnessOnly:
		return []Filter{RobustnessFilter{}}
	case EnergyAndRobustness:
		return []Filter{EnergyFilter{}, RobustnessFilter{}}
	}
	return nil
}

// AllFilterVariants lists the variants in the paper's presentation order.
func AllFilterVariants() []FilterVariant {
	return []FilterVariant{NoFilter, EnergyOnly, RobustnessOnly, EnergyAndRobustness}
}
