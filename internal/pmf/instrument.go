package pmf

import "sync/atomic"

// Hot-path operation counters. Convolution is the scheduler's dominant
// cost (§IV-B chains one convolution per queued task per candidate core),
// so the package keeps process-global atomic tallies that the experiment
// harness samples before and after a run to attribute work. One atomic add
// per convolution is noise next to the O(n·m) impulse product itself. A ρ
// kernel call (ConvCDF, TripleConvCDF) is not: it costs a handful of
// prefix-sum lookups, and concurrent runs would contend on a shared
// counter. The kernels therefore count nothing; their callers tally the
// calls they make and publish them through CountRhoEvals.
var (
	opConvolutions      atomic.Int64
	opBucketed          atomic.Int64
	opCompactions       atomic.Int64
	opImpulsesCompacted atomic.Int64
	opGridConvolutions  atomic.Int64
	opFFTConvolutions   atomic.Int64
	opGridRhoEvals      atomic.Int64
)

// OpCounts is a sample of the package's operation counters.
type OpCounts struct {
	// Convolutions counts ConvolveN calls that performed an impulse
	// product (degenerate shift shortcuts are excluded).
	Convolutions int64 `json:"convolutions"`
	// BucketedConvolutions counts the subset of Convolutions that took the
	// direct-to-buckets fast path.
	BucketedConvolutions int64 `json:"bucketedConvolutions"`
	// Compactions counts explicit Compact calls that reduced a support.
	Compactions int64 `json:"compactions"`
	// ImpulsesCompacted counts impulses eliminated by compaction (input
	// minus output support sizes, summed over Compactions).
	ImpulsesCompacted int64 `json:"impulsesCompacted"`
	// GridConvolutions counts lattice convolutions (Grid.Convolve and
	// Grid.ConvolveLattice) on the fixed-grid fast path.
	GridConvolutions int64 `json:"gridConvolutions"`
	// FFTConvolutions counts the subset of GridConvolutions dispatched to
	// the FFT kernel above the support-length crossover.
	FFTConvolutions int64 `json:"fftConvolutions"`
	// GridRhoEvals counts ρ evaluations answered by the lattice CDF
	// kernels (ConvCDF, TripleConvCDF) in place of a convolution plus CDF
	// walk, as their callers report them through CountRhoEvals.
	GridRhoEvals int64 `json:"gridRhoEvals"`
}

// CountRhoEvals adds n ρ kernel evaluations to GridRhoEvals. Callers that
// evaluate ρ on a hot path tally locally and publish the sum in one call.
func CountRhoEvals(n int64) { opGridRhoEvals.Add(n) }

// ReadOpCounts samples the counters. Counters increase monotonically for
// the life of the process; subtract two samples to attribute work to an
// interval.
func ReadOpCounts() OpCounts {
	return OpCounts{
		Convolutions:         opConvolutions.Load(),
		BucketedConvolutions: opBucketed.Load(),
		Compactions:          opCompactions.Load(),
		ImpulsesCompacted:    opImpulsesCompacted.Load(),
		GridConvolutions:     opGridConvolutions.Load(),
		FFTConvolutions:      opFFTConvolutions.Load(),
		GridRhoEvals:         opGridRhoEvals.Load(),
	}
}

// Sub returns the per-field difference c - prev.
func (c OpCounts) Sub(prev OpCounts) OpCounts {
	return OpCounts{
		Convolutions:         c.Convolutions - prev.Convolutions,
		BucketedConvolutions: c.BucketedConvolutions - prev.BucketedConvolutions,
		Compactions:          c.Compactions - prev.Compactions,
		ImpulsesCompacted:    c.ImpulsesCompacted - prev.ImpulsesCompacted,
		GridConvolutions:     c.GridConvolutions - prev.GridConvolutions,
		FFTConvolutions:      c.FFTConvolutions - prev.FFTConvolutions,
		GridRhoEvals:         c.GridRhoEvals - prev.GridRhoEvals,
	}
}
