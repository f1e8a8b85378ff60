// Package workload implements the paper's workload model (§III-B, §VI): a
// window of independent tasks whose types are drawn from a finite set of
// well-known task types, whose execution times are stochastic (one pmf per
// task type × node × P-state), which arrive in Poisson bursts
// (fast–slow–fast), and which each carry a hard individual deadline.
package workload

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cluster"
	"repro/internal/cvb"
	"repro/internal/pmf"
	"repro/internal/randx"
)

// Params configures the workload model and trial generation.
type Params struct {
	// TaskTypes is the number of well-known task types (paper: 100).
	TaskTypes int
	// WindowSize is the number of tasks per trial (paper: 1,000).
	WindowSize int
	// CVB parameterizes the heterogeneity of mean execution times.
	CVB cvb.Params
	// ExecCV is the within-type coefficient of variation of the execution
	// time on a fixed (node, P-state): the stochastic spread coming from
	// input data and cache effects (§III-B). The paper generates "a
	// distribution describing the execution time of each task type on each
	// machine using the CVB method" with V_mach = 0.25; we read the
	// machine-level coefficient of variation as that spread, so the default
	// is 0.25.
	ExecCV float64
	// PMFBins bounds the support size of each generated execution-time pmf.
	PMFBins int
	// PMFSamples is how many gamma draws are histogrammed per pmf.
	PMFSamples int
	// FastRate is λ_fast (paper: 1/8), SlowRate is λ_slow (paper: 1/48).
	// These absolute values are used only when CalibrateRates is false.
	FastRate, SlowRate float64
	// CalibrateRates derives the arrival rates from the generated cluster
	// instead of using the absolute FastRate/SlowRate. §VI defines the
	// equilibrium rate λ_eq as the rate at which the system is *perfectly
	// subscribed* (all tasks complete by their deadlines with no energy to
	// spare); for a cluster of C cores whose average task occupies a core
	// for t_avg time units this is λ_eq = C/t_avg (full utilization at the
	// average P-state, which by the ζ_max construction also exhausts the
	// budget exactly). The burst rates preserve the paper's ratios:
	// λ_fast = FastFactor·λ_eq and λ_slow = SlowFactor·λ_eq, with the paper
	// at FastFactor = (1/8)/(1/28) = 3.5 and SlowFactor = (1/48)/(1/28).
	// This reproduces the paper's experiment *design* on any generated
	// instance rather than its instance-specific constants.
	CalibrateRates bool
	// FastFactor/SlowFactor are the calibrated-rate multiples of λ_eq.
	FastFactor, SlowFactor float64
	// BurstLen is the number of tasks in each of the leading and trailing
	// fast bursts (paper: 200); the remaining WindowSize-2·BurstLen tasks
	// arrive at SlowRate.
	BurstLen int
	// LoadFactorMult scales the deadline "load factor": the deadline slack
	// is LoadFactorMult × t_avg. The paper uses exactly 1.
	LoadFactorMult float64
	// Classes optionally partitions the task-type population into families
	// with their own mean scale and execution spread (§III-B's
	// compute/memory-intensive mix). Empty reproduces the paper's
	// homogeneous treatment.
	Classes []TypeClass
}

// PaperParams returns the workload parameters of §VI.
func PaperParams() Params {
	return Params{
		TaskTypes:      100,
		WindowSize:     1000,
		CVB:            cvb.PaperParams(),
		ExecCV:         0.25,
		PMFBins:        24,
		PMFSamples:     4000,
		FastRate:       1.0 / 8,
		SlowRate:       1.0 / 48,
		CalibrateRates: true,
		FastFactor:     (1.0 / 8) / EquilibriumRate,
		SlowFactor:     (1.0 / 48) / EquilibriumRate,
		BurstLen:       200,
		LoadFactorMult: 1,
	}
}

// EquilibriumRate is λ_eq from §VI, the rate at which the paper's system is
// perfectly subscribed. It is reported for reference; the simulation itself
// only uses FastRate and SlowRate.
const EquilibriumRate = 1.0 / 28

// Validate reports whether the parameters are usable. Comparisons are
// phrased as !(x > 0) rather than x <= 0 so NaN — which fails every
// ordering comparison — is rejected instead of slipping through.
func (p Params) Validate() error {
	switch {
	case p.TaskTypes < 1:
		return fmt.Errorf("workload: TaskTypes %d must be >= 1", p.TaskTypes)
	case p.WindowSize < 1:
		return fmt.Errorf("workload: WindowSize %d must be >= 1", p.WindowSize)
	case !(p.ExecCV > 0) || math.IsInf(p.ExecCV, 0):
		return fmt.Errorf("workload: ExecCV %v must be positive and finite", p.ExecCV)
	case p.PMFBins < 1:
		return fmt.Errorf("workload: PMFBins %d must be >= 1", p.PMFBins)
	case p.PMFSamples < 2:
		return fmt.Errorf("workload: PMFSamples %d must be >= 2", p.PMFSamples)
	case !p.CalibrateRates && !(p.FastRate > 0 && p.SlowRate > 0):
		return fmt.Errorf("workload: rates must be > 0 (fast %v, slow %v)", p.FastRate, p.SlowRate)
	case p.CalibrateRates && !(p.FastFactor > 0 && p.SlowFactor > 0):
		return fmt.Errorf("workload: rate factors must be > 0 (fast %v, slow %v)", p.FastFactor, p.SlowFactor)
	case p.BurstLen < 0 || 2*p.BurstLen > p.WindowSize:
		return fmt.Errorf("workload: BurstLen %d incompatible with window %d", p.BurstLen, p.WindowSize)
	case !(p.LoadFactorMult >= 0) || math.IsInf(p.LoadFactorMult, 0):
		return fmt.Errorf("workload: LoadFactorMult %v must be >= 0 and finite", p.LoadFactorMult)
	}
	if err := validateClasses(p.Classes); err != nil {
		return err
	}
	return p.CVB.Validate()
}

// Phases returns the piecewise-rate arrival schedule — fast burst, lull,
// fast burst (§VI) — for explicit fast/slow rates.
func (p Params) phasesFor(fast, slow float64) []randx.RatePhase {
	return []randx.RatePhase{
		{Rate: fast, Count: p.BurstLen},
		{Rate: slow, Count: p.WindowSize - 2*p.BurstLen},
		{Rate: fast, Count: p.BurstLen},
	}
}

// Phases returns the arrival schedule built from the absolute
// FastRate/SlowRate values (ignoring calibration). Prefer
// Model.ArrivalPhases, which honors CalibrateRates.
func (p Params) Phases() []randx.RatePhase {
	return p.phasesFor(p.FastRate, p.SlowRate)
}

// Model holds everything that is fixed across simulation trials: the
// execution-time pmf for every (task type, node, P-state) combination, the
// per-type average execution times used for deadlines, and t_avg.
//
// A Model is immutable once BuildModel, ReadModelJSON or Slice returns it:
// nothing writes its fields, its cluster's nodes or its tables afterwards,
// and many engines and goroutines share one. Hash relies on that and
// fingerprints the model once.
type Model struct {
	Params  Params
	Cluster *cluster.Cluster

	// table[type][node][pstate] is the execution-time pmf.
	table [][][]pmf.PMF
	// mean[type][node][pstate] is table[type][node][pstate].Mean(),
	// precomputed because candidate enumeration reads the EET of every
	// (type, core, P-state) combination on every mapping decision.
	mean [][][]float64
	// lattice[type][node][pstate] is table[type][node][pstate] snapped onto
	// the model's shared lattice (step latticeStep = tAvg/LatticeRes): the
	// read-only form the production ρ path convolves. Built once with the
	// model, so every run on it shares one table.
	lattice     [][][]LatticeExec
	latticeStep float64
	// typeMean[type] is the mean execution time of the type over all nodes
	// and all P-states (the deadline offset of §VI).
	typeMean []float64
	// tAvg is the grand mean over all types, nodes, and P-states (§VI).
	tAvg float64
	// fastRate/slowRate are the effective arrival rates (calibrated to the
	// cluster when Params.CalibrateRates is set, absolute otherwise).
	fastRate, slowRate float64
	// classOf[type] indexes Params.Classes (nil without classes).
	classOf []int

	// hashOnce guards hash, the memoised Hash digest.
	hashOnce sync.Once
	hash     string
}

// BuildModel constructs the fixed workload model: a CVB ETC matrix gives
// the mean execution time of each type on each node at P0; each
// (type, node) pmf is a histogram of gamma draws around that mean with
// coefficient of variation ExecCV; P-state variants scale the P0 pmf by the
// node's execution-time multiplier (§VI).
func BuildModel(s *randx.Stream, c *cluster.Cluster, p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	etc, err := cvb.Generate(s.Child("etc"), p.TaskTypes, c.N(), p.CVB)
	if err != nil {
		return nil, err
	}
	m := &Model{
		Params:   p,
		Cluster:  c,
		table:    make([][][]pmf.PMF, p.TaskTypes),
		typeMean: make([]float64, p.TaskTypes),
	}
	m.classOf = assignClasses(p.Classes, p.TaskTypes)
	ps := s.Child("pmfs")
	samples := make([]float64, p.PMFSamples)
	grand := 0.0
	for ti := 0; ti < p.TaskTypes; ti++ {
		meanScale, execCV := 1.0, p.ExecCV
		if m.classOf != nil {
			cl := p.Classes[m.classOf[ti]]
			meanScale = cl.MeanScale
			if cl.ExecCV > 0 {
				execCV = cl.ExecCV
			}
		}
		m.table[ti] = make([][]pmf.PMF, c.N())
		typeSum := 0.0
		for ni := 0; ni < c.N(); ni++ {
			mean := etc.At(ti, ni) * meanScale
			st := ps.ChildN(fmt.Sprintf("t%d/n", ti), ni)
			for k := range samples {
				samples[k] = st.GammaMeanCV(mean, execCV)
			}
			base, err := pmf.FromSamples(samples, p.PMFBins)
			if err != nil {
				return nil, fmt.Errorf("workload: pmf for type %d node %d: %w", ti, ni, err)
			}
			node := &c.Nodes[ni]
			row := make([]pmf.PMF, cluster.NumPStates)
			for _, st := range cluster.AllPStates() {
				row[st] = base.ScaleTime(node.TimeMult(st))
				typeSum += row[st].Mean()
			}
			m.table[ti][ni] = row
		}
		m.typeMean[ti] = typeSum / float64(c.N()*cluster.NumPStates)
		grand += m.typeMean[ti]
	}
	m.tAvg = grand / float64(p.TaskTypes)
	m.buildMeans()
	m.buildLattice()
	if p.CalibrateRates {
		eq := m.EquilibriumRate()
		m.fastRate = p.FastFactor * eq
		m.slowRate = p.SlowFactor * eq
	} else {
		m.fastRate = p.FastRate
		m.slowRate = p.SlowRate
	}
	return m, nil
}

// EquilibriumRate returns λ_eq for this instance: the arrival rate at which
// the cluster is perfectly subscribed when the average task occupies one
// core for t_avg time units — C/t_avg for C total cores. At this rate the
// cluster runs at full utilization at the average P-state, which by the
// ζ_max construction (§VI) also exhausts the energy budget exactly.
func (m *Model) EquilibriumRate() float64 {
	return float64(m.Cluster.TotalCores()) / m.tAvg
}

// FastRate returns the effective burst arrival rate λ_fast.
func (m *Model) FastRate() float64 { return m.fastRate }

// SlowRate returns the effective lull arrival rate λ_slow.
func (m *Model) SlowRate() float64 { return m.slowRate }

// ArrivalPhases returns the trial arrival schedule at the effective rates.
func (m *Model) ArrivalPhases() []randx.RatePhase {
	return m.Params.phasesFor(m.fastRate, m.slowRate)
}

// ExecPMF returns the execution-time pmf of the given task type on a core
// of the given node in the given P-state.
func (m *Model) ExecPMF(taskType, node int, p cluster.PState) pmf.PMF {
	return m.table[taskType][node][p]
}

// ExecMean returns ExecPMF(taskType, node, p).Mean() from the precomputed
// table — the EET of a candidate assignment, sans the O(support) sum.
func (m *Model) ExecMean(taskType, node int, p cluster.PState) float64 {
	return m.mean[taskType][node][p]
}

// buildMeans fills the precomputed mean table from the pmf table.
func (m *Model) buildMeans() {
	m.mean = make([][][]float64, len(m.table))
	for ti, byNode := range m.table {
		m.mean[ti] = make([][]float64, len(byNode))
		for ni, row := range byNode {
			means := make([]float64, len(row))
			for st, p := range row {
				means[st] = p.Mean()
			}
			m.mean[ti][ni] = means
		}
	}
}

// LatticeRes divides t_avg to obtain the model's lattice step: t_avg/64
// keeps per-impulse quantization under 0.8% of a typical execution time
// while a depth-10 chain product stays a few thousand bins. EXPERIMENTS.md
// ("grid-step sensitivity") measures the choice against /32 and /128.
const LatticeRes = 64

// LatticeExec is one execution PMF snapped onto the model's lattice, with
// the derived scalars the mapping hot path reads per candidate.
type LatticeExec struct {
	Lat  pmf.Lattice
	Mean float64
	Min  float64
}

// ExecLattice returns the lattice form of ExecPMF(taskType, node, p). The
// entry is shared and read-only.
func (m *Model) ExecLattice(taskType, node int, p cluster.PState) *LatticeExec {
	return &m.lattice[taskType][node][p]
}

// LatticeStep returns the step of the model's lattice, t_avg/LatticeRes.
func (m *Model) LatticeStep() float64 { return m.latticeStep }

// buildLattice fills the lattice table from the pmf table.
func (m *Model) buildLattice() {
	m.latticeStep = m.tAvg / LatticeRes
	m.lattice = make([][][]LatticeExec, len(m.table))
	for ti, byNode := range m.table {
		m.lattice[ti] = make([][]LatticeExec, len(byNode))
		for ni, row := range byNode {
			lats := make([]LatticeExec, len(row))
			for st, p := range row {
				lat := pmf.ToLattice(p, m.latticeStep)
				lats[st] = LatticeExec{Lat: lat, Mean: lat.Mean(), Min: lat.Min()}
			}
			m.lattice[ti][ni] = lats
		}
	}
}

// TypeMeanExec returns the average execution time of the task type over all
// nodes and all P-states — the per-task deadline offset (§VI).
func (m *Model) TypeMeanExec(taskType int) float64 { return m.typeMean[taskType] }

// TAvg returns t_avg, the average execution time over all task types,
// nodes, and P-states (§VI; ≈1353 in the paper's instance).
func (m *Model) TAvg() float64 { return m.tAvg }

// Slice builds a sub-model owning only the given node indices: the cluster
// shrinks to those nodes and the pmf table keeps only their columns, while
// the per-type deadline offsets, t_avg, and arrival rates stay those of the
// parent. Deadlines and calibration are global properties of the workload —
// a task is no easier because it landed on a smaller shard — so a set of
// slices partitioning the parent admits the same tasks under the same
// deadlines as the parent itself. Node indices must be distinct, in-range,
// and non-empty; they need not be contiguous. The slice shares the parent's
// pmf and lattice rows (both immutable after build; the step follows t_avg,
// which the slice keeps), and its Hash() differs from the parent's because
// the serialized cluster and table differ.
func (m *Model) Slice(nodes []int) (*Model, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("workload: Slice: empty node set")
	}
	seen := make(map[int]bool, len(nodes))
	sub := &Model{
		Params:   m.Params,
		Cluster:  &cluster.Cluster{Nodes: make([]cluster.Node, len(nodes))},
		table:    make([][][]pmf.PMF, len(m.table)),
		typeMean: m.typeMean,
		tAvg:     m.tAvg,
		fastRate: m.fastRate,
		slowRate: m.slowRate,
		classOf:  m.classOf,

		lattice:     make([][][]LatticeExec, len(m.table)),
		latticeStep: m.latticeStep,
	}
	for j, ni := range nodes {
		if ni < 0 || ni >= m.Cluster.N() {
			return nil, fmt.Errorf("workload: Slice: node %d out of range [0,%d)", ni, m.Cluster.N())
		}
		if seen[ni] {
			return nil, fmt.Errorf("workload: Slice: duplicate node %d", ni)
		}
		seen[ni] = true
		sub.Cluster.Nodes[j] = m.Cluster.Nodes[ni]
	}
	for ti := range m.table {
		row := make([][]pmf.PMF, len(nodes))
		lats := make([][]LatticeExec, len(nodes))
		for j, ni := range nodes {
			row[j] = m.table[ti][ni]
			lats[j] = m.lattice[ti][ni]
		}
		sub.table[ti] = row
		sub.lattice[ti] = lats
	}
	sub.buildMeans()
	return sub, nil
}

// DefaultEnergyBudget returns ζ_max = t_avg × p_avg × WindowSize (§VI): the
// energy needed to run an average task at average power once per window
// task. By construction it is insufficient to run the whole window at high
// P-states, forcing the heuristics to trade performance for energy.
func (m *Model) DefaultEnergyBudget() float64 {
	return m.tAvg * m.Cluster.AvgPower() * float64(m.Params.WindowSize)
}
