package robustness

import (
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/pmf"
)

// FreeTimeEngine is the production ρ path: it caches each core's §IV-B
// free-time chain, on the model's lattice, across mapping decisions. The
// naive pipeline rebuilds every core's chain from scratch at every
// decision, yet an immediate-mode decision mutates exactly one core's queue
// — on a 64-core cluster ~63 chains are recomputed identically on the next
// arrival.
//
// Lattice convolution is exact and associative, so the chain splits into a
// now-independent factor — the dense product of the waiting tasks'
// execution lattices, cached per queue version and extended by one
// convolution per tail enqueue — and the running head's truncation, which
// depends on the decision instant only through its cut index
// (pmf.Lattice.SearchValue). The tail ⊛ head product is cached per
// (version, cut, length) and answers every candidate's ρ on the core from
// its prefix sums. Every answer is bit-identical to the Calculator's
// uncached Grid* reference on the same queue.
//
// Contract: callers own the invalidation discipline. Every queue mutation
// other than a pure tail enqueue — head start, head completion, waiting
// task cancellation, fault requeue, core down — must call Invalidate for
// that core; a tail enqueue must call OnEnqueue. Heads that resist caching
// are derived per query: an unstarted head depends on the raw decision
// instant (pure shift by now), and a fully overdue head degenerates to a
// point at now; neither is stored.
//
// The engine is NOT safe for concurrent use: each simulation engine and
// the online server run their event loops on a single goroutine and own
// one engine instance. That single owner is what lets the engine count in
// plain fields (see Flush). A nil engine accepts Invalidate, OnEnqueue and
// Flush as no-ops, so an owner running without one (the exact-ρ oracle)
// keeps its hooks unconditional.
type FreeTimeEngine struct {
	calc  *Calculator
	cores []coreChain

	// pending holds the counts accumulated since the last Flush, which
	// publishes pending[i] to out[i] (attached via Instrument; nil-safe).
	pending [numTallies]int64
	out     [numTallies]*metrics.Counter
}

// tally indexes the engine's counts.
type tally int

const (
	tHits tally = iota
	tMisses
	tExtends
	tRebuilds
	tSkips
	tKernelRho
	tFreeHits
	tFreeMisses
	numTallies
)

// FreeSource is the type of ProbOnTime's last argument, which the engine
// ignores. It survives only so that signature keeps compiling for
// benchmark/kernels.go (see SetGrid).
type FreeSource interface{ FreePMF() pmf.PMF }

// coreChain is one core's cached state, all guarded by ver: Invalidate
// bumps ver, which lazily discards every derived value below.
type coreChain struct {
	ver uint64

	// baseL is the running head's execution lattice shifted by its start —
	// the now-independent part of the head stage, derived once per version;
	// headL is baseL truncated at headLCut and renormalized, built only on
	// the ρ path into headScratch, so the cut drifting with now recycles
	// the same backing arrays. headMean is the mean of baseL truncated at
	// headMeanCut, which FreeMean reads without building the truncated
	// lattice, and freeMean is FreeMean's whole answer for that head with
	// freeMeanLen tasks queued (0: not yet summed for this head entry).
	baseL    pmf.Lattice
	baseLVer uint64
	baseLOK  bool

	headL       pmf.Lattice
	headLCut    int
	headLVer    uint64
	headLOK     bool
	headScratch pmf.LatticeScratch

	headMean    float64
	headMeanCut int
	headMeanVer uint64
	headMeanOK  bool
	freeMean    float64
	freeMeanLen int

	// tail is the dense product of the waiting tasks' execution lattices —
	// the now-independent part of the chain that lattice associativity
	// makes cacheable on its own. tailLen counts the lattices folded in.
	tail    pmf.Grid
	tailLen int
	tailVer uint64
	tailOK  bool

	// hw is the dense tail ⊛ headL product, keyed by (version, cut, len).
	// It is the shared factor of every candidate's ρ on this core — ConvCDF
	// answers each candidate against its prefix sums in O(|exec|) — and
	// FreeTime materializes its sparse form from it. Only cacheable heads
	// (cut ≥ 0) are stored. The product is rebuilt into hwScratch, so the
	// cut drifting with now (which invalidates it once per decision per
	// busy core at steady state) recycles the same backing arrays instead
	// of churning the heap; hw is therefore only valid until the next
	// rebuild, which is exactly its cache lifetime.
	hw        pmf.Grid
	hwScratch pmf.GridScratch
	hwCut     int
	hwLen     int
	hwVer     uint64
	hwOK      bool

	// rho memoizes the candidate-independent slice of a ρ evaluation — the
	// head lattice, its cut, and the chain's minimum completion bound — per
	// (version, queue length, decision instant). Every P-state candidate on
	// the core shares these within a decision. rhoHead may alias
	// headScratch, so latticeHead clears rhoOK whenever it rewrites it.
	rhoHead    pmf.Lattice
	rhoCut     int
	rhoFreeMin float64
	rhoNow     float64
	rhoLen     int
	rhoVer     uint64
	rhoOK      bool

	// chain is the materialized sparse form of tail ⊛ headL that FreeTime
	// returns, keyed by (version, cut, len).
	chain    pmf.PMF
	chainCut int
	chainLen int
	chainVer uint64
	chainOK  bool
}

// NewFreeTimeEngine returns an engine for numCores cores evaluating
// against calc's model.
func NewFreeTimeEngine(calc *Calculator, numCores int) *FreeTimeEngine {
	if calc == nil {
		panic("robustness: nil calculator")
	}
	return &FreeTimeEngine{calc: calc, cores: make([]coreChain, numCores)}
}

// Instrument attaches the engine's counters. hits/misses/rebuilds describe
// the materialized chain FreeTime returns: served untouched, built with no
// reusable predecessor, or re-derived for the same queue because the
// running head's truncation cut drifted. extends counts tail enqueues
// absorbed with one convolution. skips counts ρ evaluations resolved to
// exactly zero by the infeasibility bound without touching a distribution;
// gridRho counts the rest, answered by the lattice CDF kernels, and
// freeHits/freeMisses whether the waiting-tail product those read was
// served from cache or had to be folded. Any counter may be nil.
//
// The counters are published at Flush, not as events happen: they are
// exact at the owner's decision boundaries, where it flushes.
func (e *FreeTimeEngine) Instrument(hits, misses, extends, rebuilds, skips, gridRho, freeHits, freeMisses *metrics.Counter) {
	e.out = [numTallies]*metrics.Counter{
		tHits: hits, tMisses: misses, tExtends: extends, tRebuilds: rebuilds, tSkips: skips,
		tKernelRho: gridRho, tFreeHits: freeHits, tFreeMisses: freeMisses,
	}
}

// Flush publishes the counts accumulated since the last Flush, with one
// atomic add per non-zero count: the instrumented counters, the
// calculator's completion evaluations (one per kernel ρ) and
// pmf.CountRhoEvals. With nothing pending it does no atomic at all. The
// owner calls it at the end of each decision, so every reader of the
// registry or of pmf.ReadOpCounts sees exact counts between decisions.
func (e *FreeTimeEngine) Flush() {
	if e == nil {
		return
	}
	if n := e.pending[tKernelRho]; n != 0 {
		pmf.CountRhoEvals(n)
		e.calc.completionEvals.Add(n)
	}
	for i, n := range e.pending {
		if n != 0 {
			e.out[i].Add(n)
			e.pending[i] = 0
		}
	}
}

// SetGrid is a no-op: the lattice is the engine's only representation. It
// remains because benchmark/kernels.go calls it and BENCHMARK.json freezes
// that directory; the benchmark PR that drops the two calls drops this shim
// (and ProbOnTime's ignored FreeSource argument) with them.
func (e *FreeTimeEngine) SetGrid(bool) {}

// Invalidate discards the core's cached state. Call it on every queue
// mutation that is not a pure tail enqueue.
func (e *FreeTimeEngine) Invalidate(coreIdx int) {
	if e == nil {
		return
	}
	e.cores[coreIdx].ver++
}

// OnEnqueue absorbs a task of the given type appended at P-state ps to the
// tail of the core's queue, which now holds queueLen tasks. If the core
// has a current tail product for the previous queue, one convolution
// extends it in place of the full fold the next query would otherwise pay;
// if not (stale or never built), the next query folds lazily.
func (e *FreeTimeEngine) OnEnqueue(coreIdx, node, taskType int, ps cluster.PState, queueLen int) {
	if e == nil {
		return
	}
	c := &e.cores[coreIdx]
	switch {
	case queueLen == 1:
		// The enqueued task is the head: the waiting tail is empty, and
		// the identity product is valid no matter what was cached.
		c.tail, c.tailLen, c.tailVer, c.tailOK = e.calc.identity, 0, c.ver, true
	case c.tailOK && c.tailVer == c.ver && c.tailLen == queueLen-2:
		// Extending at the right end is exactly the next iteration of
		// the left-to-right fold gridTail runs, so the extended product
		// is bit-identical to a fresh rebuild.
		c.tail = c.tail.ConvolveLattice(e.calc.model.ExecLattice(taskType, node, ps).Lat)
		c.tailLen = queueLen - 1
		e.pending[tExtends]++
	default:
		c.tailOK = false
	}
}

// FreeMean returns E[free time] by linearity, bit-identical to
// Calculator.GridFreeMean: the (truncated) head lattice mean — computed
// without building the truncated lattice — plus the lattice means of the
// waiting tasks. With a started head the sum is cached per (version, queue
// length, cut): a hit is the same expression on the same inputs, so it is
// bit-identical, and it costs one cut check instead of the head's truncated
// mean and a pass over the tail. Unstarted, fully overdue and empty heads
// depend on the raw now and are summed per query. It allocates nothing.
func (e *FreeTimeEngine) FreeMean(coreIdx int, q CoreQueue, now float64) float64 {
	if len(q.Tasks) == 0 {
		return now
	}
	c := &e.cores[coreIdx]
	mean, cached := e.headMeanAt(c, q, now)
	if cached && c.freeMeanLen == len(q.Tasks) {
		return c.freeMean
	}
	for _, t := range q.Tasks[1:] {
		mean += e.calc.model.ExecLattice(t.Type, q.Node, t.PState).Mean
	}
	if cached {
		c.freeMean, c.freeMeanLen = mean, len(q.Tasks)
	}
	return mean
}

// FreeTime returns the core's free-time distribution at now,
// bit-identical to Calculator.GridFreeTime on the same queue. A query whose
// queue version, length, and head cut all match the cached chain is a
// cache hit and costs zero convolutions.
func (e *FreeTimeEngine) FreeTime(coreIdx int, q CoreQueue, now float64) pmf.PMF {
	c := &e.cores[coreIdx]
	if len(q.Tasks) == 0 {
		return pmf.Point(now)
	}
	e.calc.freeTimeEvals.Inc()
	headL, cut := e.latticeHead(c, q, now)
	if c.chainOK && c.chainVer == c.ver && c.chainLen == len(q.Tasks) && cut >= 0 && c.chainCut == cut {
		e.pending[tHits]++
		return c.chain
	}
	rebuild := c.chainOK && c.chainVer == c.ver && c.chainLen == len(q.Tasks)
	var free pmf.PMF
	if cut >= 0 {
		wh, _, _ := e.hwFor(c, q, &headL, cut)
		free = wh.PMF()
		c.chain, c.chainCut, c.chainLen, c.chainVer, c.chainOK = free, cut, len(q.Tasks), c.ver, true
	} else {
		// The head is uncacheable (unstarted or fully overdue); any stored
		// chain for this version can never match again.
		tail, _ := e.tailFor(c, q)
		free = tail.ConvolveLattice(headL).PMF()
		c.chainOK = false
	}
	if rebuild {
		e.pending[tRebuilds]++
	} else {
		e.pending[tMisses]++
	}
	return free
}

// ProbOnTime returns ρ(i,j,k,π,t_l,z) for a candidate of taskType at
// P-state ps against the core's current queue, bit-identical to
// Calculator.GridProbOnTime: the head truncation and the waiting-tail
// product come from the per-core caches, and ρ is read from prefix sums of
// the cached tail⊛head product (or the direct double sum when the head is
// uncacheable). The FreeSource argument is ignored (see FreeSource).
//
// Infeasibility short-circuit: every impulse of the completion
// distribution lies at or above the sum of its operands' support minima.
// The lattice kernels sum prefix sums at floor-index offsets, and a
// deadline below that bound by a 1e-9 relative guard — orders of magnitude
// wider than the ~1e-16 rounding between the bound's float expression and
// the kernel's — lands every index strictly before the first massive bin,
// so the kernel would return exactly 0.0; the skip returns it with no
// distribution touched. Overloaded cores make this the common case.
func (e *FreeTimeEngine) ProbOnTime(coreIdx int, q CoreQueue, now float64, taskType int, ps cluster.PState, deadline float64, _ FreeSource) float64 {
	c := &e.cores[coreIdx]
	exec := e.calc.model.ExecLattice(taskType, q.Node, ps)
	if !(c.rhoOK && c.rhoVer == c.ver && c.rhoLen == len(q.Tasks) && c.rhoNow == now) {
		if len(q.Tasks) == 0 {
			c.rhoHead = pmf.PointLattice(now, e.calc.model.LatticeStep())
			c.rhoCut = -1
			c.rhoFreeMin = now
		} else {
			c.rhoHead, c.rhoCut = e.latticeHead(c, q, now)
			freeMin := c.rhoHead.Min()
			for _, t := range q.Tasks[1:] {
				freeMin += e.calc.model.ExecLattice(t.Type, q.Node, t.PState).Min
			}
			c.rhoFreeMin = freeMin
		}
		c.rhoVer, c.rhoLen, c.rhoNow, c.rhoOK = c.ver, len(q.Tasks), now, true
	}
	if bound := c.rhoFreeMin + exec.Min; bound > 0 && deadline < bound*(1-1e-9) {
		e.pending[tSkips]++
		return 0
	}
	e.pending[tKernelRho]++
	if c.rhoCut >= 0 {
		// Cacheable head: every candidate on this core shares the dense
		// tail⊛head factor, so ρ is one O(|exec|) prefix-sum pass.
		wh, hit, folded := e.hwFor(c, q, &c.rhoHead, c.rhoCut)
		if hit || !folded {
			e.pending[tFreeHits]++
		} else {
			e.pending[tFreeMisses]++
		}
		return wh.ConvCDF(&exec.Lat, deadline)
	}
	tail, folded := e.tailFor(c, q)
	if folded {
		e.pending[tFreeMisses]++
	} else {
		e.pending[tFreeHits]++
	}
	return pmf.TripleConvCDF(&c.rhoHead, tail, &exec.Lat, deadline)
}

// hwFor returns the core's dense tail ⊛ headL product for a cacheable head
// (cut ≥ 0), plus whether it came straight from the cache and — when it
// did not — whether the underlying tail had to be folded fresh. The
// product is the same expression Calculator.GridProbOnTime materializes,
// so cached and fresh answers are bit-identical.
func (e *FreeTimeEngine) hwFor(c *coreChain, q CoreQueue, headL *pmf.Lattice, cut int) (*pmf.Grid, bool, bool) {
	if c.hwOK && c.hwVer == c.ver && c.hwLen == len(q.Tasks) && c.hwCut == cut {
		return &c.hw, true, false
	}
	tail, folded := e.tailFor(c, q)
	c.hw = tail.ConvolveLatticeInto(*headL, &c.hwScratch)
	c.hwCut, c.hwLen, c.hwVer, c.hwOK = cut, len(q.Tasks), c.ver, true
	return &c.hw, false, folded
}

// latticeHead derives (and caches) the head stage in lattice form —
// bit-identical to Calculator.gridHead. The shifted base lattice is cached
// per version and its truncation per cut, rebuilt into the core's scratch;
// uncacheable heads (unstarted: pure shift by now; fully overdue:
// degenerate point at now) are returned with cut == -1 and never stored.
func (e *FreeTimeEngine) latticeHead(c *coreChain, q CoreQueue, now float64) (pmf.Lattice, int) {
	t0 := q.Tasks[0]
	if !t0.Started {
		return e.calc.model.ExecLattice(t0.Type, q.Node, t0.PState).Lat.Shift(now), -1
	}
	base := e.baseLattice(c, q)
	if c.headLOK && c.headLVer == c.ver && base.IsCut(c.headLCut, now) {
		return c.headL, c.headLCut
	}
	cut := base.SearchValue(now)
	trunc, kept := base.TruncateInto(cut, &c.headScratch)
	if kept <= 0 {
		// All remaining mass is overdue: the same degenerate point the
		// naive pipeline produces. Depends on raw now, so never cached.
		return pmf.PointLattice(now, e.calc.model.LatticeStep()), -1
	}
	// The scratch may have been rewritten under a ρ memo that aliases it.
	c.rhoOK = false
	c.headL, c.headLCut, c.headLVer, c.headLOK = trunc, cut, c.ver, true
	return c.headL, cut
}

// headMeanAt is the mean of the head stage latticeHead derives, without
// materializing a truncated lattice: pmf.Lattice.TruncatedMean is
// bit-identical to TruncateAt followed by Mean. A started head's mean is
// cached per (version, cut), and the cached cut is checked before any
// search; ok reports that the returned mean is that cache entry's. The
// uncacheable heads are derived per query with ok == false.
func (e *FreeTimeEngine) headMeanAt(c *coreChain, q CoreQueue, now float64) (mean float64, ok bool) {
	t0 := q.Tasks[0]
	if !t0.Started {
		head := e.calc.model.ExecLattice(t0.Type, q.Node, t0.PState).Lat.Shift(now)
		return head.Mean(), false
	}
	base := e.baseLattice(c, q)
	if c.headMeanOK && c.headMeanVer == c.ver && base.IsCut(c.headMeanCut, now) {
		return c.headMean, true
	}
	cut := base.SearchValue(now)
	mean, kept := base.TruncatedMean(cut)
	if kept <= 0 {
		return now, false // the degenerate point at now
	}
	c.headMean, c.headMeanCut, c.headMeanVer, c.headMeanOK = mean, cut, c.ver, true
	c.freeMeanLen = 0
	return mean, true
}

// baseLattice returns the started head's execution lattice shifted by its
// start, derived once per version.
func (e *FreeTimeEngine) baseLattice(c *coreChain, q CoreQueue) *pmf.Lattice {
	if !c.baseLOK || c.baseLVer != c.ver {
		t0 := q.Tasks[0]
		c.baseL = e.calc.model.ExecLattice(t0.Type, q.Node, t0.PState).Lat.Shift(t0.StartAt)
		c.baseLVer, c.baseLOK = c.ver, true
	}
	return &c.baseL
}

// tailFor returns the core's waiting-tail product and whether it had to be
// folded fresh (as opposed to served from cache or trivially the
// identity). A rebuild is the same left-to-right fold gridTail runs, so
// cached, extended, and fresh tails are all bit-identical.
func (e *FreeTimeEngine) tailFor(c *coreChain, q CoreQueue) (*pmf.Grid, bool) {
	if len(q.Tasks) <= 1 {
		return &e.calc.identity, false
	}
	if c.tailOK && c.tailVer == c.ver && c.tailLen == len(q.Tasks)-1 {
		return &c.tail, false
	}
	c.tail = e.calc.gridTail(q)
	c.tailLen = len(q.Tasks) - 1
	c.tailVer = c.ver
	c.tailOK = true
	return &c.tail, true
}
