package server

// The Router is the robustness boundary of the sharded serving stack: it
// owns N engine shards (disjoint node slices, energy sub-budgets carved from
// ζ_max, independent WAL incarnations), routes each request through a
// pluggable Placement policy with failover retry, probes shard liveness, and
// — when a shard dies — stops routing to it, bounces its queued-undecided
// work to survivors, and reclaims its unspent sub-budget so the global
// consumed ≤ ζ_max invariant is preserved without stranding headroom.
//
// Budget ledger invariant: Σ shard.budget + slack ≡ ζ_max at all times (the
// ledger is router-owned; each engine's meter mirrors its entry best-effort
// through AdjustBudget, and a failed grant parks the amount in slack rather
// than breaking the sum). Since every meter enforces consumed ≤ its
// sub-budget and the installed meter budgets never exceed the ledger,
// Σ consumed ≤ ζ_max holds globally across failover and rebalance.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// shardSeedStride de-correlates per-shard RNG streams: shard i serves with
// Seed + i*stride (the 64-bit golden ratio, the usual splitmix increment).
// Shard 0 keeps the base seed, so a one-shard router is seed-identical to
// the unsharded engine.
const shardSeedStride = 0x9e3779b97f4a7c15

// RouterConfig tunes the router tier around a base engine Config.
type RouterConfig struct {
	// Placement picks the shard for each request; nil = round-robin.
	Placement Placement
	// ProbeEvery is the wall-clock period between loop-liveness probes;
	// 0 disables the health prober (shards die only by explicit kill).
	ProbeEvery time.Duration
	// ProbeTimeout bounds one probe; defaults to 1s.
	ProbeTimeout time.Duration
	// SuspectAfter and DeadAfter are the consecutive-miss thresholds of the
	// health automaton (healthy → suspect → dead); default 1 and 3.
	SuspectAfter int
	DeadAfter    int
	// RebalanceEvery is the period between budget-controller passes that
	// shift sub-budgets toward observed per-shard consumption rates;
	// 0 disables rebalancing (death-time reclamation still runs).
	RebalanceEvery time.Duration
	// Metrics receives router_* instrumentation; nil disables.
	Metrics *metrics.Registry
	// Shape, when set, is called with each derived shard Config before the
	// shard engine is built — the hook ecserve uses to attach per-shard
	// flight-trace observers.
	Shape func(id int, cfg *Config)
}

// routerMetrics is the router-tier instrument bundle (nil-safe handles).
type routerMetrics struct {
	requests   *metrics.Counter
	failovers  *metrics.Counter
	noShard    *metrics.Counter
	kills      *metrics.Counter
	probeMiss  *metrics.Counter
	rebalances *metrics.Counter
	admitting  *metrics.Gauge
	reclaimed  *metrics.Gauge
	slackG     *metrics.Gauge
}

func newRouterMetrics(r *metrics.Registry) *routerMetrics {
	return &routerMetrics{
		requests:   r.Counter("router_requests_total"),
		failovers:  r.Counter("router_failovers_total"),
		noShard:    r.Counter("router_rejected_total", metrics.L("reason", RejectNoShard)),
		kills:      r.Counter("router_shard_kills_total"),
		probeMiss:  r.Counter("router_probe_misses_total"),
		rebalances: r.Counter("router_budget_rebalances_total"),
		admitting:  r.Gauge("router_shards_admitting"),
		reclaimed:  r.Gauge("router_budget_reclaimed"),
		slackG:     r.Gauge("router_budget_slack"),
	}
}

// Router fans requests across engine shards. Construct with NewSharded,
// then (optionally) RecoverAll, then Start; finish with Drain or Close, or
// DrainAllNow on the recovered-offline path.
type Router struct {
	shards []*Shard
	place  Placement
	cfg    RouterConfig

	baseSeed   uint64
	baseModel  *workload.Model // the full (unsliced) cluster, for /v1/model
	total      float64         // ζ_max (+Inf unconstrained); Σ ledger + slack ≡ total
	idleWindow float64         // ζ_max over the summed idle draw (+Inf unconstrained)

	// pickMu confines placement state (the round-robin cursor) and makes
	// candidate assembly + Choose atomic per request.
	pickMu sync.Mutex

	// budMu guards the sub-budget ledger: shard.budget, slack, lastCons.
	budMu     sync.Mutex
	slack     float64 // freed budget no live shard would accept (normally 0)
	reclaimed float64 // cumulative budget reclaimed from dead shards
	lastCons  []float64

	kills []fault.ShardKill // scripted chaos kills, control goroutine only

	started  atomic.Bool
	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	met *routerMetrics
}

// NewSharded partitions the base configuration into n engine shards behind a
// router. Shard i owns a contiguous node slice (greedily balanced by core
// count), an energy sub-budget proportional to its cores with Σ ≡ ζ_max
// exactly, seed Seed + i*stride, and WAL/checkpoint paths suffixed ".s<i>".
//
// n=1 is the identity: one shard with the whole cluster, the full budget,
// the base seed, and the unmodified WAL path — bit-identical to the
// unsharded engine on the same inputs.
//
// Scripted core/node fault entries are rejected at n>1 (their indices are
// global and cannot be split meaningfully); stochastic MTBF fault processes
// run independently per shard over its sub-cluster. shard-kill entries are
// consumed here by the router and never reach the engines.
func NewSharded(base Config, n int, rcfg RouterConfig) (*Router, error) {
	if base.Model == nil {
		return nil, errors.New("server: Config.Model is nil")
	}
	nNodes := base.Model.Cluster.N()
	if n < 1 {
		return nil, fmt.Errorf("server: shard count %d must be >= 1", n)
	}
	if n > nNodes {
		return nil, fmt.Errorf("server: shard count %d exceeds node count %d", n, nNodes)
	}
	if n > 1 && len(base.Faults.Script) > 0 {
		return nil, errors.New("server: scripted core/node faults are not supported with shards > 1 (indices are global); use stochastic mtbf faults or shard-kill")
	}
	kills := base.Faults.ShardKills
	for _, k := range kills {
		if k.Shard >= n {
			return nil, fmt.Errorf("server: shard-kill targets shard %d of %d", k.Shard, n)
		}
	}
	zeta := base.Budget
	if zeta == 0 {
		zeta = math.Inf(1)
	}
	if !(zeta > 0) {
		return nil, fmt.Errorf("server: budget %v must be positive (use 0 or +Inf to disable)", base.Budget)
	}

	parts := partitionNodes(base.Model.Cluster, n)
	coresOf := make([]int, n)
	totalCores := 0
	for i, p := range parts {
		for _, node := range p {
			coresOf[i] += base.Model.Cluster.Nodes[node].Cores()
		}
		totalCores += coresOf[i]
	}
	// Carve ζ_max ∝ core counts; the last shard takes the exact remainder
	// so the ledger sums to ζ_max to the bit.
	subs := make([]float64, n)
	if math.IsInf(zeta, 1) {
		for i := range subs {
			subs[i] = math.Inf(1)
		}
	} else {
		var acc float64
		for i := 0; i < n-1; i++ {
			subs[i] = zeta * float64(coresOf[i]) / float64(totalCores)
			acc += subs[i]
		}
		subs[n-1] = zeta - acc
	}

	if rcfg.Placement == nil {
		rcfg.Placement = &RoundRobinPlacement{}
	}
	if rcfg.ProbeTimeout <= 0 {
		rcfg.ProbeTimeout = time.Second
	}
	if rcfg.SuspectAfter <= 0 {
		rcfg.SuspectAfter = 1
	}
	if rcfg.DeadAfter <= rcfg.SuspectAfter {
		rcfg.DeadAfter = rcfg.SuspectAfter + 2
	}

	shards := make([]*Shard, n)
	for i := range shards {
		cfg := base
		cfg.Faults.ShardKills = nil // router-level; engines never see them
		if n > 1 {
			m, err := base.Model.Slice(parts[i])
			if err != nil {
				return nil, err
			}
			cfg.Model = m
			if !math.IsInf(subs[i], 1) {
				cfg.Budget = subs[i]
			}
			cfg.Seed = base.Seed + uint64(i)*shardSeedStride
			if base.WALPath != "" {
				cfg.WALPath = fmt.Sprintf("%s.s%d", base.WALPath, i)
				if base.CheckpointPath != "" {
					cfg.CheckpointPath = fmt.Sprintf("%s.s%d", base.CheckpointPath, i)
				}
			}
		}
		if rcfg.Shape != nil {
			rcfg.Shape(i, &cfg)
		}
		eng, err := Prepare(cfg)
		if err != nil {
			return nil, fmt.Errorf("server: shard %d: %w", i, err)
		}
		shards[i] = &Shard{ID: i, Nodes: parts[i], Cores: coresOf[i], eng: eng, budget: subs[i]}
	}
	sort.Slice(kills, func(a, b int) bool { return kills[a].Time < kills[b].Time })
	idleWindow := math.Inf(1)
	if !math.IsInf(zeta, 1) {
		// The global energy window is ζ_max over the whole cluster's idle
		// draw; each shard's meter carries its slice's rate (immutable after
		// construction, safe to read here before Start).
		var rate float64
		for _, sh := range shards {
			rate += sh.eng.Meter.Rate()
		}
		if rate > 0 {
			idleWindow = zeta / rate
		}
	}
	return &Router{
		shards:     shards,
		place:      rcfg.Placement,
		cfg:        rcfg,
		baseSeed:   base.Seed,
		baseModel:  base.Model,
		total:      zeta,
		idleWindow: idleWindow,
		lastCons:   make([]float64, n),
		kills:      append([]fault.ShardKill(nil), kills...),
		stopCh:     make(chan struct{}),
		met:        newRouterMetrics(rcfg.Metrics),
	}, nil
}

// Recovering reports whether any shard is still replaying its log.
func (rt *Router) Recovering() bool {
	for _, sh := range rt.shards {
		if sh.eng.Recovering() {
			return true
		}
	}
	return false
}

// partitionNodes splits the cluster's node indices into n contiguous,
// non-empty slices, greedily balancing core counts: each shard keeps taking
// the next node while that brings it closer to the remaining-average core
// target, always leaving one node for every shard still to come.
func partitionNodes(c *cluster.Cluster, n int) [][]int {
	total := c.TotalCores()
	parts := make([][]int, n)
	next, remCores := 0, total
	for i := 0; i < n; i++ {
		maxTake := c.N() - next - (n - 1 - i)
		target := float64(remCores) / float64(n-i)
		take := 1
		acc := c.Nodes[next].Cores()
		for take < maxTake {
			nc := c.Nodes[next+take].Cores()
			if math.Abs(float64(acc+nc)-target) <= math.Abs(float64(acc)-target) {
				acc += nc
				take++
			} else {
				break
			}
		}
		parts[i] = make([]int, take)
		for j := 0; j < take; j++ {
			parts[i][j] = next + j
		}
		next += take
		remCores -= acc
	}
	// Any stragglers (only possible through rounding pathologies) join the
	// last shard so every node is owned exactly once.
	for ; next < c.N(); next++ {
		parts[n-1] = append(parts[n-1], next)
	}
	return parts
}

// Shards returns the shard set (read-only view).
func (rt *Router) Shards() []*Shard { return rt.shards }

// Placement returns the active placement policy's name.
func (rt *Router) Placement() string { return rt.place.Name() }

// TotalBudget returns ζ_max (+Inf unconstrained).
func (rt *Router) TotalBudget() float64 { return rt.total }

// SubBudgets snapshots the router's sub-budget ledger, index = shard ID.
func (rt *Router) SubBudgets() []float64 {
	rt.budMu.Lock()
	defer rt.budMu.Unlock()
	out := make([]float64, len(rt.shards))
	for i, sh := range rt.shards {
		out[i] = sh.budget
	}
	return out
}

// SlackBudget returns the freed budget currently parked at the router
// because no live shard would accept it (normally 0).
func (rt *Router) SlackBudget() float64 {
	rt.budMu.Lock()
	defer rt.budMu.Unlock()
	return rt.slack
}

// RecoverAll replays each shard's checkpoint + WAL in shard order. On error
// a shard may hold a partly replayed state: the router must be discarded,
// not started.
func (rt *Router) RecoverAll() ([]*RecoveryReport, error) {
	reps := make([]*RecoveryReport, 0, len(rt.shards))
	for _, sh := range rt.shards {
		rep, err := sh.eng.RecoverFrom()
		if err != nil {
			return reps, fmt.Errorf("server: shard %d: %w", sh.ID, err)
		}
		// Recovery may have restored an adjusted (wkBudget) sub-budget;
		// re-anchor the ledger so Σ stays ≡ ζ_max against what the meters
		// actually enforce.
		rt.budMu.Lock()
		sh.budget = sh.eng.Budget()
		rt.budMu.Unlock()
		reps = append(reps, rep)
	}
	return reps, nil
}

// Start launches every shard engine and, when any periodic duty is
// configured (probes, rebalancing, scripted kills), the control goroutine.
func (rt *Router) Start() error {
	for _, sh := range rt.shards {
		if err := sh.eng.Start(); err != nil {
			return fmt.Errorf("server: shard %d: %w", sh.ID, err)
		}
	}
	rt.started.Store(true)
	if tick := rt.controlTick(); tick > 0 {
		rt.wg.Add(1)
		go rt.control(tick)
	}
	return nil
}

// controlTick returns the control loop period: the finest of the configured
// duties, or 0 when the router has nothing periodic to do.
func (rt *Router) controlTick() time.Duration {
	tick := time.Duration(0)
	consider := func(d time.Duration) {
		if d > 0 && (tick == 0 || d < tick) {
			tick = d
		}
	}
	consider(rt.cfg.ProbeEvery)
	consider(rt.cfg.RebalanceEvery)
	if len(rt.kills) > 0 {
		consider(25 * time.Millisecond)
	}
	return tick
}

// control is the router's periodic duty loop: scripted kills, health
// probes, and budget rebalancing.
func (rt *Router) control(tick time.Duration) {
	defer rt.wg.Done()
	t := time.NewTicker(tick)
	defer t.Stop()
	var lastProbe, lastReb time.Time
	for {
		select {
		case <-rt.stopCh:
			return
		case <-t.C:
			rt.fireScriptedKills()
			if rt.cfg.ProbeEvery > 0 && time.Since(lastProbe) >= rt.cfg.ProbeEvery {
				rt.probeAll()
				lastProbe = time.Now()
			}
			if rt.cfg.RebalanceEvery > 0 && time.Since(lastReb) >= rt.cfg.RebalanceEvery {
				rt.rebalance()
				lastReb = time.Now()
			}
		}
	}
}

// fireScriptedKills kills any shard whose virtual time has reached its
// scripted kill instant.
func (rt *Router) fireScriptedKills() {
	for len(rt.kills) > 0 {
		fired := false
		for i, k := range rt.kills {
			sh := rt.shards[k.Shard]
			if sh.Health() == ShardDead {
				rt.kills = append(rt.kills[:i], rt.kills[i+1:]...)
				fired = true
				break
			}
			if sh.eng.VirtualNow() >= k.Time {
				rt.kills = append(rt.kills[:i], rt.kills[i+1:]...)
				_ = rt.KillShard(k.Shard)
				fired = true
				break
			}
		}
		if !fired {
			return
		}
	}
}

// probeAll runs one liveness probe per live shard and advances the health
// automaton: a hit resets to healthy, consecutive misses escalate
// healthy → suspect → dead, and a dead verdict fail-stops the shard.
func (rt *Router) probeAll() {
	admitting := 0
	for _, sh := range rt.shards {
		if sh.Health() == ShardDead || sh.eng.Killed() {
			continue
		}
		if sh.eng.Recovering() {
			continue // no loop yet; not a liveness signal
		}
		if sh.eng.probeLiveness(rt.cfg.ProbeTimeout) {
			sh.misses = 0
			sh.health.Store(int32(ShardHealthy))
			admitting++
			continue
		}
		sh.misses++
		rt.met.probeMiss.Inc()
		switch {
		case sh.misses >= rt.cfg.DeadAfter:
			_ = rt.KillShard(sh.ID)
		case sh.misses >= rt.cfg.SuspectAfter:
			sh.health.Store(int32(ShardSuspect))
		}
	}
	rt.met.admitting.Set(float64(admitting))
}

// KillShard fail-stops one shard and reclaims its unspent sub-budget: the
// chaos kill switch (POST /v1/chaos/kill, shard-kill fault entries) and the
// prober's dead verdict both land here. In-flight work on the shard fails
// as shard-killed; its queued-but-undecided requests bounce back through
// the router's failover path to survivors. Idempotent.
func (rt *Router) KillShard(id int) error {
	if id < 0 || id >= len(rt.shards) {
		return fmt.Errorf("server: no shard %d (have %d)", id, len(rt.shards))
	}
	sh := rt.shards[id]
	for {
		h := sh.health.Load()
		if ShardHealth(h) == ShardDead {
			return nil // already dead; first kill did the work
		}
		if sh.health.CompareAndSwap(h, int32(ShardDead)) {
			break
		}
	}
	rt.met.kills.Inc()
	sh.eng.Kill() // blocks until the loop has fail-stopped; consumed is final
	rt.reclaimLocked(sh)
	return nil
}

// reclaimLocked moves the dead shard's unspent sub-budget to the survivors
// (∝ cores, exact remainder on the last grant) and pins the dead entry at
// its final consumption, preserving Σ ledger + slack ≡ ζ_max.
func (rt *Router) reclaimLocked(dead *Shard) {
	rt.budMu.Lock()
	defer rt.budMu.Unlock()
	if math.IsInf(rt.total, 1) {
		return
	}
	consumed := dead.eng.EnergyConsumed()
	freed := dead.budget - consumed
	if freed <= 0 {
		return
	}
	dead.budget = consumed
	var live []*Shard
	liveCores := 0
	for _, sh := range rt.shards {
		if sh.Health() == ShardDead || sh.eng.Killed() {
			continue
		}
		live = append(live, sh)
		liveCores += sh.Cores
	}
	left := freed
	for i, sh := range live {
		share := left
		if i < len(live)-1 {
			share = freed * float64(sh.Cores) / float64(liveCores)
			if share > left {
				share = left
			}
		}
		if share <= 0 {
			continue
		}
		if err := sh.eng.AdjustBudget(sh.budget + share); err == nil {
			sh.budget += share
			left -= share
		}
	}
	rt.slack += left
	rt.reclaimed += freed - left
	rt.met.reclaimed.Set(rt.reclaimed)
	rt.met.slackG.Set(rt.slack)
}

// rebalance shifts sub-budgets toward observed per-shard consumption rates:
// the live shards' pooled headroom (plus any parked slack) is re-split
// proportionally to energy consumed since the previous pass, so a shard
// burning faster than its carve grows its budget at the expense of idle
// ones. Decreases are applied before increases and every grant moves
// through the freed pool, so Σ ledger + slack ≡ ζ_max holds at every step
// and the installed meter budgets never overshoot the ledger.
func (rt *Router) rebalance() {
	rt.budMu.Lock()
	defer rt.budMu.Unlock()
	if math.IsInf(rt.total, 1) {
		return
	}
	type entry struct {
		sh     *Shard
		cons   float64
		rate   float64
		target float64
	}
	var live []entry
	var pool, consSum, rateSum float64
	for _, sh := range rt.shards {
		cons := sh.eng.EnergyConsumed()
		if sh.Health() == ShardDead || sh.eng.Killed() {
			rt.lastCons[sh.ID] = cons
			continue
		}
		rate := math.Max(0, cons-rt.lastCons[sh.ID])
		rt.lastCons[sh.ID] = cons
		live = append(live, entry{sh: sh, cons: cons, rate: rate})
		pool += sh.budget
		consSum += cons
		rateSum += rate
	}
	if len(live) < 2 {
		return
	}
	pool += rt.slack
	headroom := pool - consSum
	if headroom <= 0 {
		return
	}
	var acc float64
	for i := range live {
		w := 1 / float64(len(live))
		if rateSum > 0 {
			w = live[i].rate / rateSum
		}
		if i < len(live)-1 {
			live[i].target = live[i].cons + headroom*w
			acc += live[i].target
		} else {
			live[i].target = math.Max(live[i].cons, pool-acc)
		}
	}
	// Skip immaterial churn: below 1% of the pool a pass would only spend
	// WAL records and fsyncs to move noise.
	maxDelta := 0.0
	for _, en := range live {
		maxDelta = math.Max(maxDelta, math.Abs(en.target-en.sh.budget))
	}
	if maxDelta < 0.01*pool {
		return
	}
	freed := rt.slack
	rt.slack = 0
	for _, en := range live {
		if en.target >= en.sh.budget {
			continue
		}
		if err := en.sh.eng.AdjustBudget(en.target); err == nil {
			freed += en.sh.budget - en.target
			en.sh.budget = en.target
		}
	}
	for _, en := range live {
		want := en.target - en.sh.budget
		if want <= 0 || freed <= 0 {
			continue
		}
		grant := math.Min(want, freed)
		if err := en.sh.eng.AdjustBudget(en.sh.budget + grant); err == nil {
			en.sh.budget += grant
			freed -= grant
		}
	}
	rt.slack = freed
	rt.met.rebalances.Inc()
	rt.met.slackG.Set(rt.slack)
}

// failoverReason reports whether a rejection is about shard availability —
// worth retrying on a survivor — rather than a semantic verdict on the
// request (tenant quotas, class-weighted brownout) that must not be
// laundered by shopping the request across shards.
func failoverReason(reason string) bool {
	switch reason {
	case RejectShardDown, RejectQueueFull, RejectDraining, RejectRecovering, ShedHalted:
		return true
	}
	return false
}

// Submit routes one request: the placement policy picks among admitting
// shards (healthy first; suspect only when no healthy shard can take it),
// and availability rejections fail over to the next survivor. When every
// shard is dead or without headroom the request is shed with RejectNoShard
// and a Retry-After. A task bounced off a dying shard (shard-down) was
// never durably admitted there, so re-routing cannot double-decide it.
func (rt *Router) Submit(req TaskRequest) (Decision, error) {
	rt.met.requests.Inc()
	tried := make([]bool, len(rt.shards))
	var lastRej *ErrRejected
	for {
		sh := rt.pick(tried)
		if sh == nil {
			break
		}
		d, err := sh.eng.Submit(req)
		if err == nil {
			return d, nil
		}
		var rej *ErrRejected
		if errors.As(err, &rej) && failoverReason(rej.Reason) {
			tried[sh.ID] = true
			lastRej = rej
			rt.met.failovers.Inc()
			continue
		}
		return d, err
	}
	rt.met.noShard.Inc()
	ra := time.Second
	if lastRej != nil && lastRej.RetryAfter > ra {
		ra = lastRej.RetryAfter
	}
	return Decision{}, &ErrRejected{Reason: RejectNoShard, RetryAfter: ra}
}

// pick assembles the candidate set and runs the placement policy under the
// placement mutex (stateful policies, atomic signal snapshot).
func (rt *Router) pick(tried []bool) *Shard {
	rt.pickMu.Lock()
	defer rt.pickMu.Unlock()
	cands := rt.candidates(tried, ShardHealthy)
	if len(cands) == 0 {
		cands = rt.candidates(tried, ShardSuspect)
	}
	if len(cands) == 0 {
		return nil
	}
	return rt.place.Choose(cands).Shard
}

// candidates lists the untried admitting shards at one health tier, in
// ascending shard-ID order.
func (rt *Router) candidates(tried []bool, h ShardHealth) []*ShardCandidate {
	var out []*ShardCandidate
	for _, sh := range rt.shards {
		if tried[sh.ID] || sh.Health() != h || !sh.admitting() {
			continue
		}
		out = append(out, &ShardCandidate{
			Shard:    sh,
			QueueLen: sh.eng.QueueDepth(),
			QueueCap: sh.eng.QueueCap(),
			InFlight: sh.eng.st.inflight.Load(),
			Consumed: sh.eng.EnergyConsumed(),
			Budget:   sh.eng.Budget(),
		})
	}
	return out
}

// Admitting reports whether at least one shard can take new work — the
// router-level readiness bit.
func (rt *Router) Admitting() bool {
	for _, sh := range rt.shards {
		if sh.admitting() {
			return true
		}
	}
	return false
}

// ShardStatus is one shard's row in the /v1/readyz document.
type ShardStatus struct {
	ID         int     `json:"id"`
	Health     string  `json:"health"` // healthy | suspect | dead | recovering
	Admitting  bool    `json:"admitting"`
	Nodes      []int   `json:"nodes"`
	Cores      int     `json:"cores"`
	QueueDepth int     `json:"queueDepth"`
	VirtualNow float64 `json:"virtualNow"`
	Consumed   float64 `json:"energyConsumed"`
	Budget     float64 `json:"energyBudget,omitempty"`
}

// ShardStatuses snapshots per-shard readiness for /v1/readyz.
func (rt *Router) ShardStatuses() []ShardStatus {
	out := make([]ShardStatus, len(rt.shards))
	for i, sh := range rt.shards {
		out[i] = ShardStatus{
			ID:         sh.ID,
			Health:     sh.HealthString(),
			Admitting:  sh.admitting(),
			Nodes:      sh.Nodes,
			Cores:      sh.Cores,
			QueueDepth: sh.eng.QueueDepth(),
			VirtualNow: sh.eng.VirtualNow(),
			Consumed:   sh.eng.EnergyConsumed(),
		}
		if b := sh.eng.Budget(); !math.IsInf(b, 1) {
			out[i].Budget = b
		}
	}
	return out
}

// Stats aggregates the accounting across shards: counters sum (each shard's
// ledger balances independently, so the sum balances too), virtual time and
// brownout stage take the maximum, and the energy budget is ζ_max.
func (rt *Router) Stats() Stats {
	var agg Stats
	agg.Draining, agg.Halted = true, true
	for _, sh := range rt.shards {
		s := sh.eng.Stats()
		agg.Received += s.Received
		agg.Rejected += s.Rejected
		agg.Admitted += s.Admitted
		agg.Mapped += s.Mapped
		agg.Shed += s.Shed
		agg.TimedOut += s.TimedOut
		agg.OnTime += s.OnTime
		agg.Late += s.Late
		agg.Failed += s.Failed
		agg.InFlight += s.InFlight
		agg.Assigned += s.Assigned
		agg.Faults += s.Faults
		agg.Retries += s.Retries
		agg.BreakerOpens += s.BreakerOpens
		agg.ShedFiltered += s.ShedFiltered
		agg.ShedInfeasible += s.ShedInfeasible
		agg.ShedBrownout += s.ShedBrownout
		agg.ShedHalted += s.ShedHalted
		agg.EnergyConsumed += s.EnergyConsumed
		agg.VirtualNow = math.Max(agg.VirtualNow, s.VirtualNow)
		if s.BrownoutStage > agg.BrownoutStage {
			agg.BrownoutStage = s.BrownoutStage
		}
		agg.Draining = agg.Draining && s.Draining
		agg.Halted = agg.Halted && s.Halted
	}
	if !math.IsInf(rt.total, 1) {
		agg.EnergyBudget = rt.total
	}
	return agg
}

// FinalReport aggregates the post-drain document: global stats, the orphan
// check over the summed ledger, per-tenant accounting merged across shards,
// plus every shard's own report for per-shard auditing.
func (rt *Router) FinalReport() *FinalReport {
	st := rt.Stats()
	orphaned := (st.Admitted - st.Mapped - st.Shed - st.TimedOut) +
		(st.Mapped - st.OnTime - st.Late - st.Failed)
	r := &FinalReport{
		Policy:        rt.shards[0].eng.cfg.Mapper.Name(),
		Seed:          rt.baseSeed,
		UptimeSeconds: time.Since(rt.shards[0].eng.started).Seconds(),
		Stats:         st,
		Orphaned:      orphaned,
		Balanced:      st.Balanced() && st.InFlight == 0,
		Tenants:       rt.mergedTenants(),
		Shards:        rt.ShardStatuses(),
	}
	if reg := rt.shards[0].eng.cfg.Metrics; reg != nil {
		r.Metrics = reg.Snapshot()
	}
	return r
}

// mergedTenants sums per-tenant accounting across shards, sorted by id.
func (rt *Router) mergedTenants() []TenantReport {
	byID := map[string]*TenantReport{}
	var order []string
	for _, sh := range rt.shards {
		for _, t := range sh.eng.TenantReports() {
			agg := byID[t.ID]
			if agg == nil {
				cp := t
				byID[t.ID] = &cp
				order = append(order, t.ID)
				continue
			}
			agg.Admitted += t.Admitted
			agg.Rejected += t.Rejected
			agg.Mapped += t.Mapped
			agg.Shed += t.Shed
			agg.ShedInfeasible += t.ShedInfeasible
			agg.TimedOut += t.TimedOut
			agg.OnTime += t.OnTime
			agg.Late += t.Late
			agg.Failed += t.Failed
			agg.Quarantines += t.Quarantines
		}
	}
	if len(order) == 0 {
		return nil
	}
	sort.Strings(order)
	out := make([]TenantReport, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return out
}

// stopControl halts the periodic duties before any shutdown path.
func (rt *Router) stopControl() {
	rt.stopOnce.Do(func() { close(rt.stopCh) })
	rt.wg.Wait()
}

// Drain gracefully shuts every live shard down concurrently (each drain
// fast-forwards its own virtual axis). Dead shards have already flushed.
func (rt *Router) Drain(ctx context.Context) error {
	rt.stopControl()
	errs := make([]error, len(rt.shards))
	var wg sync.WaitGroup
	for i, sh := range rt.shards {
		if sh.eng.Killed() {
			continue
		}
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			errs[i] = sh.eng.Drain(ctx)
		}(i, sh)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Close stops every shard without draining.
func (rt *Router) Close() {
	rt.stopControl()
	for _, sh := range rt.shards {
		sh.eng.Close()
	}
}

// DrainAllNow is the deterministic multi-shard drain for the
// recovered-offline path (loops never started): every shard freezes its
// clock at its recovered instant, then one orchestrator goroutine
// interleaves event processing across shards on the shared virtual axis —
// always advancing the shard with the earliest pending event, ties to the
// lowest shard ID — until no shard has work left. With one shard this is
// step-for-step identical to Engine.DrainNow, which is what the shards=1
// bit-identity gate asserts.
func (rt *Router) DrainAllNow() error {
	rt.stopControl()
	for _, sh := range rt.shards {
		sh.eng.beginInlineDrain()
	}
	grace := rt.shards[0].eng.cfg.DrainGrace
	deadline := time.Now().Add(grace)
	for {
		var best *Engine
		bt := math.Inf(1)
		for _, sh := range rt.shards {
			e := sh.eng
			if e.pendingWork() == 0 || e.halted.Load() || !e.HasPendingEvents() {
				continue
			}
			if t := e.PeekNextEventTime(); t < bt {
				best, bt = e, t
			}
		}
		if best == nil || time.Now().After(deadline) {
			break
		}
		best.ProcessNextEvent()
	}
	errs := make([]error, len(rt.shards))
	for i, sh := range rt.shards {
		errs[i] = sh.eng.drainFinish()
		sh.eng.finishInlineDrain()
	}
	return errors.Join(errs...)
}
