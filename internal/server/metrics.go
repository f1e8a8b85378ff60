package server

import "repro/internal/metrics"

// serverMetrics bundles the serving-path instrument handles. All handles
// come from the configured registry and are nil-safe, so an unconfigured
// server pays only dead branches.
type serverMetrics struct {
	requests *metrics.Counter
	admitted *metrics.Counter

	rejectedQueueFull  *metrics.Counter
	rejectedDraining   *metrics.Counter
	rejectedBrownout   *metrics.Counter
	rejectedHalted     *metrics.Counter
	rejectedBadReq     *metrics.Counter
	rejectedRecovering *metrics.Counter
	rejectedShardDown  *metrics.Counter
	rejectedTenant     map[string]*metrics.Counter

	mapped        *metrics.Counter
	shed          map[string]*metrics.Counter
	timedout      *metrics.Counter
	completedOn   *metrics.Counter
	completedLate *metrics.Counter
	failed        *metrics.Counter

	faults       *metrics.Counter
	retries      *metrics.Counter
	breakerOpens *metrics.Counter

	walRecords *metrics.Counter
	// walCommits counts the engine's WAL fsyncs: commits that had records
	// to flush and sync. A commit with nothing staged is not counted, and
	// neither are the header's and the close's fsyncs.
	walCommits        *metrics.Counter
	walErrors         *metrics.Counter
	checkpoints       *metrics.Counter
	recoveryReplayed  *metrics.Counter
	recoveryRedecided *metrics.Counter

	queueWait  *metrics.Histogram
	decideTime *metrics.Histogram
	queueHigh  *metrics.Max
	inflight   *metrics.Gauge
	stage      *metrics.Gauge
	consumed   *metrics.Gauge
}

// wall-clock latency buckets in seconds, admission-queue wait and mapping
// decision time.
var latencyBounds = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

func newServerMetrics(r *metrics.Registry) *serverMetrics {
	m := &serverMetrics{
		requests:           r.Counter("server_requests_total"),
		admitted:           r.Counter("server_admitted_total"),
		rejectedQueueFull:  r.Counter("server_rejected_total", metrics.L("reason", "queue-full")),
		rejectedDraining:   r.Counter("server_rejected_total", metrics.L("reason", "draining")),
		rejectedBrownout:   r.Counter("server_rejected_total", metrics.L("reason", "brownout")),
		rejectedHalted:     r.Counter("server_rejected_total", metrics.L("reason", "energy-exhausted")),
		rejectedBadReq:     r.Counter("server_rejected_total", metrics.L("reason", "bad-request")),
		rejectedRecovering: r.Counter("server_rejected_total", metrics.L("reason", "recovering")),
		rejectedShardDown:  r.Counter("server_rejected_total", metrics.L("reason", RejectShardDown)),
		walRecords:         r.Counter("server_wal_records_total"),
		walCommits:         r.Counter("server_wal_commits_total"),
		walErrors:          r.Counter("server_wal_errors_total"),
		checkpoints:        r.Counter("server_checkpoints_total"),
		recoveryReplayed:   r.Counter("server_recovery_replayed_total"),
		recoveryRedecided:  r.Counter("server_recovery_redecided_total"),
		mapped:             r.Counter("server_decisions_total", metrics.L("decision", "mapped")),
		timedout:           r.Counter("server_decisions_total", metrics.L("decision", "timed-out")),
		completedOn:        r.Counter("server_completed_total", metrics.L("result", "on-time")),
		completedLate:      r.Counter("server_completed_total", metrics.L("result", "late")),
		failed:             r.Counter("server_failed_total"),
		faults:             r.Counter("server_faults_total"),
		retries:            r.Counter("server_retries_total"),
		breakerOpens:       r.Counter("server_breaker_open_total"),
		queueWait:          r.Histogram("server_queue_wait_seconds", latencyBounds),
		decideTime:         r.Histogram("server_decision_seconds", latencyBounds),
		queueHigh:          r.Max("server_queue_depth_high_water"),
		inflight:           r.Gauge("server_inflight_tasks"),
		stage:              r.Gauge("server_brownout_stage"),
		consumed:           r.Gauge("server_energy_consumed"),
	}
	m.shed = map[string]*metrics.Counter{}
	for _, reason := range []string{ShedFiltered, ShedInfeasible, ShedBrownout, ShedHalted} {
		m.shed[reason] = r.Counter("server_shed_total", metrics.L("reason", reason))
	}
	m.rejectedTenant = map[string]*metrics.Counter{}
	for _, reason := range []string{RejectTenantQuarantined, RejectTenantRateLimit, RejectTenantQueueShare} {
		m.rejectedTenant[reason] = r.Counter("server_rejected_total", metrics.L("reason", reason))
	}
	return m
}

// rejectedTenantBy resolves the labeled tenant-rejection counter.
func (m *serverMetrics) rejectedTenantBy(reason string) *metrics.Counter {
	if m == nil {
		return nil
	}
	return m.rejectedTenant[reason]
}

// shedBy resolves the labeled shed counter (nil when the reason is unknown,
// which the nil-safe instruments tolerate).
func (m *serverMetrics) shedBy(reason string) *metrics.Counter {
	if m == nil {
		return nil
	}
	return m.shed[reason]
}
