package service

import (
	"github.com/xai-db/relativekeys/internal/obs"
)

// The client-side retry counter stays in the process registry: one process
// may hold many clients, and none of them belongs to a server.
var clientRetries = obs.NewCounter("rk_client_retries_total",
	"Requests re-sent by the retrying client after a retryable response or transport error.")

// serverMetrics is one Server's series (DESIGN.md §10), registered in a
// registry of its own: per-endpoint traffic and latency, admission-control
// sheds, degradation, the durability failure counters, the explanation cache,
// the job runner and the live context size. /stats, /healthz and /metrics all
// read these counters, so a process holding several servers never reports one
// server's traffic as another's. Label children used on fixed paths are
// resolved here once; the per-request middleware resolves its endpoint/code
// children through the vec cache (one lock + map hit, dwarfed by the handler).
type serverMetrics struct {
	reg *obs.Registry

	httpRequests *obs.CounterVec
	httpSeconds  *obs.HistogramVec
	httpInFlight *obs.Gauge

	shedOverload, shedDeadlineFloor, shedDraining, shedStale *obs.Counter
	explainDegraded                                          *obs.Counter

	// Observation refusals: the monitor rejected the row or its WAL append
	// failed. Either comes before the context add, so the state is unchanged
	// and the client's retry is safe. The rollback names predate the
	// admission order.
	rollbackMonitor, rollbackWAL *obs.Counter

	panicsRecovered, walSyncFailures, snapshotFailures *obs.Counter

	cacheHit, cacheMiss, cacheCoalesced, cacheBypass, cacheEvictions *obs.Counter

	jobSubmitted, jobCompleted, jobFailed, jobResumed, jobItemsDone *obs.Counter
}

// newServerMetrics registers s's series in a fresh registry. The gauges read
// s at scrape time; the replica lag gauges exist only on a follower.
func newServerMetrics(s *Server) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{
		reg: r,
		httpRequests: r.NewCounterVec("rk_http_requests_total",
			"HTTP requests served, by endpoint and status code.", "endpoint", "code"),
		httpSeconds: r.NewHistogramVec("rk_http_request_seconds",
			"End-to-end HTTP request latency, by endpoint.", nil, "endpoint"),
		httpInFlight: r.NewGauge("rk_http_inflight",
			"Requests currently being served."),
		explainDegraded: r.NewCounter("rk_explain_degraded_total",
			"Explains answered with a deadline-degraded (valid but less succinct) key."),
		panicsRecovered: r.NewCounter("rk_panics_recovered_total",
			"Handler panics converted to 500 responses."),
		walSyncFailures: r.NewCounter("rk_wal_sync_failures_total",
			"WAL fsyncs that failed under the service sync policy (rows kept, durability uncertain)."),
		snapshotFailures: r.NewCounter("rk_snapshot_failures_total",
			"Periodic snapshot writes that failed (WAL still covers the delta)."),
		cacheEvictions: r.NewCounter("rk_explain_cache_evictions_total",
			"Cache entries evicted from the cold end by the entry or byte cap."),
		jobItemsDone: r.NewCounter("rk_job_items_total",
			"Batch items solved by the async job runner."),
	}
	shed := r.NewCounterVec("rk_shed_total",
		"Requests refused by admission control, by reason: overload (429); deadline_floor, draining and stale (503).",
		"reason")
	m.shedOverload, m.shedDeadlineFloor = shed.With("overload"), shed.With("deadline_floor")
	m.shedDraining, m.shedStale = shed.With("draining"), shed.With("stale")

	rollbacks := r.NewCounterVec("rk_observe_rollbacks_total",
		"Observations refused before the context add, by cause: monitor rejection or WAL append failure.",
		"cause")
	m.rollbackMonitor, m.rollbackWAL = rollbacks.With("monitor"), rollbacks.With("wal")

	cache := r.NewCounterVec("rk_explain_cache_total",
		"Explain requests through the explanation cache, by outcome: hit (served from cache), miss (solved and stored), coalesced (waited on an identical in-flight solve), bypass (cache off or no_cache).",
		"outcome")
	m.cacheHit, m.cacheMiss = cache.With("hit"), cache.With("miss")
	m.cacheCoalesced, m.cacheBypass = cache.With("coalesced"), cache.With("bypass")

	jobs := r.NewCounterVec("rk_jobs_total",
		"Async ExplainAll job lifecycle events: submitted, completed, failed, resumed (picked up after a restart).",
		"event")
	m.jobSubmitted, m.jobCompleted = jobs.With("submitted"), jobs.With("completed")
	m.jobFailed, m.jobResumed = jobs.With("failed"), jobs.With("resumed")

	r.NewGaugeFunc("rk_context_rows",
		"Live rows in the explanation context.",
		func() float64 { return float64(s.ContextSize()) })
	if s.follower {
		r.NewGaugeFunc("rk_replica_lag_entries",
			"Observations the primary has durably logged that this follower has not yet applied.",
			func() float64 { return float64(s.replicaLagEntries()) })
		r.NewGaugeFunc("rk_replica_lag_seconds",
			"Seconds since this follower was provably caught up with its primary (-1 = never yet).",
			s.replicaLagSeconds)
	}
	return m
}

// endpointLabel maps a request path to a bounded endpoint label so arbitrary
// client paths cannot mint unbounded label values.
func endpointLabel(path string) string {
	switch path {
	case "/schema", "/observe", "/explain", "/stats", "/healthz", "/metrics":
		return path[1:]
	case "/jobs", "/jobs/stream":
		return "jobs"
	}
	return "other"
}
