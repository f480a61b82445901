package service

import (
	"github.com/xai-db/relativekeys/internal/obs"
)

// Service-layer observability (DESIGN.md §10): per-endpoint traffic and
// latency, admission-control sheds, degradation, and the durability failure
// counters that /healthz mirrors. Label children used on fixed paths are
// resolved once at init; the per-request middleware resolves its endpoint/code
// children through the vec cache (one lock + map hit, dwarfed by the handler).
var (
	httpRequests = obs.NewCounterVec("rk_http_requests_total",
		"HTTP requests served, by endpoint and status code.", "endpoint", "code")
	httpSeconds = obs.NewHistogramVec("rk_http_request_seconds",
		"End-to-end HTTP request latency, by endpoint.", nil, "endpoint")
	httpInFlight = obs.NewGauge("rk_http_inflight",
		"Requests currently being served.")

	shedReasons = obs.NewCounterVec("rk_shed_total",
		"Requests refused by admission control, by reason: overload (429); deadline_floor, draining and stale (503).",
		"reason")
	shedOverload      = shedReasons.With("overload")
	shedDeadlineFloor = shedReasons.With("deadline_floor")
	shedDraining      = shedReasons.With("draining")
	shedStale         = shedReasons.With("stale")

	explainDegraded = obs.NewCounter("rk_explain_degraded_total",
		"Explains answered with a deadline-degraded (valid but less succinct) key.")

	observeRollbacks = obs.NewCounterVec("rk_observe_rollbacks_total",
		"Observations refused before the context add, by cause: monitor rejection or WAL append failure.",
		"cause")
	rollbackMonitor = observeRollbacks.With("monitor")
	rollbackWAL     = observeRollbacks.With("wal")

	panicsRecoveredTotal = obs.NewCounter("rk_panics_recovered_total",
		"Handler panics converted to 500 responses.")
	walSyncFailures = obs.NewCounter("rk_wal_sync_failures_total",
		"WAL fsyncs that failed under the service sync policy (rows kept, durability uncertain).")
	snapshotFailures = obs.NewCounter("rk_snapshot_failures_total",
		"Periodic snapshot writes that failed (WAL still covers the delta).")

	clientRetries = obs.NewCounter("rk_client_retries_total",
		"Requests re-sent by the retrying client after a retryable response or transport error.")

	cacheOutcomes = obs.NewCounterVec("rk_explain_cache_total",
		"Explain requests through the explanation cache, by outcome: hit (served from cache), miss (solved and stored), coalesced (waited on an identical in-flight solve), bypass (cache off or no_cache).",
		"outcome")
	cacheHit       = cacheOutcomes.With("hit")
	cacheMiss      = cacheOutcomes.With("miss")
	cacheCoalesced = cacheOutcomes.With("coalesced")
	cacheBypass    = cacheOutcomes.With("bypass")
	cacheEvictions = obs.NewCounter("rk_explain_cache_evictions_total",
		"Cache entries evicted from the cold end by the entry or byte cap.")

	jobEvents = obs.NewCounterVec("rk_jobs_total",
		"Async ExplainAll job lifecycle events: submitted, completed, failed, resumed (picked up after a restart).",
		"event")
	jobEvtSubmitted = jobEvents.With("submitted")
	jobEvtCompleted = jobEvents.With("completed")
	jobEvtFailed    = jobEvents.With("failed")
	jobEvtResumed   = jobEvents.With("resumed")
	jobItemsDone    = obs.NewCounter("rk_job_items_total",
		"Batch items solved by the async job runner.")
)

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
