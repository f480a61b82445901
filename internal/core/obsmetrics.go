package core

import (
	"github.com/xai-db/relativekeys/internal/obs"
)

// Solver-stage observability (DESIGN.md §10). Stage children are resolved
// once at init so the per-solve cost is the histogram observation itself
// (two atomic adds and a CAS); counters are single atomic adds. Span
// recording rides on the request context and is free for unsampled requests.
var (
	solverStageSeconds = obs.NewHistogramVec("rk_solver_stage_seconds",
		"Latency of one solver-stage run, by stage.", nil, "stage")
	srkGreedySeconds   = solverStageSeconds.With("srk_greedy")
	srkCompleteSeconds = solverStageSeconds.With("srk_complete")
	exactDFSSeconds    = solverStageSeconds.With("exact_dfs")
	osrkObserveSeconds = solverStageSeconds.With("osrk_observe")

	solverDegraded = obs.NewCounterVec("rk_solver_degraded_total",
		"Anytime solves that hit their deadline and completed on the cheap degraded path, by solver.",
		"solver")
	srkDegraded  = solverDegraded.With("srk")
	osrkDegraded = solverDegraded.With("osrk")

	solverNoKey = obs.NewCounter("rk_solver_nokey_total",
		"Solves that proved no α-conformant key exists for the instance.")

	// Intra-explanation parallelism (DESIGN.md §11): rounds that took the
	// striped scoring path, and the latency of one such round including the
	// worker join.
	solverParallelRounds = obs.NewCounter("rk_solver_parallel_rounds_total",
		"SRK greedy rounds scored on the parallel (striped) path.")
	solverStripeSeconds = obs.NewHistogram("rk_solver_stripe_seconds",
		"Latency of one parallel scoring round across all stripes, including the join.", nil)

	// Lazy-greedy solver (DESIGN.md §12): greedy rounds resolved on the lazy
	// path, candidate re-evaluations spent confirming heap tops (the quantity
	// CELF saves — compare against rounds × features for the eager cost), and
	// rounds that degenerated into the eager full-rescan fallback.
	lazyRounds = obs.NewCounter("rk_solver_lazy_rounds_total",
		"SRK greedy rounds resolved by the lazy-greedy (CELF) engine.")
	lazyEvals = obs.NewCounter("rk_solver_lazy_evals_total",
		"Candidate re-evaluations performed by the lazy engine's confirm loop.")
	lazyFallbacks = obs.NewCounter("rk_solver_lazy_fallbacks_total",
		"Lazy rounds that exceeded the re-evaluation cap and fell back to an eager full rescan.")
)
