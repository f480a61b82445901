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

	// The served engine (DESIGN.md §11): greedy picks, and candidates scored
	// over the survivor word list in the rounds after the first (compare
	// against picks × features for the eager loop's full scans). The series
	// keep the names of the lazy (CELF) engine they replaced; the fallback
	// counter stays registered at 0 because the engine has no fallback.
	lazyRounds = obs.NewCounter("rk_solver_lazy_rounds_total",
		"SRK greedy picks made by the served engine (SRKPar/SRKAnytimePar).")
	lazyEvals = obs.NewCounter("rk_solver_lazy_evals_total",
		"Candidates the served engine scored over the survivor word list, in rounds after the first.")
	_ = obs.NewCounter("rk_solver_lazy_fallbacks_total",
		"Always 0: the retired lazy engine's full-rescan fallbacks. The served engine has none.")
)
