package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/xai-db/relativekeys/internal/bitset"
	"github.com/xai-db/relativekeys/internal/feature"
)

// Intra-explanation parallelism (DESIGN.md §11). The solvers are bound by
// violation/coverage counting over the bitset index; request-level fan-out
// (cce.Batch.ExplainAll) cannot help the tail latency of ONE explain over a
// large context. This file adds the second axis: the row dimension of a
// Context is striped into word-aligned segments so the counting primitives
// become parallel partial reductions, and the SRK solve stripes its full
// candidate scans (the lazy engine's seed round and fallback rescans) across
// a per-solve worker pool. Every parallel path is byte-identical to its
// sequential counterpart (asserted by the differential tests in
// parallel_test.go): partial sums are exact integers, and the lazy heap's
// ordering replays the sequential tie-break.
//
// The worker pool is shared and long-lived, not per-round or per-solve: pool
// workers are spawned on first demand, parked on a dispatch channel between
// scans, and handed one scan's worth of work at a time. The earlier design
// spawned fresh goroutines every round, which made allocations grow with
// both parallelism and round count (5 → 85 allocs/op across P ∈ {1..8} in
// BENCH_2026-08-05); now a parallel solve performs no spawns and no channel
// or closure allocations at all, so allocations stay flat in P.

// MinParallelRows is the context size below which the parallel solvers fall
// back to the sequential path: under it a solve is a few microseconds and the
// worker fan-out would cost more than it saves, so small contexts pay zero
// overhead. The threshold is sized from the measured per-scan coordination
// cost (~2µs for kick + join at P=8 on the baseline host) against the ~0.5ns
// per (row, candidate) scan cost: below ~16k rows a striped full scan saves
// less than the coordination spends even with dozens of candidates, and the
// lazy engine makes full scans rare to begin with. It is read once at the
// start of each solve; change it only at init/test setup, not while solves
// are in flight.
var MinParallelRows = 16384

// solverWorkers resolves the effective worker count for a solve: par ≤ 1 or
// a context under the row threshold means sequential.
func solverWorkers(par, rows int) int {
	if par <= 1 || rows < MinParallelRows {
		return 1
	}
	return par
}

// stripeBounds returns the word range [lo, hi) of stripe s out of `stripes`
// equal partitions of `words` words. Bounds are word indices (so stripes are
// word-aligned by construction) and tile [0, words) exactly; when words <
// stripes the tail stripes are empty, which the range kernels treat as
// zero-contribution.
//
//rkvet:noalloc
func stripeBounds(words, stripes, s int) (int, int) {
	return s * words / stripes, (s + 1) * words / stripes
}

// SRKPar is SRK solving with up to par concurrent workers inside the single
// explain. It routes to the lazy-greedy engine (lazy.go) — the production
// default — whose result is byte-identical to SRK on every input; par ≤ 1
// (or a context smaller than MinParallelRows) runs the same engine without
// the worker pool.
func SRKPar(c *Context, x feature.Instance, y feature.Label, alpha float64, par int) (Key, error) {
	key, _, err := SRKAnytimePar(context.Background(), c, x, y, alpha, par) //rkvet:ignore ctxflow SRKPar is the sanctioned never-cancelled specialization of the striped solver
	return key, err
}

// SRKAnytimePar is SRKAnytime with intra-solve parallelism on the lazy
// engine, and the production entry that cce.Batch and service.Server route
// to: the seed round and any fallback rescans stripe their exact scans
// across par workers; single-candidate re-evaluations stay sequential.
// Cancellation is still checked once per round, and the degraded completion
// pass is sequential in both variants, so parallel and sequential runs return
// byte-identical keys.
func SRKAnytimePar(ctx context.Context, c *Context, x feature.Instance, y feature.Label, alpha float64, par int) (Key, bool, error) {
	return srkAnytimeInstrumented(ctx, c, x, y, alpha, par, true)
}

// roundScorer scans a candidate set against a survivor bitset across the
// shared solver worker pool. Work units are (candidate, stripe) pairs handed
// out by an atomic counter: with at least as many candidates as workers each
// candidate is scored whole (one AndCard pass), otherwise the row dimension
// is striped so all workers stay busy on wide-but-few-featured contexts.
// Partial counts are exact integers accumulated with atomic adds, so the
// summed count of a candidate is identical regardless of stripe interleaving.
//
// Scans run on long-lived pool workers (solverDispatch below), so a solve
// allocates neither goroutines nor channels — getRoundScorer hands out a
// pooled struct and scan() enqueues one task per worker. The WaitGroup join
// in scan means no worker touches the scorer after scan returns, so the
// struct is quiescent when putRoundScorer recycles it.
type roundScorer struct {
	c       *Context
	x       feature.Instance
	workers int
	cands   []int
	counts  []int64 // per-attr survivor-intersection counts; atomic adds during a scan
	d       *bitset.Set
	words   int
	stripes int
	units   int
	next    atomic.Int64
	wg      sync.WaitGroup
}

var roundScorers = sync.Pool{New: func() any { return new(roundScorer) }}

// solverDispatch feeds the shared, grow-on-demand solver worker pool. Workers
// are spawned the first time demand outstrips the idle supply and then live
// forever, parked on the channel; the pool's size is bounded by the maximum
// concurrent sum of per-solve worker counts ever requested — the same
// goroutine count the old spawn-per-solve design hit at peak, minus the
// per-solve spawn/teardown churn (which is what made allocations scale with P).
//
// The idle counter is a credit protocol, not bookkeeping: a scan may enqueue
// a task only after claiming a credit (a worker that has finished its
// previous task and is heading back to receive) or after spawning a fresh
// worker for it. Over-claiming under contention merely spawns a spare worker;
// a queued task is always matched by a worker committed to receive, so the
// pool cannot deadlock.
var (
	solverDispatch = make(chan *roundScorer, 16)
	solverIdle     atomic.Int64
)

// solverPoolWorker is one pool worker: receive a scorer, burn down its work
// units, signal the join, go idle. The channel receive gives it a
// happens-before edge over the scan parameters written before enqueue; the
// wg.Done gives the joining solve one over the counts it wrote.
func solverPoolWorker() {
	for rs := range solverDispatch {
		rs.runUnits()
		rs.wg.Done()
		solverIdle.Add(1)
	}
}

// getRoundScorer returns a pooled scorer bound to (c, x) for a solve using
// the given worker count. The struct and its slices are reused across solves;
// release with putRoundScorer when the solve is done.
func getRoundScorer(c *Context, x feature.Instance, workers int) *roundScorer {
	rs := roundScorers.Get().(*roundScorer)
	n := c.Schema.NumFeatures()
	rs.c, rs.x, rs.workers = c, x, workers
	if cap(rs.counts) < n {
		rs.counts = make([]int64, n)
		rs.cands = make([]int, 0, n)
	} else {
		rs.counts = rs.counts[:n]
	}
	return rs
}

// putRoundScorer drops the solve's references and recycles the scorer.
func putRoundScorer(rs *roundScorer) {
	rs.c, rs.x, rs.d = nil, nil, nil
	roundScorers.Put(rs)
}

// scan computes counts[a] = |d ∩ posting(a, x[a])| exactly for every a in
// cands, striping the work across the solve's share of the worker pool. It
// joins all workers before returning, so d and the counts are quiescent for
// the caller.
func (rs *roundScorer) scan(d *bitset.Set, cands []int) {
	if len(cands) == 0 {
		return
	}
	start := time.Now()
	rs.cands = append(rs.cands[:0], cands...)
	for _, a := range cands {
		rs.counts[a] = 0 //rkvet:ignore atomicfield quiescent write: the zeroing happens before any unit is dispatched, and the channel send publishes it to the workers
	}
	rs.d = d
	rs.words = d.NumWords()
	rs.stripes = 1
	if len(cands) < rs.workers {
		rs.stripes = (rs.workers + len(cands) - 1) / len(cands)
	}
	rs.units = len(rs.cands) * rs.stripes
	rs.next.Store(0)
	rs.wg.Add(rs.workers)
	for w := 0; w < rs.workers; w++ {
		if solverIdle.Add(-1) < 0 {
			solverIdle.Add(1)
			go solverPoolWorker()
		}
		solverDispatch <- rs
	}
	rs.wg.Wait()
	solverParallelRounds.Inc()
	solverStripeSeconds.ObserveSince(start)
}

// runUnits claims (candidate, stripe) units off the shared counter until the
// scan is exhausted.
//
//rkvet:noalloc
func (rs *roundScorer) runUnits() {
	for {
		u := int(rs.next.Add(1)) - 1
		if u >= rs.units {
			return
		}
		a := rs.cands[u/rs.stripes]
		lo, hi := stripeBounds(rs.words, rs.stripes, u%rs.stripes)
		if cnt := rs.d.AndCardRange(rs.c.Posting(a, rs.x[a]), lo, hi); cnt != 0 {
			atomic.AddInt64(&rs.counts[a], int64(cnt))
		}
	}
}

// ViolationsPar is Violations as a parallel partial reduction: each stripe
// worker narrows its word range of a shared pooled scratch through the
// posting lists of E and popcounts it; the stripe sums are exact integers, so
// the total equals the sequential count on every input. par ≤ 1 or a small
// context takes the sequential path unchanged.
func ViolationsPar(c *Context, x feature.Instance, y feature.Label, E Key, par int) int {
	workers := solverWorkers(par, c.Len())
	if workers <= 1 {
		return Violations(c, x, y, E)
	}
	d := getScratch()
	defer putScratch(d)
	d.CopyFrom(c.live)
	label := (*bitset.Set)(nil)
	if y >= 0 && int(y) < len(c.byLabel) {
		label = c.byLabel[y]
	}
	return stripedMaskCount(c, x, E, d, label, workers)
}

// CoveragePar is Coverage as the same striped reduction over the label's
// posting list instead of the disagreeing complement.
func CoveragePar(c *Context, x feature.Instance, y feature.Label, E Key, par int) int {
	workers := solverWorkers(par, c.Len())
	if workers <= 1 {
		return Coverage(c, x, y, E)
	}
	if c.Len() == 0 {
		return 0
	}
	d := getScratch()
	defer putScratch(d)
	d.CopyFrom(c.LabelSet(y))
	return stripedMaskCount(c, x, E, d, nil, workers)
}

// PrecisionPar is Precision computed with ViolationsPar.
func PrecisionPar(c *Context, x feature.Instance, y feature.Label, E Key, par int) float64 {
	return PrecisionOf(ViolationsPar(c, x, y, E, par), c.Len())
}

// stripedMaskCount intersects d (already loaded with the base mask) with
// `not` complemented (when non-nil) and every posting list of E, striped
// across workers over disjoint word ranges of the shared scratch, and returns
// the total popcount. Workers are joined before the count is summed, so d is
// quiescent when the caller returns it to the pool.
func stripedMaskCount(c *Context, x feature.Instance, E Key, d, not *bitset.Set, workers int) int {
	words := d.NumWords()
	partial := make([]int, workers)
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		lo, hi := stripeBounds(words, workers, s)
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			if not != nil {
				d.AndNotRange(not, lo, hi)
			}
			for _, f := range E {
				d.AndRange(c.Posting(f, x[f]), lo, hi)
			}
			partial[s] = d.CountRange(lo, hi)
		}(s, lo, hi)
	}
	wg.Wait()
	total := 0
	for _, p := range partial {
		total += p
	}
	return total
}
