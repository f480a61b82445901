package core

import (
	"context"
	"sync"
	"time"

	"github.com/xai-db/relativekeys/internal/bitset"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/obs"
)

// CELF-style lazy greedy for SRK (DESIGN.md §12). The greedy objective is
// submodular: a candidate's violators-removed score |D \ posting| can only
// shrink as the survivor set D shrinks, so a score computed in an earlier
// round is an upper bound on the current one. Instead of rescanning every
// candidate every round (the eager loop in anytime.go), the lazy engine keeps
// the candidates in a max-heap of stale upper bounds and re-evaluates only the
// heap top, until the refreshed top stays on top — at which point it is the
// exact argmax and, by the heap's tie-break order, *the same pick the eager
// scan makes*, so lazy keys are byte-identical to eager ones on every input.
//
// In the regime the "keys effect" predicts (a few dominant features per key,
// heterogeneous scores), almost every round confirms the top after one
// re-evaluation and the solve does O(F + rounds) AndCard passes instead of
// O(F × rounds). When scores are near-uniform the bounds go stale together
// and lazy would degenerate into a slower eager scan; a per-round evaluation
// cap detects this and falls back to one exact full rescan of the stale
// entries (striped across workers when parallelism is on), bounding any round
// at ~1.5× the eager round cost.

// lazyCand is one heap entry: a candidate feature with an upper bound on its
// violators-removed score. gain is exact when round matches the engine's
// current round; freq and attr are exact throughout (posting cardinality does
// not depend on D), which is what makes tie-breaks on a half-stale heap safe.
type lazyCand struct {
	attr  int32
	round int32 // round gain was computed in; == current round ⇒ exact
	gain  int   // upper bound on violators removed
	freq  int   // posting cardinality of (attr, x[attr])
}

// lazyBetter orders the heap exactly as the eager scan compares candidates:
// more violators removed first (fewer survivors), then higher posting
// frequency, then lower feature index. The eager loop's "first strictly
// better wins while scanning ascending indices" is precisely the maximum
// under this order, so a confirmed heap top is the eager pick.
func lazyBetter(a, b lazyCand) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	if a.freq != b.freq {
		return a.freq > b.freq
	}
	return a.attr < b.attr
}

// lazyState is the pooled per-solve scratch of the lazy engine. Like the
// survivor bitsets (pool.go) it exists so a streaming deployment allocates
// nothing per solve in steady state.
type lazyState struct {
	heap  []lazyCand
	inE   []bool
	order []int // picks in pick order; copied before returning to callers
	cands []int // scratch candidate list for seed and fallback scans
}

var lazyStates = sync.Pool{New: func() any { return new(lazyState) }}

// getLazyState returns a pooled lazy-solve state sized for n features, with
// the heap and order empty and inE all-false.
func getLazyState(n int) *lazyState {
	st := lazyStates.Get().(*lazyState)
	if cap(st.inE) < n {
		st.inE = make([]bool, n)
		st.heap = make([]lazyCand, 0, n)
		st.cands = make([]int, 0, n)
	} else {
		st.inE = st.inE[:n]
		for i := range st.inE {
			st.inE[i] = false
		}
	}
	st.heap = st.heap[:0]
	st.cands = st.cands[:0]
	st.order = st.order[:0]
	return st
}

func putLazyState(st *lazyState) { lazyStates.Put(st) }

// srkAnytimeLazy is the uninstrumented lazy greedy engine. It returns picks
// in pick order (unsorted), like srkAnytime, and is byte-identical to it on
// every input: same picks, same errors, same degraded completion.
func srkAnytimeLazy(ctx context.Context, c *Context, x feature.Instance, y feature.Label, alpha float64, par int) ([]int, bool, error) {
	if err := ValidateAlpha(alpha); err != nil {
		return nil, false, err
	}
	if err := c.Schema.Validate(x); err != nil {
		return nil, false, err
	}
	n := c.Schema.NumFeatures()
	budget := Budget(alpha, c.Len())
	d := getDisagreeing(c, y)
	defer putScratch(d)
	dCount := d.Count()
	if dCount <= budget {
		return nil, false, nil // the empty key already satisfies α
	}

	st := getLazyState(n)
	defer putLazyState(st)

	// The scorer (and its per-solve worker pool) exists only when the solve
	// is both wide enough and allowed to parallelize; it stripes the seed
	// round and fallback rescans. The sequential path never constructs it.
	var scorer *roundScorer
	if workers := solverWorkers(par, c.Len()); workers > 1 {
		scorer = getRoundScorer(c, x, workers)
		defer putRoundScorer(scorer)
	}

	// Seed round: one exact full scan — the same work as the first eager
	// round — establishes every candidate's true score, so the heap starts
	// with zero staleness and the first pick needs no re-evaluation.
	st.cands = st.cands[:0]
	for a := 0; a < n; a++ {
		st.cands = append(st.cands, a)
	}
	if scorer != nil {
		scorer.scan(d, st.cands)
	}
	for _, a := range st.cands {
		var card int
		if scorer != nil {
			//rkvet:ignore atomicfield quiescent read: scan() has returned, so its wg.Wait() joined every worker write before this read (happens-before via WaitGroup)
			card = int(scorer.counts[a])
		} else {
			card = d.AndCard(c.Posting(a, x[a]))
		}
		st.heap = append(st.heap, lazyCand{
			attr: int32(a),
			gain: dCount - card,
			freq: c.PostingCount(a, x[a]),
		})
	}
	for i := len(st.heap)/2 - 1; i >= 0; i-- {
		st.siftDown(i)
	}

	round := int32(0)
	for {
		if ctx.Err() != nil {
			cstart := time.Now()
			csp := obs.StartSpan(ctx, "srk.complete")
			picks, err := completeAnytime(c, x, d, st.order, st.inE, budget)
			csp.End()
			srkCompleteSeconds.ObserveSince(cstart)
			return copyPicks(picks), true, err
		}
		if round > 0 {
			st.settleTop(c, x, d, dCount, round, scorer)
		}
		top := st.heap[0]
		// The exact best candidate removes no violators while D is still
		// over budget: adding features can never help — the same ErrNoKey
		// verdict the eager loop reaches via bestCard == d.Count().
		if top.gain == 0 {
			return nil, false, ErrNoKey
		}
		a := int(top.attr)
		st.popTop()
		st.inE[a] = true
		st.order = append(st.order, a)
		lazyRounds.Inc()
		d.And(c.Posting(a, x[a]))
		dCount = d.Count()
		if dCount <= budget {
			return copyPicks(st.order), false, nil
		}
		if len(st.heap) == 0 {
			return nil, false, ErrNoKey // every feature used, still over budget
		}
		round++
	}
}

// copyPicks detaches a pick list from the pooled state before it escapes to
// the caller. nil stays nil: the empty-key success shape srkAnytime uses.
func copyPicks(picks []int) []int {
	if len(picks) == 0 {
		return nil
	}
	return append([]int(nil), picks...)
}

// settleTop re-establishes "heap top is exact for this round". Stale gains
// are first clamped to the shrunken |D| — min(gain, |D|) is still an upper
// bound, and collapsing over-bounds onto |D| lets the exact (freq, index)
// part of the order do the work within the collapsed ties — then the top is
// re-evaluated until a refreshed score stays on top. If near-uniform scores
// force more than maxEvals re-evaluations (the regime where lazy degenerates),
// one exact rescan of every stale entry settles the round at eager cost.
func (st *lazyState) settleTop(c *Context, x feature.Instance, d *bitset.Set, dCount int, round int32, scorer *roundScorer) {
	clamped := false
	for i := range st.heap {
		if st.heap[i].gain > dCount {
			st.heap[i].gain = dCount
			clamped = true
		}
	}
	if clamped {
		// Clamping collapses distinct gains into ties, which reorders
		// entries under (freq, index): rebuild the heap invariant.
		for i := len(st.heap)/2 - 1; i >= 0; i-- {
			st.siftDown(i)
		}
	}
	evals := 0
	maxEvals := len(st.heap)/2 + 1
	for st.heap[0].round != round {
		if evals >= maxEvals {
			lazyFallbacks.Inc()
			st.rescanStale(c, x, d, dCount, round, scorer)
			return
		}
		st.refreshTop(c, x, d, dCount, round)
		evals++
		lazyEvals.Inc()
	}
}

// refreshTop re-evaluates the heap top against the current survivor set. The
// scan early-exits through AndCardUpTo: the top can only survive as the pick
// if its survivor intersection stays within limit = |D| − (best child bound);
// past that the truncated count still yields a valid tighter upper bound
// (|D| − partial), the entry stays stale, and the sift-down demotes it below
// the child that outbid it — so every truncated refresh makes strict
// progress. A refresh that completes is exact and stamps the entry with the
// current round.
//rkvet:noalloc
func (st *lazyState) refreshTop(c *Context, x feature.Instance, d *bitset.Set, dCount int, round int32) {
	e := &st.heap[0]
	limit := dCount
	if len(st.heap) > 1 {
		second := st.heap[1]
		if len(st.heap) > 2 && lazyBetter(st.heap[2], second) {
			second = st.heap[2]
		}
		limit = dCount - second.gain
	}
	cnt := d.AndCardUpTo(c.Posting(int(e.attr), x[int(e.attr)]), limit)
	e.gain = dCount - cnt
	if cnt <= limit {
		e.round = round
	}
	st.siftDown(0)
}

// rescanStale is the eager fallback: one exact scan of every stale entry
// (striped across the worker pool when present), after which the whole heap
// is exact for this round and the top is the pick.
func (st *lazyState) rescanStale(c *Context, x feature.Instance, d *bitset.Set, dCount int, round int32, scorer *roundScorer) {
	if scorer != nil {
		st.cands = st.cands[:0]
		for i := range st.heap {
			if st.heap[i].round != round {
				st.cands = append(st.cands, int(st.heap[i].attr))
			}
		}
		if len(st.cands) > 0 {
			scorer.scan(d, st.cands)
		}
		for i := range st.heap {
			e := &st.heap[i]
			if e.round != round {
				//rkvet:ignore atomicfield quiescent read: the scan()'s wg.Wait() joined all workers before rescanStale resumed (happens-before via WaitGroup)
				e.gain = dCount - int(scorer.counts[e.attr])
				e.round = round
			}
		}
	} else {
		for i := range st.heap {
			e := &st.heap[i]
			if e.round != round {
				e.gain = dCount - d.AndCard(c.Posting(int(e.attr), x[int(e.attr)]))
				e.round = round
			}
		}
	}
	for i := len(st.heap)/2 - 1; i >= 0; i-- {
		st.siftDown(i)
	}
}

// siftDown restores the max-heap invariant under lazyBetter from index i.
//rkvet:noalloc
func (st *lazyState) siftDown(i int) {
	h := st.heap
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		best := l
		if r := l + 1; r < len(h) && lazyBetter(h[r], h[l]) {
			best = r
		}
		if !lazyBetter(h[best], h[i]) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// popTop removes the heap top.
//rkvet:noalloc
func (st *lazyState) popTop() {
	h := st.heap
	last := len(h) - 1
	h[0] = h[last]
	st.heap = h[:last]
	if last > 0 {
		st.siftDown(0)
	}
}
