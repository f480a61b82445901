package core

import (
	"context"
	"time"

	"github.com/xai-db/relativekeys/internal/bitset"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/obs"
)

// SRKAnytime is SRK with cooperative cancellation: it checks ctx once per
// greedy round (each round is a full feature scan, the natural checkpoint
// granularity) and, when the deadline expires mid-solve, switches to a cheap
// single-pass completion that extends the current partial key with every
// still-discriminating feature in index order. The completion intersects the
// same posting lists the greedy step would, so the returned key is always a
// *valid* α-conformant key — just not a succinct one — and the degraded flag
// is true. The one-pass fallback costs one greedy round, so the total overrun
// past the deadline is bounded by two rounds of work.
//
// OSRK's grow-until-budget loop makes the online algorithm naturally anytime
// (§4); this is the batch analogue: the survivor set D shrinks monotonically,
// so a feature that removes no current violator can never remove a later one,
// and skipping it in the completion pass loses nothing. If even the full
// feature set leaves more than the budget, no key exists and ErrNoKey is
// returned exactly as in the undeadlined run.
func SRKAnytime(ctx context.Context, c *Context, x feature.Instance, y feature.Label, alpha float64) (Key, bool, error) {
	return srkAnytimeInstrumented(ctx, c, x, y, alpha, false)
}

// srkAnytimeInstrumented is the shared entry of the whole SRK family —
// SRK/SRKAnytime (eager) and SRKPar/SRKAnytimePar (sparse) — the
// greedy engine wrapped with the stage timer, span, and degradation counter.
// Both engines return picks in pick order; the key contract (ascending
// feature index) is restored here with one sort, so the engines stay shareable
// with SRKOrdered, which needs the pick order itself.
func srkAnytimeInstrumented(ctx context.Context, c *Context, x feature.Instance, y feature.Label, alpha float64, sparse bool) (Key, bool, error) {
	start := time.Now()
	sp := obs.StartSpan(ctx, "srk.greedy")
	var (
		picks    []int
		degraded bool
		err      error
	)
	if sparse {
		picks, degraded, err = srkAnytimeSparse(ctx, c, x, y, alpha)
	} else {
		picks, degraded, err = srkAnytime(ctx, c, x, y, alpha)
	}
	sp.End()
	srkGreedySeconds.ObserveSince(start)
	if degraded {
		srkDegraded.Inc()
	}
	if err == ErrNoKey {
		solverNoKey.Inc()
	}
	if err != nil {
		return nil, degraded, err
	}
	// A successful empty key stays a non-nil Key{}: callers (and the service
	// JSON layer) distinguish "the empty key satisfies α" from "no key".
	key := Key(picks)
	if key == nil {
		key = Key{}
	}
	sortKey(key)
	return key, degraded, nil
}

// srkAnytime is the uninstrumented eager greedy loop: every round scans all
// remaining candidates over the whole survivor bitset. It is the reference
// implementation the served engine (sparse.go) is differentially tested
// against. The returned slice holds the picked features in pick order
// (most violator-discriminating first), not sorted; a successful empty key is
// a nil slice.
func srkAnytime(ctx context.Context, c *Context, x feature.Instance, y feature.Label, alpha float64) ([]int, bool, error) {
	if err := ValidateAlpha(alpha); err != nil {
		return nil, false, err
	}
	if err := c.Schema.Validate(x); err != nil {
		return nil, false, err
	}
	n := c.Schema.NumFeatures()
	budget := Budget(alpha, c.Len())

	// D = instances matching x on E with a different prediction; E starts
	// empty, so D starts as every disagreeing instance. The survivor set is
	// pooled: /explain-style callers run SRK once per request and the
	// allocation would otherwise dominate at streaming rates.
	d := getDisagreeing(c, y)
	defer putScratch(d)
	if d.Count() <= budget {
		return nil, false, nil // the empty key already satisfies α
	}

	var picks []int
	inE := make([]bool, n)
	for len(picks) < n {
		if ctx.Err() != nil {
			cstart := time.Now()
			csp := obs.StartSpan(ctx, "srk.complete")
			picks, err := completeAnytime(c, x, d, picks, inE, budget)
			csp.End()
			srkCompleteSeconds.ObserveSince(cstart)
			return picks, true, err
		}
		// Pick the feature leaving the fewest violators; Algorithm 1 leaves
		// ties unspecified, and we break them toward the feature whose value
		// is most frequent in the context — equally conformant but far more
		// general explanations (higher recall, §7.1 measure (c)).
		bestAttr, bestCard, bestFreq := -1, -1, -1
		for a := 0; a < n; a++ {
			if inE[a] {
				continue
			}
			post := c.Posting(a, x[a])
			card := d.AndCard(post)
			if bestCard < 0 || card < bestCard {
				bestAttr, bestCard, bestFreq = a, card, c.PostingCount(a, x[a])
			} else if card == bestCard {
				if freq := c.PostingCount(a, x[a]); freq > bestFreq {
					bestAttr, bestFreq = a, freq
				}
			}
		}
		if bestAttr < 0 {
			break
		}
		// No candidate reduces the violations and we are still above budget:
		// the greedy step would add useless features forever, so only
		// continue while progress is possible.
		if bestCard == d.Count() && bestCard > budget {
			return nil, false, ErrNoKey
		}
		inE[bestAttr] = true
		picks = append(picks, bestAttr)
		d.And(c.Posting(bestAttr, x[bestAttr]))
		if d.Count() <= budget {
			return picks, false, nil
		}
	}
	if d.Count() <= budget {
		return picks, false, nil
	}
	return nil, false, ErrNoKey
}

// completeAnytime finishes a deadline-interrupted SRK run: one pass over the
// features in index order, adding each one that still removes violators. The
// survivor set shrinks monotonically, so features skipped as non-reducing can
// never become reducing later, and the final survivor set equals the
// intersection over *all* features of x — making the ErrNoKey verdict exact.
// Like the greedy engines it returns picks in pick order, unsorted.
func completeAnytime(c *Context, x feature.Instance, d *bitset.Set, picks []int, inE []bool, budget int) ([]int, error) {
	n := c.Schema.NumFeatures()
	for a := 0; a < n && d.Count() > budget; a++ {
		if inE[a] {
			continue
		}
		post := c.Posting(a, x[a])
		if d.AndCard(post) == d.Count() {
			continue // removes nothing now, hence nothing ever
		}
		inE[a] = true
		picks = append(picks, a)
		d.And(post)
	}
	if d.Count() <= budget {
		return picks, nil
	}
	return nil, ErrNoKey
}
