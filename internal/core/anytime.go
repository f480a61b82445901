package core

import (
	"context"
	"time"

	"github.com/xai-db/relativekeys/internal/bitset"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/obs"
)

// SRKAnytime is SRK with cooperative cancellation, solved on the served
// engine (DESIGN.md §11), and the entry cce.Batch, cce.Window and
// service.Server solve with. It checks ctx once per greedy round (each round
// scores every remaining candidate, the natural checkpoint granularity) and,
// when the deadline expires mid-solve, switches to a cheap single-pass
// completion that extends the current partial key with every
// still-discriminating feature in index order. The completion intersects the
// same posting lists the greedy step would, so the returned key is always a
// *valid* α-conformant key — just not a succinct one — and the degraded flag
// is true. The one-pass fallback costs about one round of the eager loop, so
// the overrun past the deadline is bounded by two rounds of work.
//
// OSRK's grow-until-budget loop makes the online algorithm naturally anytime
// (§4); this is the batch analogue: the survivor set D shrinks monotonically,
// so a feature that removes no current violator can never remove a later one,
// and skipping it in the completion pass loses nothing. If even the full
// feature set leaves more than the budget, no key exists and ErrNoKey is
// returned exactly as in the undeadlined run.
//
// Under a context that never expires its keys are SRK's, byte for byte. It
// is the only instrumented SRK entry: the stage timer, the span, and the
// degradation and no-key counters wrap the engine here, and the engine
// returns picks in pick order, sorted into the key contract (ascending
// feature index) with one sort.
func SRKAnytime(ctx context.Context, c *Context, x feature.Instance, y feature.Label, alpha float64) (Key, bool, error) {
	start := time.Now()
	sp := obs.StartSpan(ctx, "srk.greedy")
	picks, degraded, err := srkAnytimeSparse(ctx, c, x, y, alpha)
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
	return keyOf(picks), degraded, nil
}

// SRKAnytimePar is SRKAnytime; par is ignored. It stays for the repository
// benchmark (_perfbench), which calls it.
func SRKAnytimePar(ctx context.Context, c *Context, x feature.Instance, y feature.Label, alpha float64, par int) (Key, bool, error) {
	return SRKAnytime(ctx, c, x, y, alpha)
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
