package core

import (
	"context"
	"math"
	"math/bits"
	"sync"
	"time"

	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/obs"
)

// The served SRK engine (DESIGN.md §11). It makes the eager loop's picks
// (anytime.go) — same tie-break, same ErrNoKey verdicts, same degraded
// completion — while touching far fewer words:
//
//   - Round one reads no bitset. For the empty key every disagreeing row is a
//     violator, so picking a leaves PostingCount(a, x[a]) minus the rows of
//     that posting labelled y, both kept by the context's count table.
//   - One fused pass then builds the pick-one survivor set, Posting \ label y,
//     and lists its nonzero words.
//   - Every later round scores the candidates over that list only, and its
//     pick narrows the list, dropping words that become zero. The keys effect
//     (a few features remove nearly all violators) leaves a small list after
//     one or two picks, so later rounds cost a fraction of a full scan.

// SRKPar is SRK on the served engine; par is ignored. Its keys are
// byte-identical to SRK's on every input.
func SRKPar(c *Context, x feature.Instance, y feature.Label, alpha float64, par int) (Key, error) {
	key, _, err := SRKAnytimePar(context.Background(), c, x, y, alpha, par) //rkvet:ignore ctxflow SRKPar is the sanctioned never-cancelled specialization of the served solver
	return key, err
}

// SRKAnytimePar is SRKAnytime on the served engine, and the entry cce.Batch,
// cce.Window and service.Server solve with. par is ignored: the engine is
// sequential, and the parameter stays for existing callers. Cancellation is
// checked once per round and degrades through the eager loop's completion
// pass, so keys, degraded flags and errors match SRKAnytime's exactly.
func SRKAnytimePar(ctx context.Context, c *Context, x feature.Instance, y feature.Label, alpha float64, par int) (Key, bool, error) {
	return srkAnytimeInstrumented(ctx, c, x, y, alpha, true)
}

// sparseState is the pooled per-solve scratch of the served engine, so a
// streaming deployment allocates nothing per solve in steady state.
type sparseState struct {
	inE   []bool
	picks []int    // in pick order; copied before returning to callers
	words []int32  // ascending indices of the survivor set's nonzero words
	vals  []uint64 // vals[i] is survivor word words[i]
}

var sparseStates = sync.Pool{New: func() any { return new(sparseState) }}

// getSparseState returns a pooled state for n features with inE all-false,
// no picks, and room for nw survivor words.
func getSparseState(n, nw int) *sparseState {
	st := sparseStates.Get().(*sparseState)
	if cap(st.inE) < n {
		st.inE = make([]bool, n)
	} else {
		st.inE = st.inE[:n]
		for i := range st.inE {
			st.inE[i] = false
		}
	}
	if cap(st.words) < nw {
		st.words = make([]int32, nw)
		st.vals = make([]uint64, nw)
	}
	st.words, st.vals = st.words[:nw], st.vals[:nw]
	st.picks = st.picks[:0]
	return st
}

func putSparseState(st *sparseState) { sparseStates.Put(st) }

// srkAnytimeSparse is the uninstrumented served engine. Like srkAnytime it
// returns picks in pick order, and a successful empty key is a nil slice.
func srkAnytimeSparse(ctx context.Context, c *Context, x feature.Instance, y feature.Label, alpha float64) ([]int, bool, error) {
	if err := ValidateAlpha(alpha); err != nil {
		return nil, false, err
	}
	if err := c.Schema.Validate(x); err != nil {
		return nil, false, err
	}
	n := c.Schema.NumFeatures()
	budget := Budget(alpha, c.Len())
	dCount := c.disagreeingCount(y)
	if dCount <= budget {
		return nil, false, nil // the empty key already satisfies α
	}

	st := getSparseState(n, c.live.NumWords())
	defer putSparseState(st)
	for len(st.picks) < n {
		if ctx.Err() != nil {
			return st.complete(ctx, c, x, y, budget)
		}
		var a, card int
		if len(st.picks) == 0 {
			a, card = seedPick(c, x, y)
		} else {
			a, card = st.scorePick(c, x)
			lazyEvals.Add(int64(n - len(st.picks)))
		}
		// The best candidate removes no violator while D is over budget: no
		// feature can help, the verdict the eager loop reaches the same way.
		if card == dCount {
			return nil, false, ErrNoKey
		}
		st.inE[a] = true
		st.picks = append(st.picks, a)
		lazyRounds.Inc()
		post := c.post[a][x[a]].Words()
		if len(st.picks) == 1 {
			var label []uint64
			if y >= 0 && int(y) < len(c.byLabel) {
				label = c.byLabel[y].Words()
			}
			dCount = st.seed(post, label)
		} else {
			dCount = st.narrow(post)
		}
		if dCount <= budget {
			return copyPicks(st.picks), false, nil
		}
	}
	return nil, false, ErrNoKey // every feature used, still over budget
}

// complete is the deadline path: it rebuilds the survivor bitset from the
// picks so far and finishes with the eager loop's completion pass, so a
// degraded key is the one SRKAnytime would return.
func (st *sparseState) complete(ctx context.Context, c *Context, x feature.Instance, y feature.Label, budget int) ([]int, bool, error) {
	cstart := time.Now()
	csp := obs.StartSpan(ctx, "srk.complete")
	d := getDisagreeing(c, y)
	defer putScratch(d)
	for _, a := range st.picks {
		d.And(c.Posting(a, x[a]))
	}
	picks, err := completeAnytime(c, x, d, st.picks, st.inE, budget)
	csp.End()
	srkCompleteSeconds.ObserveSince(cstart)
	return copyPicks(picks), true, err
}

// copyPicks detaches a pick list from the pooled state before it escapes to
// the caller. nil stays nil: the empty-key success shape srkAnytime uses.
func copyPicks(picks []int) []int {
	if len(picks) == 0 {
		return nil
	}
	return append([]int(nil), picks...)
}

// better reports whether a candidate leaving card survivors with posting
// frequency freq beats the best so far. Scanning candidates in ascending
// index order from bestCard = math.MaxInt, it is the eager loop's tie-break:
// fewest survivors, then higher posting frequency, then lower index.
//
//rkvet:noalloc
func better(card, freq, bestCard, bestFreq int) bool {
	return card < bestCard || (card == bestCard && freq > bestFreq)
}

// seedPick makes round one's pick from the count table alone: picking a
// leaves the rows of Posting(a, x[a]) not labelled y.
//
//rkvet:noalloc
func seedPick(c *Context, x feature.Instance, y feature.Label) (int, int) {
	best, bestCard, bestFreq := -1, math.MaxInt, -1
	for a, v := range x {
		freq := c.PostingCount(a, v)
		if card := freq - c.postingLabelCount(a, v, y); better(card, freq, bestCard, bestFreq) {
			best, bestCard, bestFreq = a, card, freq
		}
	}
	return best, bestCard
}

// scorePick makes a later round's pick, scoring every unused candidate over
// the survivor word list. A candidate's scan stops once its count passes the
// best so far: it can no longer win, and its exact count is never needed.
//
//rkvet:noalloc
func (st *sparseState) scorePick(c *Context, x feature.Instance) (int, int) {
	best, bestCard, bestFreq := -1, math.MaxInt, -1
	vals := st.vals[:len(st.words)]
	for a, used := range st.inE {
		if used {
			continue
		}
		post := c.post[a][x[a]].Words()
		card := 0
		for i, w := range st.words {
			card += bits.OnesCount64(vals[i] & post[w])
			if card > bestCard {
				break
			}
		}
		if freq := c.PostingCount(a, x[a]); better(card, freq, bestCard, bestFreq) {
			best, bestCard, bestFreq = a, card, freq
		}
	}
	return best, bestCard
}

// seed builds the pick-one survivor set, post minus label (nil when the
// prediction is outside the label space, so every row disagrees), in one
// pass, listing its nonzero words. Posting lists hold live rows only, so no
// live mask is needed. It returns the survivor count.
//
// seed and narrow compact without a branch: every word is written at the
// list's end, which advances only past a nonzero word. About half the words
// survive the first pick, so a branch there would mispredict constantly.
//
//rkvet:noalloc
func (st *sparseState) seed(post, label []uint64) int {
	words, vals := st.words[:len(post)], st.vals[:len(post)]
	if label != nil {
		label = label[:len(post)]
	}
	k, cnt := 0, 0
	for w, v := range post {
		if label != nil {
			v &^= label[w]
		}
		words[k], vals[k] = int32(w), v
		k += nonzero(v)
		cnt += bits.OnesCount64(v)
	}
	st.words, st.vals = words[:k], vals[:k]
	return cnt
}

// narrow intersects the listed survivor words with post, dropping the words
// that become zero, and returns the survivor count.
//
//rkvet:noalloc
func (st *sparseState) narrow(post []uint64) int {
	words, vals := st.words, st.vals[:len(st.words)]
	k, cnt := 0, 0
	for i, w := range words {
		v := vals[i] & post[w]
		words[k], vals[k] = w, v
		k += nonzero(v)
		cnt += bits.OnesCount64(v)
	}
	st.words, st.vals = words[:k], vals[:k]
	return cnt
}

// nonzero is 1 for v ≠ 0 and 0 for v = 0, without a branch.
//
//rkvet:noalloc
func nonzero(v uint64) int { return int((v | -v) >> 63) }
