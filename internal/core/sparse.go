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

// The served SRK engine (DESIGN.md §11), behind SRKAnytime. It makes the
// eager loop's picks (srkEager, srk.go) — same tie-break, same ErrNoKey
// verdicts — and degrades through the same completion pass (anytime.go),
// while touching far fewer words:
//
//   - Round one reads no bitset. For the empty key every disagreeing row is a
//     violator, so picking a leaves PostingCount(a, x[a]) minus the rows of
//     that posting labelled y, both kept by the context's count table.
//   - Round two reads no bitset either once the first pick's pair-count
//     table is built: picking b leaves that table's cells for x[b] not
//     labelled y. One fused pass then lists the nonzero words of the
//     pick-two survivor set, post(a₁) ∧ post(a₂) \ label y.
//   - Until the table is built, one fused pass lists the pick-one survivor
//     set, post \ label y, instead, round two scores the candidates over
//     that list, and the words it reads are charged toward the table's
//     build (Context.rentPairs).
//   - Every later round scores the candidates over the list only, and its
//     pick narrows the list, dropping words that become zero. The keys effect
//     (a few features remove nearly all violators) leaves a small list after
//     one or two picks, so later rounds cost a fraction of a full scan.
//
// A pick's count is exact, so the solve stops as soon as it fits the budget,
// without narrowing the list.

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

// srkAnytimeSparse is the uninstrumented served engine. Like srkEager it
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
	var label []uint64 // nil when the prediction is outside the label space: every row disagrees
	if y >= 0 && int(y) < len(c.byLabel) {
		label = c.byLabel[y].Words()
	}

	st := getSparseState(n, c.live.NumWords())
	defer putSparseState(st)
	var pairs []int // the first pick's pair-count table, when round two read one
	for len(st.picks) < n {
		if ctx.Err() != nil {
			return st.complete(ctx, c, x, y, budget)
		}
		var a, card int
		switch len(st.picks) {
		case 0:
			a, card = seedPick(c, x, y)
		case 1:
			first := st.picks[0]
			if pairs = c.pairTable(first, x[first]); pairs != nil {
				a, card = st.tablePick(c, pairs, x, y)
				break
			}
			st.list(c.post[first][x[first]].Words(), nil, label)
			var words int
			a, card, words = st.scorePick(c, x)
			lazyEvals.Add(int64(n - 1))
			c.rentPairs(first, x[first], words)
		default:
			a, card, _ = st.scorePick(c, x)
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
		if dCount = card; dCount <= budget {
			return copyPicks(st.picks), false, nil
		}
		// After the first pick, round two reads a table or lists the
		// survivors itself.
		switch post := c.post[a][x[a]].Words(); {
		case len(st.picks) == 2 && pairs != nil:
			first := st.picks[0]
			st.list(c.post[first][x[first]].Words(), post, label)
		case len(st.picks) > 1:
			st.narrow(post)
		}
	}
	return nil, false, ErrNoKey // every feature used, still over budget
}

// complete is the deadline path: it rebuilds the survivor bitset from the
// picks so far and finishes with completeAnytime, so a degraded key is the
// eager loop's first picks completed by that pass.
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
// the caller. nil stays nil: the empty-key success shape srkEager uses.
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

// tablePick makes round two's pick from the first pick's pair-count table t:
// picking b leaves the cells of t for x[b] not labelled y, exactly the count
// scorePick would find over the pick-one survivor list.
//
//rkvet:noalloc
func (st *sparseState) tablePick(c *Context, t []int, x feature.Instance, y feature.Label) (int, int) {
	best, bestCard, bestFreq := -1, math.MaxInt, -1
	nl := len(c.byLabel)
	for b, used := range st.inE {
		if used {
			continue
		}
		card := 0
		for l, k := range t[(c.pairs.base[b]+int(x[b]))*nl:][:nl] {
			if l != int(y) {
				card += k
			}
		}
		if freq := c.PostingCount(b, x[b]); better(card, freq, bestCard, bestFreq) {
			best, bestCard, bestFreq = b, card, freq
		}
	}
	return best, bestCard
}

// scorePick makes a later round's pick, scoring every unused candidate over
// the survivor word list, and returns the words it read. A candidate's scan
// stops once its count passes the best so far: it can no longer win, and its
// exact count is never needed. The winner's count is exact.
//
//rkvet:noalloc
func (st *sparseState) scorePick(c *Context, x feature.Instance) (int, int, int) {
	best, bestCard, bestFreq := -1, math.MaxInt, -1
	vals := st.vals[:len(st.words)]
	read := 0
	for a, used := range st.inE {
		if used {
			continue
		}
		post := c.post[a][x[a]].Words()
		card, scanned := 0, len(st.words)
		for i, w := range st.words {
			card += bits.OnesCount64(vals[i] & post[w])
			if card > bestCard {
				scanned = i + 1
				break
			}
		}
		read += scanned
		if freq := c.PostingCount(a, x[a]); better(card, freq, bestCard, bestFreq) {
			best, bestCard, bestFreq = a, card, freq
		}
	}
	return best, bestCard, read
}

// list builds a survivor list in one pass: the nonzero words of p ∧ q \ drop,
// where a nil q keeps every word of p and a nil drop removes none. Posting
// lists hold live rows only, so no live mask is needed.
//
// list and narrow compact without a branch: every word is written at the
// list's end, which advances only past a nonzero word. About half the words
// survive the first pick, so a branch there would mispredict constantly.
//
//rkvet:noalloc
func (st *sparseState) list(p, q, drop []uint64) {
	words, vals := st.words[:len(p)], st.vals[:len(p)]
	if q != nil {
		q = q[:len(p)]
	}
	if drop != nil {
		drop = drop[:len(p)]
	}
	k := 0
	for w, v := range p {
		if q != nil {
			v &= q[w]
		}
		if drop != nil {
			v &^= drop[w]
		}
		words[k], vals[k] = int32(w), v
		k += nonzero(v)
	}
	st.words, st.vals = words[:k], vals[:k]
}

// narrow intersects the listed survivor words with post, dropping the words
// that become zero.
//
//rkvet:noalloc
func (st *sparseState) narrow(post []uint64) {
	words, vals := st.words, st.vals[:len(st.words)]
	k := 0
	for i, w := range words {
		v := vals[i] & post[w]
		words[k], vals[k] = w, v
		k += nonzero(v)
	}
	st.words, st.vals = words[:k], vals[:k]
}

// listedCount returns the listed survivors in post: Σ popcount(vals[i] ∧
// post[words[i]]).
//
//rkvet:noalloc
func (st *sparseState) listedCount(post []uint64) int {
	vals := st.vals[:len(st.words)]
	n := 0
	for i, w := range st.words {
		n += bits.OnesCount64(vals[i] & post[w])
	}
	return n
}

// nonzero is 1 for v ≠ 0 and 0 for v = 0, without a branch.
//
//rkvet:noalloc
func nonzero(v uint64) int { return int((v | -v) >> 63) }
