package core

import (
	"context"

	"github.com/xai-db/relativekeys/internal/feature"
)

// SRK implements Algorithm 1: the greedy batch algorithm that returns an
// α-conformant ln(α|I|)-bounded key for x relative to context c (Lemma 3).
//
// At every step it picks the feature A_i of x minimizing the number of
// surviving instances that agree with x on E ∪ {A_i} yet predict differently,
// stopping as soon as the survivors fit in the (1−α)·|I| tolerance budget.
// With posting-list bitsets each candidate evaluation is one AndCard pass, so
// the whole run is O(n²·|I|/64) words in the worst case.
//
// SRK is the never-cancelled specialization of SRKAnytime: the shared greedy
// loop lives there, and a background context keeps the checkpoint branch
// dead, so the two are byte-identical on every input (asserted by the
// differential test in anytime_test.go).
func SRK(c *Context, x feature.Instance, y feature.Label, alpha float64) (Key, error) {
	key, _, err := SRKAnytime(context.Background(), c, x, y, alpha) //rkvet:ignore ctxflow SRK is the sanctioned never-cancelled specialization; no caller deadline exists to thread
	return key, err
}

// SRKOrdered is SRK returning features in the order the greedy step picked
// them (most violator-discriminating first). §6 Remark (2) of the paper: the
// pick order ranks the features of a relative key, giving a lightweight
// importance ordering without the cost of importance-score methods.
//
// It is the eager engine's pick-ordered return surfaced directly — the same
// srkAnytime loop behind SRK/SRKAnytime, not a second copy of the greedy
// step — so the ordering can never drift from the key the other entry points
// compute (asserted against SRK and the served engine in srk_test.go and
// lazy_test.go).
func SRKOrdered(c *Context, x feature.Instance, y feature.Label, alpha float64) ([]int, error) {
	picks, _, err := srkAnytime(context.Background(), c, x, y, alpha) //rkvet:ignore ctxflow SRKOrdered is a never-cancelled specialization like SRK; the pick order must not depend on a deadline
	return picks, err
}

// SRKRandomOrder is the ablation variant of SRK that adds features of x in a
// fixed arbitrary order (feature index order) rather than greedily; it keeps
// the same stopping rule and therefore the same conformity guarantee but
// loses the ln(α|I|) succinctness bound.
func SRKRandomOrder(c *Context, x feature.Instance, y feature.Label, alpha float64) (Key, error) {
	if err := ValidateAlpha(alpha); err != nil {
		return nil, err
	}
	if err := c.Schema.Validate(x); err != nil {
		return nil, err
	}
	budget := Budget(alpha, c.Len())
	d := getDisagreeing(c, y)
	defer putScratch(d)
	E := Key{}
	if d.Count() <= budget {
		return E, nil
	}
	for a := 0; a < c.Schema.NumFeatures(); a++ {
		E = append(E, a)
		d.And(c.Posting(a, x[a]))
		if d.Count() <= budget {
			return Minimize(c, x, y, E, alpha), nil
		}
	}
	return nil, ErrNoKey
}

// SRKNaive mirrors SRK but counts violations by rescanning the live rows
// instead of using the bitset index; it exists for the bitset-vs-naive
// ablation bench and as a differential-testing oracle. It walks live slots
// only, so retired rows count neither as violators nor toward the
// tie-break frequency.
func SRKNaive(c *Context, x feature.Instance, y feature.Label, alpha float64) (Key, error) {
	if err := ValidateAlpha(alpha); err != nil {
		return nil, err
	}
	if err := c.Schema.Validate(x); err != nil {
		return nil, err
	}
	n := c.Schema.NumFeatures()
	budget := Budget(alpha, c.Len())

	// live holds row indices agreeing with x on E with different prediction.
	var live []int
	for i := 0; i < c.NumSlots(); i++ {
		if c.Alive(i) && c.rows.Label(i) != y {
			live = append(live, i)
		}
	}
	E := Key{}
	if len(live) <= budget {
		return E, nil
	}
	inE := make([]bool, n)
	for len(E) < n {
		bestAttr, bestCard, bestFreq := -1, -1, -1
		for a := 0; a < n; a++ {
			if inE[a] {
				continue
			}
			card := 0
			for _, i := range live {
				if c.rows.Value(i, a) == x[a] {
					card++
				}
			}
			freq := 0
			for i := 0; i < c.NumSlots(); i++ {
				if c.Alive(i) && c.rows.Value(i, a) == x[a] {
					freq++
				}
			}
			if bestCard < 0 || card < bestCard || (card == bestCard && freq > bestFreq) {
				bestAttr, bestCard, bestFreq = a, card, freq
			}
		}
		if bestAttr < 0 || (bestCard == len(live) && bestCard > budget) {
			return nil, ErrNoKey
		}
		inE[bestAttr] = true
		E = append(E, bestAttr)
		kept := live[:0]
		for _, i := range live {
			if c.rows.Value(i, bestAttr) == x[bestAttr] {
				kept = append(kept, i)
			}
		}
		live = kept
		if len(live) <= budget {
			sortKey(E)
			return E, nil
		}
	}
	return nil, ErrNoKey
}

func sortKey(k Key) {
	for i := 1; i < len(k); i++ {
		for j := i; j > 0 && k[j] < k[j-1]; j-- {
			k[j], k[j-1] = k[j-1], k[j]
		}
	}
}
