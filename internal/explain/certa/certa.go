// Package certa implements the CERTA-style entity-matching explainer
// (Teofili et al., ICDE'22) used as the specialized baseline of §7.5: it
// assigns each record attribute a saliency score by open-world perturbation —
// copying attribute values across the pair and substituting values from other
// records — and aggregating the probability of prediction flips per
// attribute. It is deliberately query-hungry (many model evaluations per
// attribute), reproducing the orders-of-magnitude efficiency gap the paper
// reports against CCE.
package certa

import (
	"math/rand"

	"github.com/xai-db/relativekeys/internal/explain"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/model"
)

// Config tunes the perturbation schedule.
type Config struct {
	// Rounds is the number of perturbation rounds per attribute subset;
	// default 120 (CERTA evaluates hundreds of perturbed copies per
	// attribute — with a transformer matcher this dominates its runtime).
	Rounds int
	// MaxSubset bounds the size of attribute subsets perturbed jointly;
	// default 2.
	MaxSubset int
	Seed      int64
}

func (c Config) normalize() Config {
	if c.Rounds <= 0 {
		c.Rounds = 120
	}
	if c.MaxSubset <= 0 {
		c.MaxSubset = 2
	}
	return c
}

// Explainer is a configured CERTA instance for one matcher. It operates on
// the similarity-feature representation of pairs, perturbing attributes by
// resampling their similarity from the background (open-world substitution:
// replacing an attribute with a foreign value changes its similarity).
type Explainer struct {
	m   model.Model
	bg  *explain.Background
	cfg Config
}

// New builds a CERTA explainer.
func New(m model.Model, bg *explain.Background, cfg Config) *Explainer {
	return &Explainer{m: m, bg: bg, cfg: cfg.normalize()}
}

// Name implements explain.Explainer.
func (e *Explainer) Name() string { return "CERTA" }

// Explain implements explain.Explainer: Scores[a] estimates the probability
// that perturbing attribute a (alone or within a small subset, averaged via
// the probabilistic framework) flips the match decision.
func (e *Explainer) Explain(x feature.Instance) (explain.Explanation, error) {
	if err := e.bg.Schema.Validate(x); err != nil {
		return explain.Explanation{}, err
	}
	rng := rand.New(rand.NewSource(e.cfg.Seed))
	n := e.bg.Schema.NumFeatures()
	target := e.m.Predict(x)

	flips := make([]float64, n)
	counts := make([]float64, n)

	// Enumerate attribute subsets up to MaxSubset; each round perturbs the
	// subset and attributes a flip fractionally to its members (the
	// probabilistic aggregation of CERTA's framework).
	var subsets [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) > 0 {
			subsets = append(subsets, append([]int(nil), cur...))
		}
		if len(cur) >= e.cfg.MaxSubset {
			return
		}
		for a := start; a < n; a++ {
			rec(a+1, append(cur, a))
		}
	}
	rec(0, nil)

	for _, sub := range subsets {
		for round := 0; round < e.cfg.Rounds; round++ {
			z := x.Clone()
			for _, a := range sub {
				// Open-world substitution: attribute takes the similarity it
				// would have against a random foreign record. Low-similarity
				// draws dominate, as replacing a value usually destroys the
				// match on that attribute.
				if rng.Intn(4) == 0 {
					z[a] = e.bg.SampleValue(rng, a)
				} else {
					z[a] = 0 // lowest similarity bucket
				}
			}
			flipped := e.m.Predict(z) != target
			share := 1 / float64(len(sub))
			for _, a := range sub {
				counts[a] += share
				if flipped {
					flips[a] += share
				}
			}
		}
	}
	scores := make([]float64, n)
	for a := range scores {
		if counts[a] > 0 {
			scores[a] = flips[a] / counts[a]
		}
	}
	return explain.Explanation{Scores: scores}, nil
}
