// Package metrics implements the five explanation-quality measures of §7.1:
// conformity, precision, recall, succinctness and faithfulness, plus model
// accuracy over streams for the drift-monitoring experiments.
package metrics

import (
	"fmt"
	"math/rand"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/model"
)

// Explained couples an explained instance with its prediction and the
// explanation produced by some method.
type Explained struct {
	X   feature.Instance
	Y   feature.Label
	Key core.Key
}

// Conformity returns the fraction of explanations that are conformant over
// the context (measure (a) of §7.1): every context instance agreeing on the
// key shares the prediction.
func Conformity(ctx *core.Context, explained []Explained) float64 {
	if len(explained) == 0 {
		return 1
	}
	ok := 0
	for _, e := range explained {
		if core.Violations(ctx, e.X, e.Y, e.Key) == 0 {
			ok++
		}
	}
	return float64(ok) / float64(len(explained))
}

// Precision returns the average maximum α for which each explanation is
// α-conformant relative to the context (measure (b)).
func Precision(ctx *core.Context, explained []Explained) float64 {
	if len(explained) == 0 {
		return 1
	}
	sum := 0.0
	for _, e := range explained {
		sum += core.Precision(ctx, e.X, e.Y, e.Key)
	}
	return sum / float64(len(explained))
}

// Succinctness returns the average number of features per explanation
// (measure (d)).
func Succinctness(explained []Explained) float64 {
	if len(explained) == 0 {
		return 0
	}
	sum := 0
	for _, e := range explained {
		sum += e.Key.Succinctness()
	}
	return float64(sum) / float64(len(explained))
}

// Recall compares two conformant methods pairwise (measure (c)): per
// instance, recall of method A is |D(E_A)| / |D(E_A) ∪ D(E_B)| where D(E) is
// the set of context instances agreeing with x on E and sharing its
// prediction. Returns the averages for A and B; the slices must be aligned
// per instance.
func Recall(ctx *core.Context, a, b []Explained) (recallA, recallB float64, err error) {
	if len(a) != len(b) || len(a) == 0 {
		return 0, 0, fmt.Errorf("metrics: recall requires aligned non-empty explanation sets (%d vs %d)", len(a), len(b))
	}
	var sumA, sumB float64
	for i := range a {
		da := core.CoveredSet(ctx, a[i].X, a[i].Y, a[i].Key)
		db := core.CoveredSet(ctx, b[i].X, b[i].Y, b[i].Key)
		union := map[int]bool{}
		for _, r := range da {
			union[r] = true
		}
		for _, r := range db {
			union[r] = true
		}
		if len(union) == 0 {
			sumA++
			sumB++
			continue
		}
		sumA += float64(len(da)) / float64(len(union))
		sumB += float64(len(db)) / float64(len(union))
	}
	return sumA / float64(len(a)), sumB / float64(len(b)), nil
}

// Faithfulness implements measure (e) [Atanasova et al.]: mask the features
// of each explanation — replacing each with a different value drawn from its
// domain — and return the fraction of instances whose prediction is
// unchanged, averaged over draws. Lower is better: masking truly impactful
// features should flip predictions.
func Faithfulness(m model.Model, schema *feature.Schema, explained []Explained, draws int, seed int64) float64 {
	if len(explained) == 0 {
		return 0
	}
	if draws <= 0 {
		draws = 5
	}
	rng := rand.New(rand.NewSource(seed))
	same := 0
	total := 0
	for _, e := range explained {
		for d := 0; d < draws; d++ {
			z := e.X.Clone()
			for _, a := range e.Key {
				card := schema.Attrs[a].Cardinality()
				if card < 2 {
					continue
				}
				// Draw a value different from the current one.
				nv := feature.Value(rng.Intn(card - 1))
				if nv >= z[a] {
					nv++
				}
				z[a] = nv
			}
			if m.Predict(z) == m.Predict(e.X) {
				same++
			}
			total++
		}
	}
	return float64(same) / float64(total)
}

// AccuracyCurve returns cumulative model accuracy at each prefix fraction of
// a labeled stream (used by Fig. 3m): point i is the accuracy over the first
// (i+1)·step instances.
func AccuracyCurve(preds []feature.Label, truth []feature.Label, points int) ([]float64, error) {
	if len(preds) != len(truth) || len(preds) == 0 {
		return nil, fmt.Errorf("metrics: aligned non-empty predictions and truth required")
	}
	if points <= 0 {
		points = 10
	}
	out := make([]float64, points)
	correct := 0
	next := 0
	for i := range preds {
		if preds[i] == truth[i] {
			correct++
		}
		for next < points && i+1 >= (next+1)*len(preds)/points {
			out[next] = float64(correct) / float64(i+1)
			next++
		}
	}
	return out, nil
}
