// Package shap implements KernelSHAP (Lundberg & Lee, NeurIPS'17) for
// discrete feature spaces: sample coalitions z ⊆ features weighted by the
// Shapley kernel, evaluate the model with absent features replaced from the
// background distribution, and solve the weighted least squares whose
// solution approximates the Shapley values.
package shap

import (
	"math"
	"math/rand"

	"github.com/xai-db/relativekeys/internal/explain"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/linalg"
	"github.com/xai-db/relativekeys/internal/model"
)

// Config tunes sampling.
type Config struct {
	Samples    int // coalition samples, default 400
	Background int // background evaluations per coalition, default 4
	Ridge      float64
	Seed       int64
}

func (c Config) normalize() Config {
	if c.Samples <= 0 {
		c.Samples = 400
	}
	if c.Background <= 0 {
		c.Background = 4
	}
	if c.Ridge <= 0 {
		c.Ridge = 1e-6
	}
	return c
}

// Explainer is a configured KernelSHAP instance for one model.
type Explainer struct {
	m   model.Model
	bg  *explain.Background
	cfg Config
}

// New builds a KernelSHAP explainer.
func New(m model.Model, bg *explain.Background, cfg Config) *Explainer {
	return &Explainer{m: m, bg: bg, cfg: cfg.normalize()}
}

// Name implements explain.Explainer.
func (e *Explainer) Name() string { return "SHAP" }

// value evaluates f restricted to a coalition: features in the coalition keep
// x's values, the rest are imputed from background rows; the result is the
// mean indicator of predicting the target class.
func (e *Explainer) value(rng *rand.Rand, x feature.Instance, keep []bool, target feature.Label) float64 {
	hits := 0
	for b := 0; b < e.cfg.Background; b++ {
		row := e.bg.SampleRow(rng)
		z := x.Clone()
		for a := range z {
			if !keep[a] {
				z[a] = row[a]
			}
		}
		if e.m.Predict(z) == target {
			hits++
		}
	}
	return float64(hits) / float64(e.cfg.Background)
}

// shapleyKernelWeight returns the Kernel SHAP weight for a coalition of size
// s out of n (finite for 0 < s < n; the endpoints are handled as hard
// constraints with large weights).
func shapleyKernelWeight(n, s int) float64 {
	if s == 0 || s == n {
		return 1e6
	}
	num := float64(n - 1)
	den := binom(n, s) * float64(s) * float64(n-s)
	return num / den
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r *= float64(n-i) / float64(i+1)
	}
	return r
}

// Explain implements explain.Explainer: Scores approximates the Shapley value
// of each feature for predicting the target class.
func (e *Explainer) Explain(x feature.Instance) (explain.Explanation, error) {
	if err := e.bg.Schema.Validate(x); err != nil {
		return explain.Explanation{}, err
	}
	rng := rand.New(rand.NewSource(e.cfg.Seed))
	n := e.bg.Schema.NumFeatures()
	target := e.m.Predict(x)

	total := e.cfg.Samples + 2 // include the empty and full coalitions
	X := make([][]float64, 0, total)
	y := make([]float64, 0, total)
	w := make([]float64, 0, total)

	addCoalition := func(keep []bool) {
		s := 0
		row := make([]float64, n)
		for a, k := range keep {
			if k {
				row[a] = 1
				s++
			}
		}
		X = append(X, row)
		y = append(y, e.value(rng, x, keep, target))
		w = append(w, shapleyKernelWeight(n, s))
	}

	empty := make([]bool, n)
	full := make([]bool, n)
	for a := range full {
		full[a] = true
	}
	addCoalition(empty)
	addCoalition(full)

	keep := make([]bool, n)
	for s := 0; s < e.cfg.Samples; s++ {
		// Draw a coalition size from the Shapley kernel's size distribution
		// (heavier at the extremes), then a uniform subset of that size.
		size := 1 + rng.Intn(n-1)
		if n <= 2 {
			size = 1
		}
		if rng.Float64() < 0.5 {
			// Bias toward small/large coalitions like the kernel does.
			if rng.Intn(2) == 0 {
				size = 1 + rng.Intn(1+min(2, n-2))
			} else {
				size = n - 1 - rng.Intn(1+min(2, n-2))
			}
		}
		for a := range keep {
			keep[a] = false
		}
		for _, a := range rng.Perm(n)[:size] {
			keep[a] = true
		}
		addCoalition(keep)
	}
	coef, err := linalg.WeightedRidge(X, y, w, e.cfg.Ridge)
	if err != nil {
		return explain.Explanation{}, err
	}
	scores := coef[:n]
	for i, v := range scores {
		if math.IsNaN(v) {
			scores[i] = 0
		}
	}
	return explain.Explanation{Scores: scores}, nil
}
