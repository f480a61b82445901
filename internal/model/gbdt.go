package model

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/xai-db/relativekeys/internal/feature"
)

// GBDT is a gradient-boosted tree ensemble with logistic loss — the
// pure-Go substitute for XGBoost used as the primary model in §7.1. Binary
// classification: labels 0/1, score = bias + Σ η·treeᵢ(x), predict 1 iff
// sigmoid(score) ≥ 0.5.
type GBDT struct {
	Bias    float64
	Shrink  float64
	Trees   []*Tree
	nLabels int
}

// GBDTConfig controls boosting.
type GBDTConfig struct {
	Rounds     int     // number of boosting rounds, default 30
	MaxDepth   int     // per-tree depth, default 4
	MinLeaf    int     // default 5
	Shrink     float64 // learning rate, default 0.3
	Lambda     float64 // L2 on leaf weights, default 1.0
	SampleFrac float64 // row subsample per round, default 1.0
	Seed       int64
}

func (c GBDTConfig) normalize() GBDTConfig {
	if c.Rounds <= 0 {
		c.Rounds = 30
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 4
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 5
	}
	if c.Shrink <= 0 {
		c.Shrink = 0.3
	}
	if c.Lambda <= 0 {
		c.Lambda = 1.0
	}
	if c.SampleFrac <= 0 || c.SampleFrac > 1 {
		c.SampleFrac = 1.0
	}
	return c
}

// TrainGBDT fits a boosted ensemble on binary-labeled data.
func TrainGBDT(schema *feature.Schema, data []feature.Labeled, cfg GBDTConfig) (*GBDT, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("model: cannot train GBDT on empty data")
	}
	if len(schema.Labels) != 2 {
		return nil, fmt.Errorf("model: GBDT requires a binary label space, got %d labels", len(schema.Labels))
	}
	cfg = cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))

	n := len(data)
	xs := make([]feature.Instance, n)
	ys := make([]float64, n)
	pos := 0
	for i, d := range data {
		xs[i] = d.X
		ys[i] = float64(d.Y)
		if d.Y == 1 {
			pos++
		}
	}
	// Bias initialized to log-odds of the positive class.
	p := (float64(pos) + 0.5) / (float64(n) + 1.0)
	g := &GBDT{Bias: math.Log(p / (1 - p)), Shrink: cfg.Shrink, nLabels: 2}

	score := make([]float64, n)
	for i := range score {
		score[i] = g.Bias
	}
	grad := make([]float64, n)
	hess := make([]float64, n)

	for round := 0; round < cfg.Rounds; round++ {
		for i := 0; i < n; i++ {
			pr := sigmoid(score[i])
			grad[i] = pr - ys[i] // dL/ds for logistic loss
			hess[i] = pr * (1 - pr)
			if hess[i] < 1e-6 {
				hess[i] = 1e-6
			}
		}
		txs, tg, th := xs, grad, hess
		if cfg.SampleFrac < 1 {
			k := int(cfg.SampleFrac * float64(n))
			if k < 1 {
				k = 1
			}
			txs = make([]feature.Instance, k)
			tg = make([]float64, k)
			th = make([]float64, k)
			for j := 0; j < k; j++ {
				i := rng.Intn(n)
				txs[j], tg[j], th[j] = xs[i], grad[i], hess[i]
			}
		}
		tree, err := TrainRegressionTree(schema, txs, tg, th, TreeConfig{
			MaxDepth: cfg.MaxDepth,
			MinLeaf:  cfg.MinLeaf,
			Seed:     rng.Int63(),
		}, cfg.Lambda)
		if err != nil {
			return nil, err
		}
		g.Trees = append(g.Trees, tree)
		for i := 0; i < n; i++ {
			score[i] += cfg.Shrink * tree.Eval(xs[i])
		}
	}
	return g, nil
}

// Score returns the raw additive score (logit) for x.
func (g *GBDT) Score(x feature.Instance) float64 {
	s := g.Bias
	for _, t := range g.Trees {
		s += g.Shrink * t.Eval(x)
	}
	return s
}

// Prob returns the positive-class probability.
func (g *GBDT) Prob(x feature.Instance) float64 { return sigmoid(g.Score(x)) }

// Predict returns 1 iff the positive-class probability is at least 0.5.
func (g *GBDT) Predict(x feature.Instance) feature.Label {
	if g.Score(x) >= 0 {
		return 1
	}
	return 0
}

// NumLabels returns 2.
func (g *GBDT) NumLabels() int { return g.nLabels }

func sigmoid(s float64) float64 { return 1 / (1 + math.Exp(-s)) }
