package model

import (
	"fmt"
	"math/rand"

	"github.com/xai-db/relativekeys/internal/feature"
)

// Forest is a bagged ensemble of classification trees combined by majority
// vote. It is the white-box tree-ensemble model the formal explainer encodes
// exactly into SAT (the paper's Xreason works on ensembles of decision
// trees).
type Forest struct {
	Trees   []*Tree
	nLabels int
}

// ForestConfig controls random-forest training.
type ForestConfig struct {
	NumTrees    int     // default 15
	MaxDepth    int     // per-tree depth cap, default 6
	MinLeaf     int     // default 2
	FeatureFrac float64 // feature subsample per split, default 0.7
	SampleFrac  float64 // bootstrap fraction, default 1.0
	Seed        int64
}

func (c ForestConfig) normalize() ForestConfig {
	if c.NumTrees <= 0 {
		c.NumTrees = 15
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 6
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 2
	}
	if c.FeatureFrac <= 0 || c.FeatureFrac > 1 {
		c.FeatureFrac = 0.7
	}
	if c.SampleFrac <= 0 || c.SampleFrac > 1 {
		c.SampleFrac = 1.0
	}
	return c
}

// TrainForest fits a random forest with bootstrap sampling.
func TrainForest(schema *feature.Schema, data []feature.Labeled, cfg ForestConfig) (*Forest, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("model: cannot train a forest on empty data")
	}
	cfg = cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Forest{nLabels: len(schema.Labels)}
	sampleN := int(cfg.SampleFrac * float64(len(data)))
	if sampleN < 1 {
		sampleN = 1
	}
	for t := 0; t < cfg.NumTrees; t++ {
		boot := make([]feature.Labeled, sampleN)
		for i := range boot {
			boot[i] = data[rng.Intn(len(data))]
		}
		tree, err := TrainTree(schema, boot, TreeConfig{
			MaxDepth:    cfg.MaxDepth,
			MinLeaf:     cfg.MinLeaf,
			FeatureFrac: cfg.FeatureFrac,
			Seed:        rng.Int63(),
		})
		if err != nil {
			return nil, err
		}
		f.Trees = append(f.Trees, tree)
	}
	return f, nil
}

// Predict returns the majority-vote class; ties break toward the smaller
// label code for determinism.
func (f *Forest) Predict(x feature.Instance) feature.Label {
	votes := make([]int, f.nLabels)
	for _, t := range f.Trees {
		votes[t.Predict(x)]++
	}
	best, bestC := feature.Label(0), -1
	for y, c := range votes {
		if c > bestC {
			best, bestC = feature.Label(y), c
		}
	}
	return best
}

// NumLabels returns the label-space size.
func (f *Forest) NumLabels() int { return f.nLabels }
