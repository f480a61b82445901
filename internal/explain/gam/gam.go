// Package gam implements the GAM baseline (Lou et al., KDD'12): fit a
// generalized additive model — here a one-hot logistic model, which is
// exactly additive over discrete features — on model predictions, and read
// each feature's importance for an instance directly from its additive
// contribution relative to the feature's mean contribution.
package gam

import (
	"fmt"

	"github.com/xai-db/relativekeys/internal/explain"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/model"
)

// Config tunes surrogate training.
type Config struct {
	Epochs int
	LR     float64
	Seed   int64
}

// Explainer is a trained GAM surrogate of a black-box model.
type Explainer struct {
	schema *feature.Schema
	gam    *model.Additive
	// meanContrib[a] is the dataset-average contribution of feature a,
	// used as the reference point for per-instance scores.
	meanContrib []float64
}

// New fits the additive surrogate to the model's predictions on the
// reference rows (the standard GAM-as-explainer recipe: mimic, then read
// contributions).
func New(m model.Model, schema *feature.Schema, rows []feature.Instance, cfg Config) (*Explainer, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("gam: need reference rows to fit the surrogate")
	}
	labeled := make([]feature.Labeled, len(rows))
	for i, x := range rows {
		labeled[i] = feature.Labeled{X: x, Y: m.Predict(x)}
	}
	g, err := model.TrainAdditive(schema, labeled, model.AdditiveConfig{
		Epochs: cfg.Epochs, LR: cfg.LR, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	e := &Explainer{schema: schema, gam: g, meanContrib: make([]float64, schema.NumFeatures())}
	for _, x := range rows {
		for a := range e.meanContrib {
			e.meanContrib[a] += g.Contribution(x, a)
		}
	}
	for a := range e.meanContrib {
		e.meanContrib[a] /= float64(len(rows))
	}
	return e, nil
}

// Name implements explain.Explainer.
func (e *Explainer) Name() string { return "GAM" }

// Explain implements explain.Explainer: Scores[a] is the centered additive
// contribution of feature a's value in x.
func (e *Explainer) Explain(x feature.Instance) (explain.Explanation, error) {
	if err := e.schema.Validate(x); err != nil {
		return explain.Explanation{}, err
	}
	scores := make([]float64, e.schema.NumFeatures())
	for a := range scores {
		scores[a] = e.gam.Contribution(x, a) - e.meanContrib[a]
	}
	return explain.Explanation{Scores: scores}, nil
}
