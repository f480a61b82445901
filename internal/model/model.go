// Package model implements the ML substrate the paper evaluates against:
// CART decision trees, random forests (majority vote), gradient-boosted trees
// (the XGBoost substitute used as the primary model in §7.1), and an additive
// one-hot logistic model. All models share the Model interface; explainers
// other than CCE query models exclusively through it, and QueryCounter makes
// the number of model accesses observable — CCE performs zero.
package model

import (
	"sync/atomic"

	"github.com/xai-db/relativekeys/internal/feature"
)

// Model is a trained classifier over a discrete feature space.
type Model interface {
	// Predict returns the label for x.
	Predict(x feature.Instance) feature.Label
	// NumLabels returns the size of the label space.
	NumLabels() int
}

// Scorer is implemented by models that expose a real-valued score for the
// positive class (binary models). Used by faithfulness-style diagnostics.
type Scorer interface {
	// Score returns the positive-class score (larger means more positive).
	Score(x feature.Instance) float64
}

// QueryCounter wraps a model and counts Predict calls. It is safe for
// concurrent use.
type QueryCounter struct {
	M Model
	n atomic.Int64
}

// NewQueryCounter wraps m.
func NewQueryCounter(m Model) *QueryCounter { return &QueryCounter{M: m} }

// Predict delegates to the wrapped model and increments the counter.
func (q *QueryCounter) Predict(x feature.Instance) feature.Label {
	q.n.Add(1)
	return q.M.Predict(x)
}

// NumLabels delegates to the wrapped model.
func (q *QueryCounter) NumLabels() int { return q.M.NumLabels() }

// Queries returns the number of Predict calls so far.
func (q *QueryCounter) Queries() int64 { return q.n.Load() }

// Accuracy returns the fraction of instances whose prediction matches the
// stored label.
func Accuracy(m Model, data []feature.Labeled) float64 {
	if len(data) == 0 {
		return 0
	}
	ok := 0
	for _, d := range data {
		if m.Predict(d.X) == d.Y {
			ok++
		}
	}
	return float64(ok) / float64(len(data))
}

// Labels extracts the predictions of a model over a dataset as labeled
// instances (the inference context CCE consumes).
func Labels(m Model, xs []feature.Instance) []feature.Labeled {
	out := make([]feature.Labeled, len(xs))
	for i, x := range xs {
		out[i] = feature.Labeled{X: x, Y: m.Predict(x)}
	}
	return out
}

// ConstantModel always predicts the same label; useful in tests and as a
// degenerate baseline.
type ConstantModel struct {
	Label  feature.Label
	Labels int
}

// Predict returns the fixed label.
func (c ConstantModel) Predict(feature.Instance) feature.Label { return c.Label }

// NumLabels returns the label-space size.
func (c ConstantModel) NumLabels() int { return c.Labels }

// FuncModel adapts a plain function to the Model interface.
type FuncModel struct {
	Fn     func(feature.Instance) feature.Label
	Labels int
}

// Predict invokes the wrapped function.
func (f FuncModel) Predict(x feature.Instance) feature.Label { return f.Fn(x) }

// NumLabels returns the label-space size.
func (f FuncModel) NumLabels() int { return f.Labels }
