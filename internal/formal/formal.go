// Package formal implements the Xreason baseline: formal feature
// explanations (prime implicants / abductive explanations) with perfect
// conformity over the entire feature space. For decision trees and
// random forests the model is encoded exactly into CNF (one-hot feature
// variables, leaf-path indicators, and a sequential-counter cardinality
// constraint over tree votes) and a deletion-based prime implicant is
// computed with incremental SAT calls under assumptions — the same overall
// strategy as Xreason's MaxSAT pipeline. For gradient-boosted ensembles a
// sound interval-bound oracle replaces SAT (the explanation stays formally
// conformant, possibly less succinct). Like the original Xreason, this
// explainer requires white-box access to the tree structure and cannot
// explain DNN models.
package formal

import (
	"fmt"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/explain"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/model"
)

// counterexampleOracle reports whether, with the features of E fixed to x's
// values, some instance of the feature space receives a different prediction.
type counterexampleOracle interface {
	exists(x feature.Instance, E []bool) (bool, error)
}

// Explainer computes formal explanations for a tree-based model.
type Explainer struct {
	schema *feature.Schema
	oracle counterexampleOracle
}

// Name implements explain.Explainer.
func (e *Explainer) Name() string { return "Xreason" }

// NewTreeExplainer builds a formal explainer for a single decision tree.
func NewTreeExplainer(t *model.Tree, schema *feature.Schema) (*Explainer, error) {
	o, err := newSATOracle(schema, []*model.Tree{t}, treeSemantics)
	if err != nil {
		return nil, err
	}
	return &Explainer{schema: schema, oracle: o}, nil
}

// NewForestExplainer builds a formal explainer for a majority-vote forest.
func NewForestExplainer(f *model.Forest, schema *feature.Schema) (*Explainer, error) {
	if f.NumLabels() != 2 {
		return nil, fmt.Errorf("formal: forest encoding supports binary labels, got %d", f.NumLabels())
	}
	o, err := newSATOracle(schema, f.Trees, forestSemantics)
	if err != nil {
		return nil, err
	}
	return &Explainer{schema: schema, oracle: o}, nil
}

// NewGBDTExplainer builds a formal explainer for a boosted ensemble using the
// sound interval-bound oracle.
func NewGBDTExplainer(g *model.GBDT, schema *feature.Schema) (*Explainer, error) {
	return &Explainer{schema: schema, oracle: &intervalOracle{g: g, schema: schema}}, nil
}

// Explain computes a subset-minimal formal explanation for x by
// deletion-based prime implicant extraction: starting from all features,
// drop each one whose removal still admits no counterexample.
func (e *Explainer) Explain(x feature.Instance) (explain.Explanation, error) {
	key, err := e.ExplainKey(x)
	if err != nil {
		return explain.Explanation{}, err
	}
	return explain.Explanation{Features: key}, nil
}

// ExplainKey is Explain returning the bare key.
func (e *Explainer) ExplainKey(x feature.Instance) (core.Key, error) {
	if err := e.schema.Validate(x); err != nil {
		return nil, err
	}
	n := e.schema.NumFeatures()
	E := make([]bool, n)
	for a := range E {
		E[a] = true
	}
	// Sanity: with everything fixed there must be no counterexample.
	if ce, err := e.oracle.exists(x, E); err != nil {
		return nil, err
	} else if ce {
		return nil, fmt.Errorf("formal: model is inconsistent — counterexample with all features fixed")
	}
	for a := 0; a < n; a++ {
		E[a] = false
		ce, err := e.oracle.exists(x, E)
		if err != nil {
			return nil, err
		}
		if ce {
			E[a] = true // feature is necessary
		}
	}
	var key core.Key
	for a, in := range E {
		if in {
			key = append(key, a)
		}
	}
	return key, nil
}
