package model

import (
	"math/rand"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

// synthData builds a binary dataset over k categorical features where the
// label is a noisy function of features 0 and 1.
func synthData(t testing.TB, n, k int, noise float64, seed int64) (*feature.Schema, []feature.Labeled) {
	t.Helper()
	attrs := make([]feature.Attribute, k)
	for i := range attrs {
		attrs[i] = feature.Attribute{
			Name:   string(rune('A' + i)),
			Values: []string{"v0", "v1", "v2", "v3"},
		}
	}
	schema := feature.MustSchema(attrs, []string{"neg", "pos"})
	rng := rand.New(rand.NewSource(seed))
	data := make([]feature.Labeled, n)
	for i := range data {
		x := make(feature.Instance, k)
		for j := range x {
			x[j] = feature.Value(rng.Intn(4))
		}
		y := feature.Label(0)
		if (x[0] >= 2) != (x[1] == 0) {
			y = 1
		}
		if rng.Float64() < noise {
			y = 1 - y
		}
		data[i] = feature.Labeled{X: x, Y: y}
	}
	return schema, data
}

func TestTrainTreeFitsCleanData(t *testing.T) {
	schema, data := synthData(t, 2000, 5, 0, 1)
	tree, err := TrainTree(schema, data, TreeConfig{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(tree, data); acc < 0.99 {
		t.Fatalf("tree training accuracy = %.3f, want ≥0.99", acc)
	}
	if tree.NumLabels() != 2 {
		t.Fatal("NumLabels wrong")
	}
}

func TestTrainTreeEmpty(t *testing.T) {
	schema, _ := synthData(t, 1, 3, 0, 1)
	if _, err := TrainTree(schema, nil, TreeConfig{}); err == nil {
		t.Fatal("expected error on empty data")
	}
}

func TestTreeDepthCap(t *testing.T) {
	schema, data := synthData(t, 1000, 5, 0.1, 2)
	tree, err := TrainTree(schema, data, TreeConfig{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d := tree.Depth(); d > 3 {
		t.Fatalf("Depth = %d exceeds cap 3", d)
	}
	if tree.NumNodes() < 3 {
		t.Fatalf("suspiciously small tree: %d nodes", tree.NumNodes())
	}
}

func TestTreeLeavesConsistent(t *testing.T) {
	schema, data := synthData(t, 500, 4, 0, 3)
	tree, err := TrainTree(schema, data, TreeConfig{MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Every instance must satisfy exactly one leaf path, and that leaf's
	// class must equal the tree prediction.
	leaves := tree.Leaves()
	for _, d := range data[:100] {
		matched := 0
		var cls feature.Label
		for _, lp := range leaves {
			ok := true
			for _, pt := range lp.Tests {
				holds := d.X[pt.Attr] == pt.Value
				if holds != pt.Equal {
					ok = false
					break
				}
			}
			if ok {
				matched++
				cls = lp.Leaf
			}
		}
		if matched != 1 {
			t.Fatalf("instance matches %d leaf paths, want 1", matched)
		}
		if cls != tree.Predict(d.X) {
			t.Fatal("leaf path class disagrees with Predict")
		}
	}
}

func TestForestBeatsGuessing(t *testing.T) {
	schema, data := synthData(t, 3000, 6, 0.05, 4)
	f, err := TrainForest(schema, data[:2000], ForestConfig{NumTrees: 11, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(f, data[2000:]); acc < 0.8 {
		t.Fatalf("forest holdout accuracy = %.3f, want ≥0.8", acc)
	}
}

func TestForestEmpty(t *testing.T) {
	schema, _ := synthData(t, 1, 3, 0, 1)
	if _, err := TrainForest(schema, nil, ForestConfig{}); err == nil {
		t.Fatal("expected error on empty data")
	}
}

func TestGBDTBeatsGuessing(t *testing.T) {
	schema, data := synthData(t, 3000, 6, 0.05, 5)
	g, err := TrainGBDT(schema, data[:2000], GBDTConfig{Rounds: 40, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(g, data[2000:]); acc < 0.85 {
		t.Fatalf("GBDT holdout accuracy = %.3f, want ≥0.85", acc)
	}
	// Score/Prob/Predict must be mutually consistent.
	for _, d := range data[:50] {
		s, p, y := g.Score(d.X), g.Prob(d.X), g.Predict(d.X)
		if (s >= 0) != (y == 1) || (p >= 0.5) != (y == 1) {
			t.Fatalf("inconsistent score=%v prob=%v pred=%v", s, p, y)
		}
	}
}

func TestGBDTValidation(t *testing.T) {
	schema, data := synthData(t, 10, 3, 0, 1)
	if _, err := TrainGBDT(schema, nil, GBDTConfig{}); err == nil {
		t.Fatal("expected error on empty data")
	}
	multi := feature.MustSchema(schema.Attrs, []string{"a", "b", "c"})
	if _, err := TrainGBDT(multi, data, GBDTConfig{}); err == nil {
		t.Fatal("expected error on non-binary labels")
	}
}

func TestAdditiveLearnsMainEffects(t *testing.T) {
	// Label depends additively on feature 0 only.
	attrs := []feature.Attribute{
		{Name: "A", Values: []string{"v0", "v1"}},
		{Name: "B", Values: []string{"v0", "v1"}},
	}
	schema := feature.MustSchema(attrs, []string{"neg", "pos"})
	rng := rand.New(rand.NewSource(11))
	var data []feature.Labeled
	for i := 0; i < 2000; i++ {
		x := feature.Instance{feature.Value(rng.Intn(2)), feature.Value(rng.Intn(2))}
		y := x[0] // label = feature A
		data = append(data, feature.Labeled{X: x, Y: feature.Label(y)})
	}
	m, err := TrainAdditive(schema, data, AdditiveConfig{Epochs: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(m, data); acc < 0.99 {
		t.Fatalf("additive accuracy = %.3f", acc)
	}
	// Contribution of A must dwarf that of B.
	x := feature.Instance{1, 1}
	dA := m.Contribution(x, 0) - m.Weights[0][0]
	dB := m.Contribution(x, 1) - m.Weights[1][0]
	if dA < 4*absf(dB) {
		t.Fatalf("feature A effect %.3f not dominant over B %.3f", dA, dB)
	}
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestQueryCounter(t *testing.T) {
	schema, data := synthData(t, 100, 3, 0, 1)
	tree, err := TrainTree(schema, data, TreeConfig{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueryCounter(tree)
	for i := 0; i < 7; i++ {
		q.Predict(data[i].X)
	}
	if q.Queries() != 7 || q.NumLabels() != 2 {
		t.Fatalf("Queries = %d, want 7", q.Queries())
	}
}

func TestHelpers(t *testing.T) {
	schema, data := synthData(t, 50, 3, 0, 1)
	_ = schema
	c := ConstantModel{Label: 1, Labels: 2}
	if c.Predict(data[0].X) != 1 || c.NumLabels() != 2 {
		t.Fatal("ConstantModel wrong")
	}
	f := FuncModel{Fn: func(x feature.Instance) feature.Label { return x[0] % 2 }, Labels: 2}
	if f.Predict(feature.Instance{3, 0, 0}) != 1 {
		t.Fatal("FuncModel wrong")
	}
	xs := make([]feature.Instance, len(data))
	for i, d := range data {
		xs[i] = d.X
	}
	lab := Labels(c, xs)
	if len(lab) != 50 || lab[3].Y != 1 {
		t.Fatal("Labels wrong")
	}
	if Accuracy(c, nil) != 0 {
		t.Fatal("Accuracy on empty data must be 0")
	}
}
