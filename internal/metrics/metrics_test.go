package metrics

import (
	"math"
	"testing"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/model"
)

func fixtures(t testing.TB) (*core.Context, []Explained) {
	t.Helper()
	s := feature.MustSchema([]feature.Attribute{
		{Name: "A", Values: []string{"a0", "a1"}},
		{Name: "B", Values: []string{"b0", "b1", "b2"}},
	}, []string{"neg", "pos"})
	items := []feature.Labeled{
		{X: feature.Instance{0, 0}, Y: 0},
		{X: feature.Instance{0, 1}, Y: 0},
		{X: feature.Instance{1, 0}, Y: 1},
		{X: feature.Instance{1, 1}, Y: 1},
		{X: feature.Instance{0, 2}, Y: 1}, // breaks key {A} for neg instances
	}
	ctx, err := core.NewContext(s, items)
	if err != nil {
		t.Fatal(err)
	}
	explained := []Explained{
		{X: items[0].X, Y: items[0].Y, Key: core.NewKey(0, 1)}, // conformant
		{X: items[0].X, Y: items[0].Y, Key: core.NewKey(0)},    // violated by row 4
	}
	return ctx, explained
}

func TestConformityAndPrecision(t *testing.T) {
	ctx, explained := fixtures(t)
	if got := Conformity(ctx, explained); got != 0.5 {
		t.Fatalf("Conformity = %v, want 0.5", got)
	}
	// Precision: first is 1.0, second tolerates 1 violation out of 5 → 0.8.
	want := (1.0 + 0.8) / 2
	if got := Precision(ctx, explained); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Precision = %v, want %v", got, want)
	}
	if Conformity(ctx, nil) != 1 || Precision(ctx, nil) != 1 {
		t.Fatal("empty explained sets should be vacuous")
	}
}

func TestSuccinctness(t *testing.T) {
	_, explained := fixtures(t)
	if got := Succinctness(explained); got != 1.5 {
		t.Fatalf("Succinctness = %v, want 1.5", got)
	}
	if Succinctness(nil) != 0 {
		t.Fatal("empty succinctness should be 0")
	}
}

func TestRecall(t *testing.T) {
	ctx, _ := fixtures(t)
	// Method A uses key {A,B} (covers only x itself); method B uses {A}
	// (covers x0 and x1).
	x := ctx.Item(0)
	a := []Explained{{X: x.X, Y: x.Y, Key: core.NewKey(0, 1)}}
	b := []Explained{{X: x.X, Y: x.Y, Key: core.NewKey(0)}}
	ra, rb, err := Recall(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// D(A) = {row0}; D(B) = {row0,row1}; union = 2.
	if ra != 0.5 || rb != 1.0 {
		t.Fatalf("Recall = %v,%v want 0.5,1.0", ra, rb)
	}
	if _, _, err := Recall(ctx, a, nil); err == nil {
		t.Fatal("misaligned recall inputs accepted")
	}
}

func TestFaithfulness(t *testing.T) {
	s := feature.MustSchema([]feature.Attribute{
		{Name: "A", Values: []string{"a0", "a1"}},
		{Name: "B", Values: []string{"b0", "b1"}},
	}, []string{"neg", "pos"})
	// Model depends only on feature A.
	m := model.FuncModel{Fn: func(x feature.Instance) feature.Label { return x[0] }, Labels: 2}
	x := feature.Instance{1, 1}
	onA := []Explained{{X: x, Y: 1, Key: core.NewKey(0)}}
	onB := []Explained{{X: x, Y: 1, Key: core.NewKey(1)}}
	fa := Faithfulness(m, s, onA, 10, 1)
	fb := Faithfulness(m, s, onB, 10, 1)
	if fa != 0 {
		t.Fatalf("masking the causal feature must always flip: %v", fa)
	}
	if fb != 1 {
		t.Fatalf("masking the irrelevant feature must never flip: %v", fb)
	}
	if Faithfulness(m, s, nil, 5, 1) != 0 {
		t.Fatal("empty faithfulness should be 0")
	}
}

func TestAccuracyCurve(t *testing.T) {
	preds := []feature.Label{1, 1, 0, 0}
	truth := []feature.Label{1, 0, 0, 1}
	curve, err := AccuracyCurve(preds, truth, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0.5, 2.0 / 3.0, 0.5}
	for i := range want {
		if math.Abs(curve[i]-want[i]) > 1e-12 {
			t.Fatalf("curve[%d] = %v, want %v", i, curve[i], want[i])
		}
	}
	if _, err := AccuracyCurve(nil, nil, 3); err == nil {
		t.Fatal("empty curve accepted")
	}
	if _, err := AccuracyCurve(preds, truth[:2], 2); err == nil {
		t.Fatal("misaligned curve accepted")
	}
}
