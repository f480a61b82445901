package certa

import (
	"testing"

	"github.com/xai-db/relativekeys/internal/em"
	"github.com/xai-db/relativekeys/internal/explain"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/model"
	"github.com/xai-db/relativekeys/internal/nn"
)

func fixture(t testing.TB) (*em.Dataset, model.Model, *explain.Background) {
	t.Helper()
	d, err := em.Load("ag", em.Options{Size: 1500})
	if err != nil {
		t.Fatal(err)
	}
	m, err := nn.Train(d.Schema, d.Labeled(d.TrainIdx), nn.Config{Hidden: 10, Epochs: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]feature.Instance, 0, len(d.TrainIdx))
	for _, j := range d.TrainIdx {
		rows = append(rows, d.Pairs[j].X)
	}
	bg, err := explain.NewBackground(d.Schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	return d, m, bg
}

func TestCERTAScoresTitleForMatches(t *testing.T) {
	d, m, bg := fixture(t)
	e := New(m, bg, Config{Seed: 2})
	if e.Name() != "CERTA" {
		t.Fatal("Name wrong")
	}
	// Find a confidently matched pair; Title similarity should matter most.
	var matched *em.Pair
	for i := range d.Pairs {
		if d.Pairs[i].Y == 1 && m.Predict(d.Pairs[i].X) == 1 {
			matched = &d.Pairs[i]
			break
		}
	}
	if matched == nil {
		t.Skip("no matched pair found")
	}
	exp, err := e.Explain(matched.X)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Scores) != d.Schema.NumFeatures() {
		t.Fatalf("got %d scores", len(exp.Scores))
	}
	top := explain.DeriveKey(exp.Scores, 1)
	if !top.Contains(0) { // SimTitle is feature 0
		t.Logf("scores: %v", exp.Scores)
		// Title dominates in most trained matchers, but brand/price can tie;
		// require it at least in the top 2.
		top2 := explain.DeriveKey(exp.Scores, 2)
		if !top2.Contains(0) {
			t.Fatalf("title similarity not in top-2: %v", exp.Scores)
		}
	}
}

func TestCERTAQueryHungry(t *testing.T) {
	d, m, bg := fixture(t)
	q := model.NewQueryCounter(m)
	e := New(q, bg, Config{Seed: 3})
	if _, err := e.Explain(d.Pairs[0].X); err != nil {
		t.Fatal(err)
	}
	if q.Queries() < 100 {
		t.Fatalf("CERTA made only %d queries; expected hundreds", q.Queries())
	}
}

func TestCERTAValidatesInstance(t *testing.T) {
	_, m, bg := fixture(t)
	e := New(m, bg, Config{})
	if _, err := e.Explain(feature.Instance{0}); err == nil {
		t.Fatal("bad instance accepted")
	}
}
