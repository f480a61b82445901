package gam

import (
	"math/rand"
	"testing"

	"github.com/xai-db/relativekeys/internal/explain"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/model"
)

func fixture(t testing.TB, seed int64) (*feature.Schema, model.Model, []feature.Instance) {
	t.Helper()
	s := feature.MustSchema([]feature.Attribute{
		{Name: "A", Values: []string{"v0", "v1"}},
		{Name: "B", Values: []string{"v0", "v1", "v2"}},
		{Name: "C", Values: []string{"v0", "v1"}},
	}, []string{"neg", "pos"})
	m := model.FuncModel{Fn: func(x feature.Instance) feature.Label {
		return x[0] // depends only on A
	}, Labels: 2}
	rng := rand.New(rand.NewSource(seed))
	rows := make([]feature.Instance, 800)
	for i := range rows {
		rows[i] = feature.Instance{
			feature.Value(rng.Intn(2)),
			feature.Value(rng.Intn(3)),
			feature.Value(rng.Intn(2)),
		}
	}
	return s, m, rows
}

func TestGAMFindsMainEffect(t *testing.T) {
	s, m, rows := fixture(t, 1)
	e, err := New(m, s, rows, Config{Epochs: 25, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := e.Explain(feature.Instance{1, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	top := explain.DeriveKey(exp.Scores, 1)
	if !top.Contains(0) {
		t.Fatalf("GAM top feature %v, want 0 (scores %v)", top, exp.Scores)
	}
	if e.Name() != "GAM" {
		t.Fatal("Name wrong")
	}
	// The surrogate must mimic the model well.
	agree := 0
	for _, x := range rows {
		if e.gam.Predict(x) == m.Predict(x) {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(rows)); frac < 0.95 {
		t.Fatalf("surrogate fidelity %.3f too low", frac)
	}
}

func TestGAMValidation(t *testing.T) {
	s, m, rows := fixture(t, 3)
	if _, err := New(m, s, nil, Config{}); err == nil {
		t.Fatal("empty reference rows accepted")
	}
	e, err := New(m, s, rows, Config{Epochs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Explain(feature.Instance{0}); err == nil {
		t.Fatal("bad instance accepted")
	}
}

func TestGAMScoresCentered(t *testing.T) {
	s, m, rows := fixture(t, 4)
	e, err := New(m, s, rows, Config{Epochs: 15, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Average score over reference rows should be near zero per feature
	// (contributions are centered by construction).
	sums := make([]float64, s.NumFeatures())
	for _, x := range rows {
		exp, err := e.Explain(x)
		if err != nil {
			t.Fatal(err)
		}
		for a, v := range exp.Scores {
			sums[a] += v
		}
	}
	for a, v := range sums {
		if avg := v / float64(len(rows)); avg > 0.05 || avg < -0.05 {
			t.Fatalf("feature %d mean score %.4f not centered", a, avg)
		}
	}
}
