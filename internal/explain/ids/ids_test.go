package ids

import (
	"math/rand"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

func fixture(t testing.TB, n int, seed int64) (*feature.Schema, []feature.Labeled) {
	t.Helper()
	s := feature.MustSchema([]feature.Attribute{
		{Name: "Credit", Values: []string{"poor", "good"}},
		{Name: "Income", Values: []string{"low", "mid", "high"}},
		{Name: "Area", Values: []string{"urban", "rural"}},
	}, []string{"Denied", "Approved"})
	rng := rand.New(rand.NewSource(seed))
	data := make([]feature.Labeled, n)
	for i := range data {
		x := feature.Instance{
			feature.Value(rng.Intn(2)),
			feature.Value(rng.Intn(3)),
			feature.Value(rng.Intn(2)),
		}
		y := feature.Label(0)
		if x[0] == 1 || x[1] == 2 { // good credit or high income → approved
			y = 1
		}
		if rng.Intn(25) == 0 {
			y = 1 - y
		}
		data[i] = feature.Labeled{X: x, Y: y}
	}
	return s, data
}

func TestFitSizeLimited(t *testing.T) {
	s, data := fixture(t, 600, 1)
	rs, err := Fit(s, data, Config{MaxRules: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rules) == 0 || len(rs.Rules) > 4 {
		t.Fatalf("got %d rules, want 1..4", len(rs.Rules))
	}
	for _, r := range rs.Rules {
		if r.Precision() < 0.55 {
			t.Fatalf("rule %s has precision %.3f", r.Render(s), r.Precision())
		}
	}
}

func TestFullModeCoversMore(t *testing.T) {
	s, data := fixture(t, 600, 2)
	limited, err := Fit(s, data, Config{MaxRules: 2})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Fit(s, data, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rules) < len(limited.Rules) {
		t.Fatalf("full run produced fewer rules (%d) than limited (%d)", len(full.Rules), len(limited.Rules))
	}
	countCovered := func(rs *RuleSet) int {
		c := 0
		for _, li := range data {
			if len(rs.Covering(li.X)) > 0 {
				c++
			}
		}
		return c
	}
	if countCovered(full) < countCovered(limited) {
		t.Fatal("full rule set covers fewer instances")
	}
}

func TestCoveringMayMissInstances(t *testing.T) {
	// The paper's case study: a size-limited decision set can fail to cover
	// some instance.
	s, data := fixture(t, 600, 3)
	rs, err := Fit(s, data, Config{MaxRules: 1})
	if err != nil {
		t.Fatal(err)
	}
	missed := false
	for _, li := range data {
		if len(rs.Covering(li.X)) == 0 {
			missed = true
			break
		}
	}
	if !missed {
		t.Skip("single rule happened to cover everything (unlikely)")
	}
}

func TestRuleMatchesAndRender(t *testing.T) {
	s, _ := fixture(t, 10, 4)
	r := Rule{Conds: []Condition{{Attr: 0, Value: 1}, {Attr: 1, Value: 2}}, Class: 1}
	if !r.Matches(feature.Instance{1, 2, 0}) || r.Matches(feature.Instance{0, 2, 0}) {
		t.Fatal("Matches wrong")
	}
	got := r.Render(s)
	want := "IF Credit='good' ∧ Income='high' THEN Prediction='Approved'"
	if got != want {
		t.Fatalf("Render = %q, want %q", got, want)
	}
	if (&Rule{}).Precision() != 0 {
		t.Fatal("empty rule precision should be 0")
	}
}

func TestFitValidation(t *testing.T) {
	s, _ := fixture(t, 10, 5)
	if _, err := Fit(s, nil, Config{}); err == nil {
		t.Fatal("empty data accepted")
	}
}

func TestRulesArePrecise(t *testing.T) {
	s, data := fixture(t, 800, 6)
	rs, err := Fit(s, data, Config{MaxRules: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Recompute rule precision on the data and compare with stored stats.
	for _, r := range rs.Rules {
		cover, correct := 0, 0
		for _, li := range data {
			if r.Matches(li.X) {
				cover++
				if li.Y == r.Class {
					correct++
				}
			}
		}
		if cover != r.cover || correct != r.correct {
			t.Fatalf("rule %s stats stale: %d/%d vs stored %d/%d",
				r.Render(s), correct, cover, r.correct, r.cover)
		}
	}
}
