package core

import (
	"math/rand"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

func TestNewContextValidation(t *testing.T) {
	s := loanSchema(t)
	bad := []feature.Labeled{{X: feature.Instance{0, 0}, Y: 0}}
	if _, err := NewContext(s, bad); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	bad = []feature.Labeled{{X: feature.Instance{0, 0, 0, 0}, Y: 7}}
	if _, err := NewContext(s, bad); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	c, err := NewContext(s, nil)
	if err != nil || c.Len() != 0 {
		t.Fatalf("empty context: %v", err)
	}
}

func TestContextIndexConsistency(t *testing.T) {
	c, _, _ := loanContext(t)
	if c.Len() != 7 {
		t.Fatalf("Len = %d", c.Len())
	}
	// Posting lists partition rows per attribute.
	for a := range c.Schema.Attrs {
		total := 0
		for v := 0; v < c.Schema.Attrs[a].Cardinality(); v++ {
			set := c.Posting(a, feature.Value(v))
			total += set.Count()
			set.ForEach(func(i int) bool {
				if c.Item(i).X[a] != feature.Value(v) {
					t.Fatalf("posting[%d][%d] contains row %d with value %d", a, v, i, c.Item(i).X[a])
				}
				return true
			})
		}
		if total != 7 {
			t.Fatalf("attr %d postings cover %d rows, want 7", a, total)
		}
	}
	// Label sets partition rows.
	if c.LabelSet(0).Count()+c.LabelSet(1).Count() != 7 {
		t.Fatal("label sets do not partition")
	}
	if d := c.Disagreeing(0); d.Count() != 3 {
		t.Fatalf("Disagreeing(Denied) = %d, want 3", d.Count())
	}
}

func TestContextGrowth(t *testing.T) {
	s := loanSchema(t)
	c, err := NewContext(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		x := feature.Instance{
			feature.Value(rng.Intn(2)),
			feature.Value(rng.Intn(3)),
			feature.Value(rng.Intn(2)),
			feature.Value(rng.Intn(3)),
		}
		if err := c.Add(feature.Labeled{X: x, Y: feature.Label(rng.Intn(2))}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 500 {
		t.Fatalf("Len = %d", c.Len())
	}
	// Spot-check index after growth.
	count := 0
	for i := 0; i < 500; i++ {
		if c.Item(i).X[attrCredit] == 0 {
			count++
		}
	}
	if got := c.Posting(attrCredit, 0).Count(); got != count {
		t.Fatalf("posting count %d, want %d", got, count)
	}
}

func TestBudget(t *testing.T) {
	cases := []struct {
		alpha float64
		n     int
		want  int
	}{
		{1.0, 100, 0},
		{0.9, 100, 10},
		{0.95, 100, 5},
		{6.0 / 7.0, 7, 1},
		{0.5, 3, 1},
		{1.0, 0, 0},
	}
	for _, cse := range cases {
		if got := Budget(cse.alpha, cse.n); got != cse.want {
			t.Errorf("Budget(%v,%d) = %d, want %d", cse.alpha, cse.n, got, cse.want)
		}
	}
}

func TestValidateAlpha(t *testing.T) {
	for _, a := range []float64{0, -0.1, 1.1, 2} {
		if err := ValidateAlpha(a); err == nil {
			t.Errorf("α=%v accepted", a)
		}
	}
	for _, a := range []float64{0.01, 0.5, 1} {
		if err := ValidateAlpha(a); err != nil {
			t.Errorf("α=%v rejected: %v", a, err)
		}
	}
}

// TestPostingCountInvariant pins the incremental count tables to their
// definitions: after an arbitrary interleaving of AddSlot and Remove,
// PostingCount equals a fresh popcount of the posting list for every
// (attribute, value) pair, and the per-(attribute, value, label) table and
// the per-label totals equal a recount over the live rows. The greedy
// tie-break reads PostingCount and the served engine's first round reads the
// label table; a drift in either silently reorders keys.
func TestPostingCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(353))
	c := randomContext(t, rng, 150, 5, 3, 2)
	var live []int
	for i := 0; i < c.NumSlots(); i++ {
		live = append(live, i)
	}
	check := func(step int) {
		t.Helper()
		type cell struct {
			a int
			v feature.Value
			y feature.Label
		}
		recount := map[cell]int{}
		perLabel := map[feature.Label]int{}
		for _, li := range c.LiveItems() {
			for a, v := range li.X {
				recount[cell{a, v, li.Y}]++
			}
			perLabel[li.Y]++
		}
		for a := 0; a < c.Schema.NumFeatures(); a++ {
			for v := 0; v < c.Schema.Attrs[a].Cardinality(); v++ {
				if got, want := c.PostingCount(a, feature.Value(v)), c.Posting(a, feature.Value(v)).Count(); got != want {
					t.Fatalf("step %d: PostingCount(%d,%d) = %d, popcount %d", step, a, v, got, want)
				}
				for y := range c.Schema.Labels {
					k := cell{a, feature.Value(v), feature.Label(y)}
					if got := c.postingLabelCount(a, k.v, k.y); got != recount[k] {
						t.Fatalf("step %d: postingLabelCount(%d,%d,%d) = %d, recount %d", step, a, v, y, got, recount[k])
					}
				}
			}
		}
		for y := range c.Schema.Labels {
			if got, want := c.disagreeingCount(feature.Label(y)), c.Len()-perLabel[feature.Label(y)]; got != want {
				t.Fatalf("step %d: disagreeingCount(%d) = %d, recount %d", step, y, got, want)
			}
		}
	}
	check(-1)
	for step := 0; step < 300; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(live))
			if err := c.Remove(live[i]); err != nil {
				t.Fatalf("Remove: %v", err)
			}
			live = append(live[:i], live[i+1:]...)
		} else {
			x := make(feature.Instance, c.Schema.NumFeatures())
			for j := range x {
				x[j] = feature.Value(rng.Intn(c.Schema.Attrs[j].Cardinality()))
			}
			slot, err := c.AddSlot(feature.Labeled{X: x, Y: feature.Label(rng.Intn(2))})
			if err != nil {
				t.Fatalf("AddSlot: %v", err)
			}
			live = append(live, slot)
		}
		if step%37 == 0 {
			check(step)
		}
	}
	check(300)
}
