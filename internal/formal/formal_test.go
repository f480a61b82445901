package formal

import (
	"math/rand"
	"testing"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/model"
)

// smallSchema builds a schema whose feature space is small enough to
// enumerate (for brute-force conformity oracles).
func smallSchema(t testing.TB, cards ...int) *feature.Schema {
	t.Helper()
	attrs := make([]feature.Attribute, len(cards))
	for i, c := range cards {
		vals := make([]string, c)
		for v := range vals {
			vals[v] = string(rune('a' + v))
		}
		attrs[i] = feature.Attribute{Name: string(rune('A' + i)), Values: vals}
	}
	return feature.MustSchema(attrs, []string{"neg", "pos"})
}

// enumerate calls fn for every instance of the space.
func enumerate(s *feature.Schema, fn func(x feature.Instance)) {
	n := s.NumFeatures()
	x := make(feature.Instance, n)
	var rec func(a int)
	rec = func(a int) {
		if a == n {
			fn(x)
			return
		}
		for v := 0; v < s.Attrs[a].Cardinality(); v++ {
			x[a] = feature.Value(v)
			rec(a + 1)
		}
	}
	rec(0)
}

// bruteConformant checks conformity of key over the entire space.
func bruteConformant(s *feature.Schema, m model.Model, x feature.Instance, key core.Key) bool {
	target := m.Predict(x)
	ok := true
	enumerate(s, func(z feature.Instance) {
		if !ok {
			return
		}
		if z.AgreesOn(x, key) && m.Predict(z) != target {
			ok = false
		}
	})
	return ok
}

func randomTraining(rng *rand.Rand, s *feature.Schema, n int) []feature.Labeled {
	data := make([]feature.Labeled, n)
	for i := range data {
		x := make(feature.Instance, s.NumFeatures())
		for a := range x {
			x[a] = feature.Value(rng.Intn(s.Attrs[a].Cardinality()))
		}
		y := feature.Label(0)
		if (x[0]+x[1])%2 == 0 || rng.Intn(10) == 0 {
			y = 1
		}
		data[i] = feature.Labeled{X: x, Y: y}
	}
	return data
}

func TestTreeExplainerConformantAndMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := smallSchema(t, 3, 3, 2, 2)
	data := randomTraining(rng, s, 400)
	tree, err := model.TrainTree(s, data, model.TreeConfig{MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewTreeExplainer(tree, s)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 15; trial++ {
		x := data[rng.Intn(len(data))].X
		key, err := ex.ExplainKey(x)
		if err != nil {
			t.Fatal(err)
		}
		if !bruteConformant(s, tree, x, key) {
			t.Fatalf("trial %d: formal key %v not conformant over the space", trial, key)
		}
		// Subset-minimality: removing any feature admits a counterexample.
		for i := range key {
			reduced := append(append(core.Key{}, key[:i]...), key[i+1:]...)
			if bruteConformant(s, tree, x, reduced) {
				t.Fatalf("trial %d: key %v not minimal (can drop %d)", trial, key, key[i])
			}
		}
	}
}

func TestForestExplainerConformantAndMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := smallSchema(t, 3, 2, 2, 3)
	data := randomTraining(rng, s, 500)
	f, err := model.TrainForest(s, data, model.ForestConfig{NumTrees: 5, MaxDepth: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewForestExplainer(f, s)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		x := data[rng.Intn(len(data))].X
		key, err := ex.ExplainKey(x)
		if err != nil {
			t.Fatal(err)
		}
		if !bruteConformant(s, f, x, key) {
			t.Fatalf("trial %d: forest key %v not conformant", trial, key)
		}
		for i := range key {
			reduced := append(append(core.Key{}, key[:i]...), key[i+1:]...)
			if bruteConformant(s, f, x, reduced) {
				t.Fatalf("trial %d: forest key %v not minimal", trial, key)
			}
		}
	}
}

// The SAT oracle must agree with brute-force counterexample search for
// arbitrary fixed-feature sets.
func TestSATOracleAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := smallSchema(t, 2, 3, 2)
	data := randomTraining(rng, s, 300)
	f, err := model.TrainForest(s, data, model.ForestConfig{NumTrees: 3, MaxDepth: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	o, err := newSATOracle(s, f.Trees, forestSemantics)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 40; trial++ {
		x := data[rng.Intn(len(data))].X
		E := make([]bool, s.NumFeatures())
		for a := range E {
			E[a] = rng.Intn(2) == 0
		}
		got, err := o.exists(x, E)
		if err != nil {
			t.Fatal(err)
		}
		target := f.Predict(x)
		want := false
		enumerate(s, func(z feature.Instance) {
			if want {
				return
			}
			ok := true
			for a, fixed := range E {
				if fixed && z[a] != x[a] {
					ok = false
					break
				}
			}
			if ok && f.Predict(z) != target {
				want = true
			}
		})
		if got != want {
			t.Fatalf("trial %d: oracle=%v brute=%v (E=%v x=%v)", trial, got, want, E, x)
		}
	}
}

func TestGBDTExplainerSound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := smallSchema(t, 3, 3, 2, 2)
	data := randomTraining(rng, s, 400)
	g, err := model.TrainGBDT(s, data, model.GBDTConfig{Rounds: 10, MaxDepth: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewGBDTExplainer(g, s)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 15; trial++ {
		x := data[rng.Intn(len(data))].X
		key, err := ex.ExplainKey(x)
		if err != nil {
			t.Fatal(err)
		}
		// Interval bounds are sound: the key must be conformant over the
		// entire feature space (it may not be minimal).
		if !bruteConformant(s, g, x, key) {
			t.Fatalf("trial %d: GBDT key %v not conformant", trial, key)
		}
	}
}

func TestExplainerValidation(t *testing.T) {
	s := smallSchema(t, 2, 2)
	tree := &model.Tree{Root: &model.TreeNode{Attr: -1, Leaf: 1}}
	ex, err := NewTreeExplainer(tree, s)
	if err != nil {
		t.Fatal(err)
	}
	// Constant model: the empty key is a formal explanation.
	key, err := ex.ExplainKey(feature.Instance{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(key) != 0 {
		t.Fatalf("constant model should yield the empty key, got %v", key)
	}
	if _, err := ex.ExplainKey(feature.Instance{0}); err == nil {
		t.Fatal("bad instance accepted")
	}
	if _, err := newSATOracle(s, nil, treeSemantics); err == nil {
		t.Fatal("empty ensemble accepted")
	}
	multi := feature.MustSchema(s.Attrs, []string{"a", "b", "c"})
	forest := &model.Forest{}
	_ = multi
	_ = forest
}

func TestExplainerInterface(t *testing.T) {
	s := smallSchema(t, 2, 2, 2)
	rng := rand.New(rand.NewSource(9))
	data := randomTraining(rng, s, 200)
	tree, err := model.TrainTree(s, data, model.TreeConfig{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewTreeExplainer(tree, s)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Name() != "Xreason" {
		t.Fatal("Name wrong")
	}
	exp, err := ex.Explain(data[0].X)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Scores != nil {
		t.Fatal("formal explanations must not carry scores")
	}
}
