package dataset

import (
	"math"
	"reflect"
	"strconv"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/model"
)

// paperSizes pins the Table 1 row and feature counts.
var paperSizes = map[string]struct{ rows, feats int }{
	"adult":  {32526, 14},
	"german": {1000, 21},
	"compas": {6172, 11},
	"loan":   {614, 11},
	"recid":  {6340, 15},
}

func TestTable1SizesAndSchemas(t *testing.T) {
	for name, want := range paperSizes {
		d, err := Load(name, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(d.Instances) != want.rows {
			t.Errorf("%s: %d rows, want %d", name, len(d.Instances), want.rows)
		}
		if got := d.Schema.NumFeatures(); got != want.feats {
			t.Errorf("%s: %d features, want %d", name, got, want.feats)
		}
		if len(d.Schema.Labels) != 2 {
			t.Errorf("%s: want binary labels", name)
		}
		for i, li := range d.Instances {
			if err := d.Schema.Validate(li.X); err != nil {
				t.Fatalf("%s row %d: %v", name, i, err)
			}
		}
	}
}

func TestGeneralNamesAllRegistered(t *testing.T) {
	for _, n := range GeneralNames() {
		if _, err := Load(n, Options{Size: 50}); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if len(Names()) < 5 {
		t.Errorf("Names() = %v", Names())
	}
}

func TestUnknownDataset(t *testing.T) {
	if _, err := Load("nope", Options{}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// TestLoadSchemaMatchesLoad: the schema LoadSchema builds from the spec's
// recorded ranges equals the one Load builds over the materialized rows,
// attribute by attribute, value string by value string, for every dataset,
// and an unknown name is refused by both.
func TestLoadSchemaMatchesLoad(t *testing.T) {
	for _, name := range Names() {
		d, err := Load(name, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := LoadSchema(name)
		if err != nil {
			t.Fatalf("%s: LoadSchema: %v", name, err)
		}
		if !reflect.DeepEqual(got, d.Schema) {
			t.Fatalf("%s: LoadSchema = %+v, Load's schema %+v", name, got, d.Schema)
		}
	}
	if _, err := LoadSchema("nope"); err == nil {
		t.Fatal("LoadSchema accepted an unknown dataset")
	}
}

// TestNumericRangesMatchGenerator: the range each spec records for a
// numeric column is, bit for bit, the minimum and maximum the generator
// draws at the default seed and size. The bucket labels LoadSchema derives
// print four significant digits, so TestLoadSchemaMatchesLoad alone would
// pass a literal that is merely close. A failure prints the literals the
// spec should hold.
func TestNumericRangesMatchGenerator(t *testing.T) {
	for _, name := range Names() {
		s := registry[name]
		g, err := generate(s, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for c, nc := range s.nums {
			if math.Float64bits(nc.lo) != math.Float64bits(g.lo[c]) || math.Float64bits(nc.hi) != math.Float64bits(g.hi[c]) {
				t.Errorf("%s: %s records [%v, %v], the generator draws {name: %q, buckets: %d, lo: %s, hi: %s}", name, nc.name, nc.lo, nc.hi,
					nc.name, nc.buckets, strconv.FormatFloat(g.lo[c], 'g', -1, 64), strconv.FormatFloat(g.hi[c], 'g', -1, 64))
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Load("loan", Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load("loan", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Instances {
		if !a.Instances[i].X.Equal(b.Instances[i].X) || a.Instances[i].Y != b.Instances[i].Y {
			t.Fatalf("row %d differs across loads", i)
		}
	}
	c, err := Load("loan", Options{Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Instances {
		if !a.Instances[i].X.Equal(c.Instances[i].X) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestSplit(t *testing.T) {
	d, err := Load("compas", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.TrainIdx)+len(d.TestIdx) != len(d.Instances) {
		t.Fatal("split does not partition")
	}
	ratio := float64(len(d.TrainIdx)) / float64(len(d.Instances))
	if math.Abs(ratio-0.7) > 0.01 {
		t.Fatalf("train ratio = %.3f, want 0.70", ratio)
	}
	seen := map[int]bool{}
	for _, i := range append(append([]int{}, d.TrainIdx...), d.TestIdx...) {
		if seen[i] {
			t.Fatalf("row %d appears twice in the split", i)
		}
		seen[i] = true
	}
	if len(d.Train()) != len(d.TrainIdx) || len(d.Test()) != len(d.TestIdx) {
		t.Fatal("Train/Test accessors wrong")
	}
}

func TestClassBalanceSane(t *testing.T) {
	for _, name := range GeneralNames() {
		d, err := Load(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pos := 0
		for _, li := range d.Instances {
			if li.Y == 1 {
				pos++
			}
		}
		frac := float64(pos) / float64(len(d.Instances))
		if frac < 0.10 || frac > 0.90 {
			t.Errorf("%s: positive fraction %.3f is degenerate", name, frac)
		}
	}
}

func TestLabelsAreLearnable(t *testing.T) {
	// The latent rules must be learnable well above the majority baseline,
	// otherwise downstream experiments would be explaining noise.
	for _, name := range GeneralNames() {
		d, err := Load(name, Options{Size: 3000})
		if err != nil {
			t.Fatal(err)
		}
		train, test := d.Train(), d.Test()
		tree, err := model.TrainTree(d.Schema, train, model.TreeConfig{MaxDepth: 8, MinLeaf: 5})
		if err != nil {
			t.Fatal(err)
		}
		pos := 0
		for _, li := range test {
			if li.Y == 1 {
				pos++
			}
		}
		baseline := float64(pos) / float64(len(test))
		if baseline < 0.5 {
			baseline = 1 - baseline
		}
		acc := model.Accuracy(tree, test)
		if acc < baseline+0.03 {
			t.Errorf("%s: tree holdout accuracy %.3f barely beats baseline %.3f", name, acc, baseline)
		}
	}
}

func TestBucketOverride(t *testing.T) {
	d10, err := Load("loan", Options{})
	if err != nil {
		t.Fatal(err)
	}
	d20, err := Load("loan", Options{Buckets: map[string]int{"LoanAmount": 20}})
	if err != nil {
		t.Fatal(err)
	}
	a := d10.Schema.AttrIndex("LoanAmount")
	if d10.Schema.Attrs[a].Cardinality() != 10 {
		t.Fatalf("default LoanAmount buckets = %d", d10.Schema.Attrs[a].Cardinality())
	}
	if d20.Schema.Attrs[a].Cardinality() != 20 {
		t.Fatalf("overridden LoanAmount buckets = %d", d20.Schema.Attrs[a].Cardinality())
	}
}

func TestFeatureAssociationsExist(t *testing.T) {
	// EducationTier must be a function of Education in adult (the designed
	// association).
	d, err := Load("adult", Options{Size: 3000})
	if err != nil {
		t.Fatal(err)
	}
	edu := d.Schema.AttrIndex("Education")
	tier := d.Schema.AttrIndex("EducationTier")
	seen := map[feature.Value]feature.Value{}
	for _, li := range d.Instances {
		if prev, ok := seen[li.X[edu]]; ok && prev != li.X[tier] {
			t.Fatal("EducationTier is not a function of Education")
		}
		seen[li.X[edu]] = li.X[tier]
	}
}
