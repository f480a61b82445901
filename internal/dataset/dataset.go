// Package dataset provides seeded synthetic generators for the nine datasets
// of the paper's evaluation (Table 1). The real UCI/Kaggle/Magellan data is
// not redistributable or reachable offline, so each generator reproduces the
// schema, feature cardinalities, row counts, class skew and — crucially for
// relative keys — feature associations of its original, with labels drawn
// from a latent rule plus noise (see DESIGN.md §2 for the substitution
// argument). Numeric columns are generated raw and discretized with
// equal-width buckets, so the #-bucket experiments (Fig. 3h/3i/4d) can vary
// the discretization.
package dataset

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/xai-db/relativekeys/internal/feature"
)

// Options controls dataset materialization.
type Options struct {
	Seed int64 // generation seed; 0 means the fixed default per dataset
	Size int   // row count override; 0 means the paper's size (Table 1)
	// Buckets overrides the bucket count for named numeric columns
	// (default 10 per column, as in §7.3).
	Buckets map[string]int
}

// Dataset is a materialized dataset: a discrete schema, ground-truth labeled
// instances, and the 70/30 train/inference split used in §7.1.
type Dataset struct {
	Name      string
	Schema    *feature.Schema
	Instances []feature.Labeled
	TrainIdx  []int
	TestIdx   []int
}

// Train returns the training rows.
func (d *Dataset) Train() []feature.Labeled { return gather(d.Instances, d.TrainIdx) }

// Test returns the inference rows.
func (d *Dataset) Test() []feature.Labeled { return gather(d.Instances, d.TestIdx) }

func gather(items []feature.Labeled, idx []int) []feature.Labeled {
	out := make([]feature.Labeled, len(idx))
	for i, j := range idx {
		out[i] = items[j]
	}
	return out
}

// catCol describes a categorical column with a sampling distribution.
type catCol struct {
	name    string
	values  []string
	weights []float64 // nil = uniform
}

// numCol describes a raw numeric column to be bucketed.
type numCol struct {
	name    string
	buckets int // default bucket count
	// lo and hi are the column's minimum and maximum over the rows the
	// generator draws at the spec's default seed and size, the range Load
	// buckets it over by default. LoadSchema reads them instead of running
	// the generator; TestNumericRangesMatchGenerator checks them bit for bit.
	lo, hi float64
}

// rawRow carries one generated row before discretization.
type rawRow struct {
	cats  []int
	nums  []float64
	label int
}

// spec fully describes a synthetic dataset.
type spec struct {
	name   string
	size   int
	cats   []catCol
	nums   []numCol
	labels []string
	seed   int64
	// gen fills a rawRow given the rng; it must set every cat, num and the
	// label.
	gen func(r *rand.Rand, row *rawRow)
	// order lists column names in schema order (mixing cats and nums);
	// empty means all cats then all nums.
	order []string
}

var registry = map[string]spec{}

func register(s spec) {
	if _, dup := registry[s.name]; dup {
		panic("dataset: duplicate spec " + s.name)
	}
	registry[s.name] = s
}

// Names lists the available general ML datasets in a stable order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// GeneralNames lists the five general ML datasets in the paper's order.
func GeneralNames() []string {
	return []string{"adult", "german", "compas", "loan", "recid"}
}

// Load materializes a dataset by name.
func Load(name string, opt Options) (*Dataset, error) {
	s, err := lookup(name)
	if err != nil {
		return nil, err
	}
	g, err := generate(s, opt)
	if err != nil {
		return nil, err
	}
	f, err := fitSchema(s, g.lo, g.hi, opt.Buckets)
	if err != nil {
		return nil, err
	}
	instances := make([]feature.Labeled, len(g.rows))
	for i, row := range g.rows {
		x := make(feature.Instance, len(f.refs))
		for a, ref := range f.refs {
			if ref.cat {
				x[a] = feature.Value(row.cats[ref.idx])
			} else {
				x[a] = f.bucketers[ref.idx].Bucket(row.nums[ref.idx])
			}
		}
		instances[i] = feature.Labeled{X: x, Y: feature.Label(row.label)}
	}

	d := &Dataset{Name: name, Schema: f.schema, Instances: instances}
	// Deterministic 70/30 split via a seeded shuffle.
	size := len(instances)
	perm := rand.New(rand.NewSource(g.seed + 1)).Perm(size)
	cut := size * 7 / 10
	d.TrainIdx = append([]int(nil), perm[:cut]...)
	d.TestIdx = append([]int(nil), perm[cut:]...)
	sort.Ints(d.TrainIdx)
	sort.Ints(d.TestIdx)
	return d, nil
}

// LoadSchema returns the schema Load(name, Options{}) builds without
// running the generator: each numeric column is bucketed over the range its
// spec records for the default seed and size (numCol.lo, numCol.hi).
func LoadSchema(name string) (*feature.Schema, error) {
	s, err := lookup(name)
	if err != nil {
		return nil, err
	}
	lo, hi := make([]float64, len(s.nums)), make([]float64, len(s.nums))
	for c, nc := range s.nums {
		lo[c], hi[c] = nc.lo, nc.hi
	}
	f, err := fitSchema(s, lo, hi, nil)
	if err != nil {
		return nil, err
	}
	return f.schema, nil
}

// lookup returns the spec registered under name.
func lookup(name string) (spec, error) {
	s, ok := registry[name]
	if !ok {
		return spec{}, fmt.Errorf("dataset: unknown dataset %q (have %v)", name, Names())
	}
	return s, nil
}

// generated is one run of a dataset's generator: every row and the range
// of each numeric column.
type generated struct {
	seed   int64
	rows   []rawRow
	lo, hi []float64 // per numeric column of the spec
}

// generate runs s's generator over the rows opt asks for, refusing a
// categorical code or label outside its domain, and records each numeric
// column's range, the span of its values that feature.NewBucketer cuts.
func generate(s spec, opt Options) (*generated, error) {
	size := s.size
	if opt.Size > 0 {
		size = opt.Size
	}
	g := &generated{seed: s.seed, rows: make([]rawRow, size)}
	if opt.Seed != 0 {
		g.seed = opt.Seed
	}
	rng := rand.New(rand.NewSource(g.seed))
	g.lo, g.hi = make([]float64, len(s.nums)), make([]float64, len(s.nums))
	for i := range g.rows {
		row := &g.rows[i]
		*row = rawRow{cats: make([]int, len(s.cats)), nums: make([]float64, len(s.nums))}
		s.gen(rng, row)
		for c, v := range row.cats {
			if v < 0 || v >= len(s.cats[c].values) {
				return nil, fmt.Errorf("dataset %s: generator produced value %d for %s", s.name, v, s.cats[c].name)
			}
		}
		if row.label < 0 || row.label >= len(s.labels) {
			return nil, fmt.Errorf("dataset %s: generator produced label %d", s.name, row.label)
		}
		for c, v := range row.nums {
			if i == 0 || v < g.lo[c] {
				g.lo[c] = v
			}
			if i == 0 || v > g.hi[c] {
				g.hi[c] = v
			}
		}
	}
	return g, nil
}

// fitted is a spec's schema fitted to numeric ranges.
type fitted struct {
	schema    *feature.Schema
	refs      []colRef            // the spec column of each schema attribute
	bucketers []*feature.Bucketer // one per numeric column
}

// colRef names one schema column: categorical column idx or numeric column
// idx of the spec.
type colRef struct {
	cat bool
	idx int
}

// fitSchema assembles s's schema in declared order, each numeric column c
// bucketed over [lo[c], hi[c]] into its default bucket count or the one
// buckets names for it.
func fitSchema(s spec, lo, hi []float64, buckets map[string]int) (*fitted, error) {
	f := &fitted{bucketers: make([]*feature.Bucketer, len(s.nums))}
	for c, nc := range s.nums {
		k := nc.buckets
		if k == 0 {
			k = 10
		}
		if kk, ok := buckets[nc.name]; ok {
			k = kk
		}
		b, err := feature.NewBucketer(lo[c], hi[c], k)
		if err != nil {
			return nil, fmt.Errorf("dataset %s: bucketing %s: %w", s.name, nc.name, err)
		}
		f.bucketers[c] = b
	}

	f.refs = make([]colRef, 0, len(s.cats)+len(s.nums))
	if len(s.order) == 0 {
		for i := range s.cats {
			f.refs = append(f.refs, colRef{true, i})
		}
		for i := range s.nums {
			f.refs = append(f.refs, colRef{false, i})
		}
	} else {
		for _, n := range s.order {
			found := false
			for i, cc := range s.cats {
				if cc.name == n {
					f.refs = append(f.refs, colRef{true, i})
					found = true
					break
				}
			}
			if found {
				continue
			}
			for i, nc := range s.nums {
				if nc.name == n {
					f.refs = append(f.refs, colRef{false, i})
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("dataset %s: order references unknown column %q", s.name, n)
			}
		}
		if len(f.refs) != len(s.cats)+len(s.nums) {
			return nil, fmt.Errorf("dataset %s: order lists %d of %d columns", s.name, len(f.refs), len(s.cats)+len(s.nums))
		}
	}

	attrs := make([]feature.Attribute, len(f.refs))
	for a, ref := range f.refs {
		if ref.cat {
			attrs[a] = feature.Attribute{Name: s.cats[ref.idx].name, Values: s.cats[ref.idx].values}
		} else {
			attrs[a] = f.bucketers[ref.idx].Attribute(s.nums[ref.idx].name)
		}
	}
	schema, err := feature.NewSchema(attrs, s.labels)
	if err != nil {
		return nil, fmt.Errorf("dataset %s: %w", s.name, err)
	}
	f.schema = schema
	return f, nil
}

// choice draws an index from a weighted distribution (uniform when w is nil).
func choice(r *rand.Rand, n int, w []float64) int {
	if w == nil {
		return r.Intn(n)
	}
	total := 0.0
	for _, x := range w {
		total += x
	}
	t := r.Float64() * total
	for i, x := range w {
		t -= x
		if t <= 0 {
			return i
		}
	}
	return n - 1
}

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// flip returns true with probability p.
func flip(r *rand.Rand, p float64) bool { return r.Float64() < p }
