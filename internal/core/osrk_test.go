package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

// Invalid targets and arrivals are rejected with the checks Context.AddSlot
// runs — predictions outside the label space included — and a rejected
// arrival is not counted.
func TestOSRKValidation(t *testing.T) {
	s := loanSchema(t)
	x0 := feature.Instance{0, 0, 0, 0}
	if _, err := NewOSRK(s, x0, 0, 0, 1); err == nil {
		t.Fatal("α=0 accepted")
	}
	if _, err := NewOSRK(s, feature.Instance{0}, 0, 1, 1); err == nil {
		t.Fatal("bad instance accepted")
	}
	for _, y := range []feature.Label{-1, feature.Label(len(s.Labels))} {
		if _, err := NewOSRK(s, x0, y, 1, 1); err == nil {
			t.Fatalf("target prediction %d accepted", y)
		}
		if _, err := NewOSRKFixedProb(s, x0, y, 1, 1); err == nil {
			t.Fatalf("fixed-prob target prediction %d accepted", y)
		}
	}
	o, err := NewOSRK(s, x0, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewContext(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []feature.Labeled{
		{X: feature.Instance{9, 0, 0, 0}, Y: 0},
		{X: feature.Instance{1, 1, 1, 1}, Y: feature.Label(len(s.Labels))},
	} {
		_, oerr := o.Observe(bad)
		cerr := c.Add(bad)
		if oerr == nil || cerr == nil || oerr.Error() != cerr.Error() {
			t.Fatalf("arrival %v: OSRK error %v, context error %v: want the same rejection", bad, oerr, cerr)
		}
	}
	if o.Len() != 0 || o.Succinctness() != 0 {
		t.Fatalf("rejected arrivals changed the monitor: Len %d, key %v", o.Len(), o.Key())
	}
}

func TestInitialWeight(t *testing.T) {
	for n := 1; n <= 64; n++ {
		w := initialWeight(n)
		if n > 1 && w >= 1/float64(n) {
			t.Fatalf("n=%d: w=%v not < 1/n", n, w)
		}
		if w*2 < 1/float64(n) && n > 1 {
			t.Fatalf("n=%d: w=%v not maximal power of two", n, w)
		}
		// w must be a power of two.
		if math.Exp2(math.Round(math.Log2(w))) != w {
			t.Fatalf("n=%d: w=%v not a power of two", n, w)
		}
	}
}

// Property: OSRK keys are coherent and α-conformant after every arrival, for
// random streams and several α values.
func TestOSRKInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		c := randomContext(t, rng, 200, 3+rng.Intn(7), 2+rng.Intn(4), 2)
		x0 := c.Item(0).X
		y0 := c.Item(0).Y
		alpha := []float64{1.0, 0.95, 0.9}[rng.Intn(3)]
		o, err := NewOSRK(c.Schema, x0, y0, alpha, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewContext(c.Schema, nil)
		if err != nil {
			t.Fatal(err)
		}
		prev := Key{}
		for i := 0; i < c.Len(); i++ {
			key, err := o.Observe(c.Item(i))
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Add(c.Item(i)); err != nil {
				t.Fatal(err)
			}
			if !prev.IsSubset(key) {
				t.Fatalf("trial %d step %d: coherence violated", trial, i)
			}
			prev = key
			if o.Len() != ref.Len() {
				t.Fatalf("trial %d step %d: Len = %d, want %d", trial, i, o.Len(), ref.Len())
			}
			v := Violations(ref, x0, y0, key)
			budget := Budget(alpha, ref.Len()) + o.Conflicts()
			if v > budget {
				t.Fatalf("trial %d step %d: violations %d > budget %d (conflicts %d)",
					trial, i, v, budget, o.Conflicts())
			}
		}
	}
}

func TestOSRKIgnoresAgreeingArrivals(t *testing.T) {
	s := loanSchema(t)
	x0 := feature.Instance{0, 1, 0, 1}
	o, err := NewOSRK(s, x0, 0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		key, err := o.Observe(feature.Labeled{X: feature.Instance{1, 0, 1, 0}, Y: 0})
		if err != nil {
			t.Fatal(err)
		}
		if len(key) != 0 {
			t.Fatalf("same-prediction arrivals must not grow the key, got %v", key)
		}
	}
}

func TestOSRKConflictTolerated(t *testing.T) {
	s := loanSchema(t)
	x0 := feature.Instance{0, 1, 0, 1}
	o, err := NewOSRK(s, x0, 0, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	// An exact twin with a different prediction cannot be excluded.
	if _, err := o.Observe(feature.Labeled{X: x0.Clone(), Y: 1}); err != nil {
		t.Fatal(err)
	}
	if o.Conflicts() != 1 {
		t.Fatalf("Conflicts = %d, want 1", o.Conflicts())
	}
}

func TestOSRKSeedDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := randomContext(t, rng, 150, 6, 3, 2)
	x0, y0 := c.Item(0).X, c.Item(0).Y
	run := func(seed int64) Key {
		o, err := NewOSRK(c.Schema, x0, y0, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		var key Key
		for i := 0; i < c.Len(); i++ {
			key, err = o.Observe(c.Item(i))
			if err != nil {
				t.Fatal(err)
			}
		}
		return key
	}
	if !run(77).Equal(run(77)) {
		t.Fatal("same seed must reproduce the same key sequence")
	}
}

// Theorem 5 sanity check: across random streams the online key stays within
// a generous log(t)·log(n) factor of the batch-optimal key on average.
func TestOSRKCompetitiveOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var totalOnline, totalOpt float64
	trials := 20
	for trial := 0; trial < trials; trial++ {
		c := randomContext(t, rng, 120, 6, 3, 2)
		x0, y0 := c.Item(0).X, c.Item(0).Y
		o, err := NewOSRK(c.Schema, x0, y0, 1, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewContext(c.Schema, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.Len(); i++ {
			if _, err := o.Observe(c.Item(i)); err != nil {
				t.Fatal(err)
			}
			if err := ref.Add(c.Item(i)); err != nil {
				t.Fatal(err)
			}
		}
		opt, err := ExactMinKey(ref, x0, y0, 1)
		if err != nil {
			continue
		}
		totalOnline += float64(len(o.Key()))
		totalOpt += float64(len(opt))
	}
	if totalOpt == 0 {
		t.Skip("no solvable trials")
	}
	t0 := 120.0
	bound := math.Log2(t0) * math.Log2(6) * 1.5
	if ratio := totalOnline / totalOpt; ratio > bound {
		t.Fatalf("average competitive ratio %.2f exceeds %.2f", ratio, bound)
	}
}

func TestOSRKFixedProbInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c := randomContext(t, rng, 150, 5, 3, 2)
	x0, y0 := c.Item(0).X, c.Item(0).Y
	a, err := NewOSRKFixedProb(c.Schema, x0, y0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewContext(c.Schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := Key{}
	for i := 0; i < c.Len(); i++ {
		key, err := a.Observe(c.Item(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Add(c.Item(i)); err != nil {
			t.Fatal(err)
		}
		if !prev.IsSubset(key) {
			t.Fatal("ablation variant must stay coherent")
		}
		prev = key
	}
	if a.inner.Len() != ref.Len() {
		t.Fatalf("Len = %d, want %d", a.inner.Len(), ref.Len())
	}
	v := Violations(ref, x0, y0, a.Key())
	if v > a.inner.Conflicts() {
		t.Fatalf("fixed-prob variant left %d violations", v)
	}
}

// Invariants backing OSRK's O(n log n) analysis: weights start below 1/n,
// never exceed 2, and the key never exceeds n features — even on adversarial
// streams where every arrival differs from the target everywhere.
func TestOSRKWeightAndSizeBounds(t *testing.T) {
	s := loanSchema(t)
	n := s.NumFeatures()
	x0 := feature.Instance{0, 0, 0, 0}
	o, err := NewOSRK(s, x0, 0, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewContext(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		// Adversarial arrival: differs from x0 on every feature, always a
		// different prediction.
		li := feature.Labeled{X: feature.Instance{1, 1, 1, 1}, Y: 1}
		if i%2 == 0 {
			li.X = feature.Instance{1, 2, 1, 2}
		}
		key, err := o.Observe(li)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Add(li); err != nil {
			t.Fatal(err)
		}
		if len(key) > n {
			t.Fatalf("key size %d exceeds n=%d", len(key), n)
		}
		for _, w := range o.weights {
			if w > 2 {
				t.Fatalf("weight %v exceeded the doubling cap", w)
			}
		}
	}
	if v := Violations(ref, x0, 0, o.Key()); v > o.Conflicts() {
		t.Fatalf("adversarial stream left %d violations", v)
	}
}

// TestOSRKReplaySurvivesRowReuse: a monitor replayed over an index equals
// one fed the same rows one at a time, and stays equal to it after every
// slot of the context is retired and reused, which overwrites its rows: the
// violators it kept are copies. The reuse makes every row a twin of x₀ with
// another prediction, so a violator aliasing the table would survive every
// later feature and grow the key further.
func TestOSRKReplaySurvivesRowReuse(t *testing.T) {
	s := loanSchema(t)
	rng := rand.New(rand.NewSource(26))
	x0 := feature.Labeled{X: feature.Instance{0, 0, 0, 0}, Y: 0}
	var stream []feature.Labeled
	for i := 0; i < 200; i++ {
		stream = append(stream, randomLoanRow(rng))
	}
	for _, alpha := range []float64{1.0, 0.8} {
		replayed, err := NewOSRK(s, x0.X, x0.Y, alpha, 5)
		if err != nil {
			t.Fatal(err)
		}
		fed, err := NewOSRK(s, x0.X, x0.Y, alpha, 5)
		if err != nil {
			t.Fatal(err)
		}
		rows := feature.NewRows(s, len(stream))
		for _, li := range stream {
			rows.Append(li)
		}
		c, err := NewContextRows(s, rows)
		if err != nil {
			t.Fatal(err)
		}
		replayed.Replay(c, 0, nil)
		for _, li := range stream {
			if _, err := fed.Observe(feature.Labeled{X: li.X.Clone(), Y: li.Y}); err != nil {
				t.Fatal(err)
			}
		}
		same := func(when string) {
			t.Helper()
			if !replayed.Key().Equal(fed.Key()) || replayed.Len() != fed.Len() || replayed.Conflicts() != fed.Conflicts() ||
				len(replayed.violators) != len(fed.violators) {
				t.Fatalf("α=%v %s: replayed key %v (%d violators, %d conflicts), fed %v (%d, %d)", alpha, when,
					replayed.Key(), len(replayed.violators), replayed.Conflicts(), fed.Key(), len(fed.violators), fed.Conflicts())
			}
			for i := range fed.violators {
				if !replayed.violators[i].Equal(fed.violators[i]) {
					t.Fatalf("α=%v %s: violator %d = %v, fed %v", alpha, when, i, replayed.violators[i], fed.violators[i])
				}
			}
		}
		same("after the replay")
		for i := 0; i < c.NumSlots(); i++ {
			if err := c.Remove(i); err != nil {
				t.Fatal(err)
			}
			if err := c.Add(feature.Labeled{X: x0.X.Clone(), Y: 1}); err != nil {
				t.Fatal(err)
			}
		}
		if got := c.rows.Row(c.NumSlots() - 1); !got.X.Equal(x0.X) || got.Y != 1 {
			t.Fatalf("slot reuse left row %v; the case exercised nothing", got)
		}
		for i := 0; i < 50; i++ {
			li := randomLoanRow(rng)
			if _, err := replayed.Observe(li); err != nil {
				t.Fatal(err)
			}
			if _, err := fed.Observe(li); err != nil {
				t.Fatal(err)
			}
		}
		same("after the rows were reused")
	}
}
