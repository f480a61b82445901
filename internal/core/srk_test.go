package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

func TestSRKValidatesInput(t *testing.T) {
	c, x0, y0 := loanContext(t)
	if _, err := SRK(c, x0, y0, 0); err == nil {
		t.Fatal("α=0 accepted")
	}
	if _, err := SRK(c, feature.Instance{0}, y0, 1); err == nil {
		t.Fatal("bad instance accepted")
	}
}

func TestSRKEmptyKeyWhenHomogeneous(t *testing.T) {
	s := loanSchema(t)
	items := []feature.Labeled{
		{X: feature.Instance{0, 0, 0, 0}, Y: 1},
		{X: feature.Instance{1, 1, 1, 1}, Y: 1},
	}
	c, err := NewContext(s, items)
	if err != nil {
		t.Fatal(err)
	}
	key, err := SRK(c, items[0].X, 1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(key) != 0 {
		t.Fatalf("homogeneous context must yield the empty key, got %v", key)
	}
}

func TestSRKNoKeyOnConflict(t *testing.T) {
	s := loanSchema(t)
	// Identical instance with a different prediction: no key exists at α=1.
	items := []feature.Labeled{
		{X: feature.Instance{0, 1, 0, 1}, Y: 0},
		{X: feature.Instance{0, 1, 0, 1}, Y: 1},
	}
	c, err := NewContext(s, items)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SRK(c, items[0].X, 0, 1.0); !errors.Is(err, ErrNoKey) {
		t.Fatalf("want ErrNoKey, got %v", err)
	}
	// With α=0.5 the conflict is tolerable: budget 1.
	key, err := SRK(c, items[0].X, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(key) != 0 {
		t.Fatalf("budget should allow the empty key, got %v", key)
	}
}

// Property: SRK output is always α-conformant, for random contexts and α.
func TestSRKAlwaysConformant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 80; trial++ {
		c := randomContext(t, rng, 5+rng.Intn(300), 2+rng.Intn(8), 2+rng.Intn(4), 2)
		row := c.Item(rng.Intn(c.Len()))
		alpha := 0.7 + 0.3*rng.Float64()
		key, err := SRK(c, row.X, row.Y, alpha)
		if errors.Is(err, ErrNoKey) {
			continue // conflicts beyond budget; legitimate
		}
		if err != nil {
			t.Fatal(err)
		}
		if !IsAlphaKey(c, row.X, row.Y, key, alpha) {
			t.Fatalf("trial %d: SRK key %v not %.3f-conformant", trial, key, alpha)
		}
	}
}

// Property: SRK and SRKNaive produce identical keys (differential oracle),
// also on contexts with retired slots, where the naive rescan must skip dead
// rows exactly as the index does; the served engine must agree with both.
func TestSRKMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		c := randomContext(t, rng, 5+rng.Intn(150), 2+rng.Intn(6), 2+rng.Intn(3), 2)
		row := c.Item(rng.Intn(c.Len()))
		alpha := []float64{1.0, 0.95, 0.9}[rng.Intn(3)]
		k1, err1 := SRK(c, row.X, row.Y, alpha)
		k2, err2 := SRKNaive(c, row.X, row.Y, alpha)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: err mismatch %v vs %v", trial, err1, err2)
		}
		if err1 == nil && !k1.Equal(k2) {
			t.Fatalf("trial %d: SRK=%v naive=%v", trial, k1, k2)
		}
	}
	rng = rand.New(rand.NewSource(18))
	for trial := 0; trial < 200; trial++ {
		c := randomContext(t, rng, 6+rng.Intn(150), 2+rng.Intn(6), 2+rng.Intn(3), 2)
		removeRandomThird(t, rng, c)
		live := c.LiveItems()
		row := live[rng.Intn(len(live))]
		alpha := []float64{1.0, 0.95, 0.9}[rng.Intn(3)]
		k1, err1 := SRK(c, row.X, row.Y, alpha)
		k2, err2 := SRKNaive(c, row.X, row.Y, alpha)
		k3, err3 := SRKPar(c, row.X, row.Y, alpha, 1)
		if (err1 == nil) != (err2 == nil) || (err1 == nil) != (err3 == nil) {
			t.Fatalf("removal trial %d: err mismatch SRK %v, naive %v, SRKPar %v", trial, err1, err2, err3)
		}
		if err1 == nil && (!k1.Equal(k2) || !k1.Equal(k3)) {
			t.Fatalf("removal trial %d: SRK=%v naive=%v SRKPar=%v", trial, k1, k2, k3)
		}
	}
}

// removeRandomThird retires a random third of c's live rows.
func removeRandomThird(t testing.TB, rng *rand.Rand, c *Context) {
	t.Helper()
	slots := rng.Perm(c.NumSlots())
	for _, slot := range slots[:c.NumSlots()/3] {
		if err := c.Remove(slot); err != nil {
			t.Fatal(err)
		}
	}
}

// Property (Lemma 3): SRK's key is at most ln(α|I|)+1 times larger than the
// exact optimum on small instances.
func TestSRKApproximationBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		c := randomContext(t, rng, 5+rng.Intn(60), 2+rng.Intn(5), 2+rng.Intn(3), 2)
		row := c.Item(rng.Intn(c.Len()))
		alpha := []float64{1.0, 0.9}[rng.Intn(2)]
		greedy, err := SRK(c, row.X, row.Y, alpha)
		if errors.Is(err, ErrNoKey) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		opt, err := ExactMinKey(c, row.X, row.Y, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if len(opt) == 0 {
			if len(greedy) != 0 {
				t.Fatalf("trial %d: OPT empty but greedy %v", trial, greedy)
			}
			continue
		}
		bound := math.Log(alpha*float64(c.Len())) + 1
		if bound < 1 {
			bound = 1
		}
		if float64(len(greedy)) > bound*float64(len(opt))+1e-9 {
			t.Fatalf("trial %d: |greedy|=%d exceeds ln(α|I|)·|OPT|=%f·%d",
				trial, len(greedy), bound, len(opt))
		}
	}
}

func TestSRKRandomOrderConformant(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 30; trial++ {
		c := randomContext(t, rng, 5+rng.Intn(150), 3+rng.Intn(5), 2+rng.Intn(3), 2)
		row := c.Item(rng.Intn(c.Len()))
		key, err := SRKRandomOrder(c, row.X, row.Y, 1.0)
		if errors.Is(err, ErrNoKey) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !IsAlphaKey(c, row.X, row.Y, key, 1.0) {
			t.Fatalf("trial %d: random-order key not conformant", trial)
		}
		// Greedy should never be (much) worse than arbitrary order.
		greedy, err := SRK(c, row.X, row.Y, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if len(greedy) > len(key)+2 {
			t.Fatalf("trial %d: greedy %d much worse than arbitrary %d", trial, len(greedy), len(key))
		}
	}
}

func TestSRKAlphaMonotonicity(t *testing.T) {
	// Lower α must never yield a longer key than higher α on the same input.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		c := randomContext(t, rng, 30+rng.Intn(200), 4+rng.Intn(5), 2+rng.Intn(3), 2)
		row := c.Item(rng.Intn(c.Len()))
		k1, err1 := SRK(c, row.X, row.Y, 1.0)
		k2, err2 := SRK(c, row.X, row.Y, 0.9)
		if err1 != nil || err2 != nil {
			continue
		}
		if len(k2) > len(k1) {
			t.Fatalf("trial %d: α=0.9 key longer (%d) than α=1 key (%d)", trial, len(k2), len(k1))
		}
	}
}

// SRKOrdered must pick the same feature set as SRK, in a valid greedy order:
// each prefix strictly reduces the violator count.
func TestSRKOrderedMatchesSRK(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		c := randomContext(t, rng, 10+rng.Intn(200), 3+rng.Intn(6), 2+rng.Intn(3), 2)
		row := c.Item(rng.Intn(c.Len()))
		alpha := []float64{1.0, 0.9}[rng.Intn(2)]
		key, errK := SRK(c, row.X, row.Y, alpha)
		order, errO := SRKOrdered(c, row.X, row.Y, alpha)
		if (errK == nil) != (errO == nil) {
			t.Fatalf("trial %d: error mismatch %v vs %v", trial, errK, errO)
		}
		if errK != nil {
			continue
		}
		if !NewKey(order...).Equal(key) {
			t.Fatalf("trial %d: ordered %v != key %v", trial, order, key)
		}
		prev := Violations(c, row.X, row.Y, Key{})
		for i := range order {
			v := Violations(c, row.X, row.Y, NewKey(order[:i+1]...))
			if v > prev {
				t.Fatalf("trial %d: violations rose along the pick order", trial)
			}
			prev = v
		}
	}
}
