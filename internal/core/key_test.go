package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

func TestKeyBasics(t *testing.T) {
	k := NewKey(3, 1, 3, 2)
	if len(k) != 3 || k[0] != 1 || k[2] != 3 {
		t.Fatalf("NewKey dedup/sort wrong: %v", k)
	}
	if k.Succinctness() != 3 {
		t.Fatal("Succinctness wrong")
	}
	if !k.Contains(2) || k.Contains(0) {
		t.Fatal("Contains wrong")
	}
	k2 := k.With(0)
	if !k2.Equal(NewKey(0, 1, 2, 3)) || !k.Equal(NewKey(1, 2, 3)) {
		t.Fatal("With must not mutate the receiver")
	}
	if !k.With(1).Equal(k) {
		t.Fatal("With existing feature must be a no-op")
	}
	if !NewKey(1).IsSubset(k) || k.IsSubset(NewKey(1)) {
		t.Fatal("IsSubset wrong")
	}
	cl := k.Clone()
	cl[0] = 99
	if k[0] == 99 {
		t.Fatal("Clone aliases")
	}
}

func TestKeyRender(t *testing.T) {
	c, x0, y0 := loanContext(t)
	k := NewKey(attrIncome, attrCredit)
	if got := k.Render(c.Schema); got != "{Income, Credit}" {
		t.Fatalf("Render = %q", got)
	}
	rule := k.RenderRule(c.Schema, x0, y0)
	want := "IF Income=3-4K ∧ Credit=poor THEN Denied"
	if rule != want {
		t.Fatalf("RenderRule = %q, want %q", rule, want)
	}
}

// randomContext builds a random context for differential tests.
func randomContext(t testing.TB, rng *rand.Rand, nRows, nAttrs, card, nLabels int) *Context {
	t.Helper()
	attrs := make([]feature.Attribute, nAttrs)
	for i := range attrs {
		vals := make([]string, card)
		for v := range vals {
			vals[v] = string(rune('a' + v))
		}
		attrs[i] = feature.Attribute{Name: string(rune('A' + i)), Values: vals}
	}
	labels := make([]string, nLabels)
	for i := range labels {
		labels[i] = string(rune('x' + i))
	}
	s := feature.MustSchema(attrs, labels)
	items := make([]feature.Labeled, nRows)
	for i := range items {
		x := make(feature.Instance, nAttrs)
		for j := range x {
			x[j] = feature.Value(rng.Intn(card))
		}
		items[i] = feature.Labeled{X: x, Y: feature.Label(rng.Intn(nLabels))}
	}
	c, err := NewContext(s, items)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Property: the bitset Violations equals the brute-force count for random
// contexts, instances and keys.
func TestViolationsMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		c := randomContext(t, rng, 1+rng.Intn(200), 2+rng.Intn(6), 2+rng.Intn(3), 2)
		x := c.Item(rng.Intn(c.Len())).X
		y := feature.Label(rng.Intn(2))
		var feats []int
		for a := 0; a < c.Schema.NumFeatures(); a++ {
			if rng.Intn(2) == 0 {
				feats = append(feats, a)
			}
		}
		E := NewKey(feats...)
		if got, want := Violations(c, x, y, E), ViolationsBrute(c, x, y, E); got != want {
			t.Fatalf("trial %d: Violations=%d brute=%d (E=%v)", trial, got, want, E)
		}
	}
}

func TestCoverageAndPrecision(t *testing.T) {
	c, x0, y0 := loanContext(t)
	key := NewKey(attrIncome, attrCredit)
	// Rows agreeing on Income=3-4K ∧ Credit=poor with label Denied: x0,x2,x3.
	if got := Coverage(c, x0, y0, key); got != 3 {
		t.Fatalf("Coverage = %d, want 3", got)
	}
	rows := CoveredSet(c, x0, y0, key)
	if len(rows) != 3 || rows[0] != 0 || rows[1] != 2 || rows[2] != 3 {
		t.Fatalf("CoveredSet = %v", rows)
	}
	if got := Precision(c, x0, y0, key); got != 1 {
		t.Fatalf("Precision = %v, want 1", got)
	}
	if got := Precision(c, x0, y0, NewKey(attrCredit)); math.Abs(got-6.0/7.0) > 1e-12 {
		t.Fatalf("Precision({Credit}) = %v, want 6/7", got)
	}
	empty, err := NewContext(c.Schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if Precision(empty, x0, y0, key) != 1 || Coverage(empty, x0, y0, key) != 0 || Violations(empty, x0, y0, key) != 0 {
		t.Fatal("empty-context metrics wrong")
	}
}

func TestMinimize(t *testing.T) {
	c, x0, y0 := loanContext(t)
	full := NewKey(0, 1, 2, 3)
	min := Minimize(c, x0, y0, full, 1.0)
	if !IsAlphaKey(c, x0, y0, min, 1.0) {
		t.Fatal("minimized key not conformant")
	}
	if !IsMinimal(c, x0, y0, min, 1.0) {
		t.Fatal("Minimize result not minimal")
	}
	if len(min) >= len(full) {
		t.Fatalf("Minimize did not shrink: %v", min)
	}
}

func TestIsMinimalRejectsNonKeys(t *testing.T) {
	c, x0, y0 := loanContext(t)
	if IsMinimal(c, x0, y0, NewKey(attrGender), 1.0) {
		t.Fatal("non-conformant key reported minimal")
	}
}

// TestViolationsCoverageMatchesReference: the fused pass returns exactly
// Violations and Coverage on contexts with retired slots, sized on both sides
// of a word and of the fused pass's block, for the empty key, random keys and
// the full key, and for a label with no live rows.
func TestViolationsCoverageMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(331))
	for _, n := range []int{0, 1, 63, 64, 65, 700, agreeBlock*64 - 1, agreeBlock*64 + 77} {
		c := randomContext(t, rng, n, 2+rng.Intn(4), 2+rng.Intn(2), 3)
		// Retire every row of label 2 and a random tenth of the rest.
		for slot := 0; slot < n; slot++ {
			if c.Item(slot).Y == 2 || rng.Intn(10) == 0 {
				if err := c.Remove(slot); err != nil {
					t.Fatal(err)
				}
			}
		}
		for q := 0; q < 12; q++ {
			x := randomRows(rng, c.Schema, 1)[0].X
			if c.Len() > 0 && q%2 == 0 {
				x = c.LiveItems()[rng.Intn(c.Len())].X
			}
			var E Key
			switch q % 3 {
			case 1:
				var feats []int
				for a := 0; a < c.Schema.NumFeatures(); a++ {
					if rng.Intn(2) == 0 {
						feats = append(feats, a)
					}
				}
				E = NewKey(feats...)
			case 2:
				for a := 0; a < c.Schema.NumFeatures(); a++ {
					E = append(E, a)
				}
			}
			for y := feature.Label(0); y < 3; y++ {
				v, cov := ViolationsCoverage(c, x, y, E)
				if want := Violations(c, x, y, E); v != want {
					t.Fatalf("n=%d query %d y=%d E=%v: violations %d, Violations %d", n, q, y, E, v, want)
				}
				if want := Coverage(c, x, y, E); cov != want {
					t.Fatalf("n=%d query %d y=%d E=%v: coverage %d, Coverage %d", n, q, y, E, cov, want)
				}
				if got, want := PrecisionOf(v, c.Len()), Precision(c, x, y, E); got != want { //rkvet:ignore floateq both sides are 1 - int/int over identical ints, bit-equal by construction
					t.Fatalf("n=%d query %d y=%d: PrecisionOf %v, Precision %v", n, q, y, got, want)
				}
			}
		}
	}
}

// TestViolationsCoverageAllocFree: the /explain post-solve pass allocates
// nothing, pooled or not.
func TestViolationsCoverageAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(337))
	c := randomContext(t, rng, agreeBlock*64+500, 6, 3, 2)
	li := c.Item(0)
	E := NewKey(0, 2, 3)
	if allocs := testing.AllocsPerRun(100, func() {
		ViolationsCoverage(c, li.X, li.Y, E)
	}); allocs != 0 {
		t.Fatalf("ViolationsCoverage allocates %v times per call, want 0", allocs)
	}
}

// TestDifferentialCountersParallel: CoveragePar and PrecisionPar must agree
// with Coverage and Precision for arbitrary keys, whatever worker count they
// are passed (it is ignored).
func TestDifferentialCountersParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	for trial := 0; trial < 60; trial++ {
		c := randomContext(t, rng, 1+rng.Intn(400), 2+rng.Intn(6), 2+rng.Intn(3), 2)
		row := c.Item(rng.Intn(c.Len()))
		var feats []int
		for a := 0; a < c.Schema.NumFeatures(); a++ {
			if rng.Intn(2) == 0 {
				feats = append(feats, a)
			}
		}
		E := NewKey(feats...)
		for _, p := range []int{1, 2, 3, 4, 8} {
			if got, want := CoveragePar(c, row.X, row.Y, E, p), Coverage(c, row.X, row.Y, E); got != want {
				t.Fatalf("trial %d P=%d: CoveragePar %d, sequential %d", trial, p, got, want)
			}
			if got, want := PrecisionPar(c, row.X, row.Y, E, p), Precision(c, row.X, row.Y, E); got != want { //rkvet:ignore floateq both sides are 1 - int/int over identical ints, bit-equal by construction
				t.Fatalf("trial %d P=%d: PrecisionPar %v, sequential %v", trial, p, got, want)
			}
		}
	}
}
