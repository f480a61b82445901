package core

import (
	"math/rand"
	"testing"
)

// Randomized invariants of the key algebra and verification functions, run
// over generated contexts (testing/quick cannot synthesize valid
// schema/instance pairs, so a seeded generator drives the properties).

// Property: Minimize output is a subset of its input, conformant whenever the
// input was, and minimal.
func TestQuickMinimizeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 60; trial++ {
		c := randomContext(t, rng, 10+rng.Intn(150), 3+rng.Intn(5), 2+rng.Intn(3), 2)
		row := c.Item(rng.Intn(c.Len()))
		alpha := 0.8 + 0.2*rng.Float64()
		var feats []int
		for a := 0; a < c.Schema.NumFeatures(); a++ {
			if rng.Intn(2) == 0 {
				feats = append(feats, a)
			}
		}
		E := NewKey(feats...)
		min := Minimize(c, row.X, row.Y, E, alpha)
		if !min.IsSubset(E) {
			t.Fatalf("trial %d: Minimize added features: %v ⊄ %v", trial, min, E)
		}
		if IsAlphaKey(c, row.X, row.Y, E, alpha) {
			if !IsAlphaKey(c, row.X, row.Y, min, alpha) {
				t.Fatalf("trial %d: Minimize broke conformity", trial)
			}
			if !IsMinimal(c, row.X, row.Y, min, alpha) {
				t.Fatalf("trial %d: Minimize result not minimal", trial)
			}
		}
	}
}

// Property: violations are antitone in the key (adding features never adds
// violations) and Coverage is antitone too.
func TestQuickViolationsAntitone(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 60; trial++ {
		c := randomContext(t, rng, 5+rng.Intn(150), 3+rng.Intn(5), 2+rng.Intn(3), 2)
		row := c.Item(rng.Intn(c.Len()))
		E := Key{}
		prevV := Violations(c, row.X, row.Y, E)
		prevC := Coverage(c, row.X, row.Y, E)
		for a := 0; a < c.Schema.NumFeatures(); a++ {
			E = E.With(a)
			v := Violations(c, row.X, row.Y, E)
			cov := Coverage(c, row.X, row.Y, E)
			if v > prevV {
				t.Fatalf("trial %d: violations grew when adding feature %d", trial, a)
			}
			if cov > prevC {
				t.Fatalf("trial %d: coverage grew when adding feature %d", trial, a)
			}
			prevV, prevC = v, cov
		}
	}
}

// Property: precision + violation fraction = 1, and the explained instance
// itself always counts toward coverage.
func TestQuickPrecisionCoverageConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 60; trial++ {
		c := randomContext(t, rng, 5+rng.Intn(150), 2+rng.Intn(5), 2+rng.Intn(3), 2)
		i := rng.Intn(c.Len())
		row := c.Item(i)
		var feats []int
		for a := 0; a < c.Schema.NumFeatures(); a++ {
			if rng.Intn(3) > 0 {
				feats = append(feats, a)
			}
		}
		E := NewKey(feats...)
		p := Precision(c, row.X, row.Y, E)
		v := Violations(c, row.X, row.Y, E)
		if want := 1 - float64(v)/float64(c.Len()); absDiff(p, want) > 1e-12 {
			t.Fatalf("trial %d: precision %v vs 1−v/n %v", trial, p, want)
		}
		covered := CoveredSet(c, row.X, row.Y, E)
		found := false
		for _, r := range covered {
			if r == i {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("trial %d: explained row not in its own coverage", trial)
		}
	}
}

// Property: the exact solver respects the α ordering — a looser α never needs
// a larger key.
func TestQuickExactAlphaMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for trial := 0; trial < 25; trial++ {
		c := randomContext(t, rng, 5+rng.Intn(40), 2+rng.Intn(4), 2, 2)
		row := c.Item(rng.Intn(c.Len()))
		tight, err1 := ExactMinKey(c, row.X, row.Y, 1.0)
		loose, err2 := ExactMinKey(c, row.X, row.Y, 0.85)
		if err1 != nil {
			continue // conflict at α=1: nothing to compare
		}
		if err2 != nil {
			t.Fatalf("trial %d: α=0.85 unsolvable but α=1 solvable", trial)
		}
		if len(loose) > len(tight) {
			t.Fatalf("trial %d: looser α needs a larger key (%d > %d)", trial, len(loose), len(tight))
		}
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// Property: every key survives a render round trip of its feature names
// (Render never panics and lists exactly the key's features).
func TestQuickRenderConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 40; trial++ {
		c := randomContext(t, rng, 5, 2+rng.Intn(6), 2, 2)
		var feats []int
		for a := 0; a < c.Schema.NumFeatures(); a++ {
			if rng.Intn(2) == 0 {
				feats = append(feats, a)
			}
		}
		E := NewKey(feats...)
		s := E.Render(c.Schema)
		if len(E) == 0 && s != "{}" {
			t.Fatalf("empty key renders as %q", s)
		}
		for _, a := range E {
			name := c.Schema.Attrs[a].Name
			if !containsStr(s, name) {
				t.Fatalf("render %q missing feature %q", s, name)
			}
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
