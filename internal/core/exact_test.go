package core

import (
	"errors"
	"math/rand"
	"testing"
)

func TestExactMinKeyOnLoan(t *testing.T) {
	c, x0, y0 := loanContext(t)
	opt, err := ExactMinKey(c, x0, y0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// {Income, Credit} is a 2-key; no single feature is a key (Example 6
	// enumerates the singleton violation counts, all ≥ 1).
	if len(opt) != 2 {
		t.Fatalf("optimum size = %d, want 2 (%v)", len(opt), opt.Render(c.Schema))
	}
	if !IsAlphaKey(c, x0, y0, opt, 1.0) {
		t.Fatal("exact key not conformant")
	}
	// α = 6/7 admits the singleton {Credit}.
	opt, err = ExactMinKey(c, x0, y0, 6.0/7.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt) != 1 {
		t.Fatalf("optimum size at α=6/7 is %d, want 1", len(opt))
	}
}

func TestExactMinKeyEmptyAndConflict(t *testing.T) {
	c, x0, y0 := loanContext(t)
	// α small enough that the empty key suffices (3 violators, |I|=7).
	opt, err := ExactMinKey(c, x0, y0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt) != 0 {
		t.Fatalf("α=0.5 optimum should be empty, got %v", opt)
	}
	// A conflict forces ErrNoKey at α=1.
	s := loanSchema(t)
	items := loanInstances(t, s)
	items = append(items, items[0])
	items[len(items)-1].Y = 1 - items[0].Y
	c2, err := NewContext(s, items)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExactMinKey(c2, items[0].X, items[0].Y, 1.0); !errors.Is(err, ErrNoKey) {
		t.Fatalf("want ErrNoKey, got %v", err)
	}
}

func TestExactMinKeyLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	wide := randomContext(t, rng, 10, exactMaxFeatures+1, 2, 2)
	if _, err := ExactMinKey(wide, wide.Item(0).X, wide.Item(0).Y, 1.0); err == nil {
		t.Fatal("maxFeatures cap not enforced")
	}
	c := randomContext(t, rng, 10, 8, 2, 2)
	if _, err := ExactMinKey(c, c.Item(0).X, c.Item(0).Y, 0); err == nil {
		t.Fatal("α=0 accepted")
	}
}

// Property: the exact solver's key is conformant, minimal, and never larger
// than SRK's.
func TestExactVsGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		c := randomContext(t, rng, 5+rng.Intn(80), 2+rng.Intn(5), 2+rng.Intn(3), 2)
		row := c.Item(rng.Intn(c.Len()))
		alpha := []float64{1.0, 0.9}[rng.Intn(2)]
		opt, errOpt := ExactMinKey(c, row.X, row.Y, alpha)
		greedy, errGreedy := SRK(c, row.X, row.Y, alpha)
		if errors.Is(errOpt, ErrNoKey) != errors.Is(errGreedy, ErrNoKey) {
			t.Fatalf("trial %d: solvability mismatch (opt=%v greedy=%v)", trial, errOpt, errGreedy)
		}
		if errOpt != nil {
			continue
		}
		if !IsAlphaKey(c, row.X, row.Y, opt, alpha) {
			t.Fatalf("trial %d: exact key not conformant", trial)
		}
		if len(opt) > len(greedy) {
			t.Fatalf("trial %d: exact %d larger than greedy %d", trial, len(opt), len(greedy))
		}
	}
}
