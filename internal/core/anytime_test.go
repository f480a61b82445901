package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

// expiredCtx returns a context whose deadline has already passed, forcing the
// anytime checkpoint on the very first greedy round.
func expiredCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// Differential: with a background context SRKAnytime (the served engine)
// must be byte-identical to SRK (the eager loop) and never degrade.
func TestSRKAnytimeMatchesSRKUncancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		c := randomContext(t, rng, 5+rng.Intn(200), 2+rng.Intn(8), 2+rng.Intn(4), 2)
		row := c.Item(rng.Intn(c.Len()))
		alpha := 0.7 + 0.3*rng.Float64()
		want, wantErr := SRK(c, row.X, row.Y, alpha)
		got, degraded, gotErr := SRKAnytime(context.Background(), c, row.X, row.Y, alpha)
		if degraded {
			t.Fatalf("trial %d: background context reported degraded", trial)
		}
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: err mismatch %v vs %v", trial, wantErr, gotErr)
		}
		if wantErr == nil && !want.Equal(got) {
			t.Fatalf("trial %d: key mismatch %v vs %v", trial, want, got)
		}
	}
}

// Property: an expired deadline never yields an invalid key — the degraded
// completion still satisfies violations ≤ budget, or reports ErrNoKey exactly
// when the undeadlined run would.
func TestSRKAnytimeDegradedStillConformant(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ctx := expiredCtx(t)
	degradedSeen := 0
	for trial := 0; trial < 120; trial++ {
		c := randomContext(t, rng, 5+rng.Intn(300), 2+rng.Intn(8), 2+rng.Intn(4), 2)
		row := c.Item(rng.Intn(c.Len()))
		alpha := 0.7 + 0.3*rng.Float64()
		key, degraded, err := SRKAnytime(ctx, c, row.X, row.Y, alpha)
		_, refErr := SRK(c, row.X, row.Y, alpha)
		if errors.Is(err, ErrNoKey) {
			if refErr == nil {
				t.Fatalf("trial %d: degraded run says no key but one exists", trial)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !IsAlphaKey(c, row.X, row.Y, key, alpha) {
			t.Fatalf("trial %d: degraded key %v not %.3f-conformant", trial, key, alpha)
		}
		if degraded {
			degradedSeen++
		}
	}
	if degradedSeen == 0 {
		t.Fatal("expired context never took the degraded path")
	}
}

// The degraded path must also stay minimizable: Minimize over a degraded key
// keeps it conformant (sanity that the key is a plain feature set).
func TestSRKAnytimeDegradedMinimizes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ctx := expiredCtx(t)
	c := randomContext(t, rng, 400, 8, 3, 2)
	row := c.Item(0)
	key, degraded, err := SRKAnytime(ctx, c, row.X, row.Y, 0.95)
	if err != nil {
		t.Skipf("no key for this draw: %v", err)
	}
	if !degraded {
		t.Fatal("expected the degraded path")
	}
	min := Minimize(c, row.X, row.Y, key, 0.95)
	if !IsAlphaKey(c, row.X, row.Y, min, 0.95) {
		t.Fatalf("minimized degraded key %v lost conformity", min)
	}
	if len(min) > len(key) {
		t.Fatalf("Minimize grew the key: %d > %d", len(min), len(key))
	}
}

// OSRK with an expired context must still admit the arrival, keep its
// candidate coherent, and resume growing on the next (undeadlined) arrival.
func TestOSRKObserveCtxDegradesAndHeals(t *testing.T) {
	schema := loanSchema(t)
	x0 := feature.Instance{0, 0, 0, 0}
	o, err := NewOSRK(schema, x0, 0, 1.0, 42)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewContext(schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	expired := expiredCtx(t)
	rng := rand.New(rand.NewSource(77))
	numDegraded := 0
	var arrivals []feature.Labeled
	for i := 0; i < 60; i++ {
		li := feature.Labeled{X: make(feature.Instance, 4), Y: feature.Label(rng.Intn(2))}
		for a := range li.X {
			li.X[a] = feature.Value(rng.Intn(2))
		}
		if li.X.AgreesOn(x0, Key{0, 1, 2, 3}) {
			li.Y = 0 // avoid inherent conflicts for this test
		}
		arrivals = append(arrivals, li)
		prev := o.Key()
		degraded, err := o.ObserveCtx(expired, li)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Add(li); err != nil {
			t.Fatal(err)
		}
		if key := o.Key(); !prev.IsSubset(key) {
			t.Fatalf("arrival %d: coherence broken: %v ⊄ %v", i, prev, key)
		}
		if degraded {
			numDegraded++
		}
	}
	if o.Len() != len(arrivals) {
		t.Fatalf("monitor counted %d arrivals, want %d: degraded observes must still admit", o.Len(), len(arrivals))
	}
	// One undeadlined arrival lets the monitor catch up to the budget.
	li := feature.Labeled{X: feature.Instance{1, 1, 1, 1}, Y: 1}
	degraded, err := o.ObserveCtx(context.Background(), li)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Add(li); err != nil {
		t.Fatal(err)
	}
	if degraded {
		t.Fatal("undeadlined observe reported degraded")
	}
	key := o.Key()
	if v := Violations(ref, x0, 0, key); v > Budget(1.0, ref.Len())+o.Conflicts() {
		t.Fatalf("healed key %v leaves %d violators beyond budget+conflicts", key, v)
	}
}
