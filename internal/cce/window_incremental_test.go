package cce

import (
	"math/rand"
	"testing"

	"github.com/xai-db/relativekeys/internal/core"
)

// TestWindowDifferentialOracle proves the incremental index: after every
// advance, keys computed against the in-place-updated window context must be
// byte-identical to keys computed against a context rebuilt from scratch
// over the same rows — across capacities, steps, and α values.
func TestWindowDifferentialOracle(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(21))
	cases := []struct {
		capacity, step int
		alpha          float64
	}{
		{40, 10, 1.0},
		{64, 64, 1.0}, // full-replacement window
		{100, 7, 0.9}, // step not dividing capacity
		{33, 1, 0.85}, // slide by one
		{16, 5, 1.0},  // tiny window, heavy slot churn
	}
	for _, cse := range cases {
		w, err := NewWindow(s, cse.capacity, cse.step, cse.alpha, LastWins)
		if err != nil {
			t.Fatal(err)
		}
		stream := randomStream(rng, s, 6*cse.capacity)
		processed := 0
		for i, li := range stream {
			if err := w.Observe(li); err != nil {
				t.Fatal(err)
			}
			if (i+1)%cse.step != 0 {
				continue
			}
			processed = i + 1
			lo := processed - cse.capacity
			if lo < 0 {
				lo = 0
			}
			expected := stream[lo:processed]
			fresh, err := core.NewContext(s, expected)
			if err != nil {
				t.Fatal(err)
			}
			if w.ctx.Context().Len() != fresh.Len() {
				t.Fatalf("cap=%d step=%d after %d arrivals: |I| %d vs %d",
					cse.capacity, cse.step, processed, w.ctx.Context().Len(), fresh.Len())
			}
			// Window contents come back oldest-first and intact.
			items := w.Items()
			if len(items) != len(expected) {
				t.Fatalf("Items len %d, want %d", len(items), len(expected))
			}
			for j := range items {
				if !items[j].X.Equal(expected[j].X) || items[j].Y != expected[j].Y {
					t.Fatalf("Items[%d] diverged from the expected window", j)
				}
			}
			// Probe several instances: identical keys, violations, coverage.
			for probe := 0; probe < 5; probe++ {
				q := expected[rng.Intn(len(expected))]
				kInc, errInc := core.SRK(w.ctx.Context(), q.X, q.Y, cse.alpha)
				kFresh, errFresh := core.SRK(fresh, q.X, q.Y, cse.alpha)
				if (errInc == nil) != (errFresh == nil) {
					t.Fatalf("cap=%d step=%d: SRK errors diverge: %v vs %v",
						cse.capacity, cse.step, errInc, errFresh)
				}
				if errInc != nil {
					continue
				}
				if !kInc.Equal(kFresh) {
					t.Fatalf("cap=%d step=%d after %d arrivals: key %v vs rebuilt %v",
						cse.capacity, cse.step, processed, kInc, kFresh)
				}
				if core.Violations(w.ctx.Context(), q.X, q.Y, kInc) != core.Violations(fresh, q.X, q.Y, kFresh) {
					t.Fatal("violations diverge between incremental and rebuilt context")
				}
				if core.Coverage(w.ctx.Context(), q.X, q.Y, kInc) != core.Coverage(fresh, q.X, q.Y, kFresh) {
					t.Fatal("coverage diverges between incremental and rebuilt context")
				}
			}
		}
	}
}

// TestWindowSlotsBounded: sliding forever must not grow the physical index —
// retired slots are recycled, so NumSlots never exceeds the capacity.
func TestWindowSlotsBounded(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(22))
	w, err := NewWindow(s, 50, 10, 1.0, LastWins)
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range randomStream(rng, s, 2000) {
		if err := w.Observe(li); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.ctx.Context().NumSlots(); got > 50 {
		t.Fatalf("NumSlots = %d after 2000 arrivals, want ≤ 50 (slots must recycle)", got)
	}
	if w.ctx.Context().Len() != 50 {
		t.Fatalf("Len = %d, want 50", w.ctx.Context().Len())
	}
}

// TestWindowCacheBounded: under FirstWins the policy cache must hold only
// instances resolved within the last window lifetime, not every instance
// ever explained over the stream.
func TestWindowCacheBounded(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(23))
	w, err := NewWindow(s, 40, 10, 1.0, FirstWins)
	if err != nil {
		t.Fatal(err)
	}
	stream := randomStream(rng, s, 4000)
	for _, li := range stream {
		if err := w.Observe(li); err != nil {
			t.Fatal(err)
		}
		if w.Size() == 0 {
			continue
		}
		// Explain each arrival once: distinct ids accumulate fast.
		if _, err := w.Explain(li.X, li.Y); err != nil && err != core.ErrNoKey {
			t.Fatal(err)
		}
	}
	// The schema spans 3·2·3·2·2 = 72 distinct (x, y) ids; with eviction the
	// cache can hold at most the ids touched within one retention horizon.
	// Without eviction it would sit at all ~72 ids permanently; the horizon
	// bound alone must already be respected after the final advance sweep.
	horizon := w.retentionVersions() + 1
	maxIDs := horizon * 10 // ≤ step explains per version
	if got := w.cacheLen(); got > maxIDs {
		t.Fatalf("cache holds %d entries, want ≤ %d (eviction horizon)", got, maxIDs)
	}
	if w.cacheLen() == 0 {
		t.Fatal("cache unexpectedly empty: recently resolved ids must survive")
	}
}

// TestWindowCacheEvictsDeparted: an id resolved once and never again is gone
// after the window slides past its last overlapping context.
func TestWindowCacheEvictsDeparted(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(24))
	w, err := NewWindow(s, 20, 10, 1.0, UnionKey)
	if err != nil {
		t.Fatal(err)
	}
	stream := randomStream(rng, s, 20)
	for _, li := range stream {
		if err := w.Observe(li); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Explain(stream[0].X, stream[0].Y); err != nil && err != core.ErrNoKey {
		t.Fatal(err)
	}
	if w.cacheLen() != 1 {
		t.Fatalf("cache = %d entries after one resolve, want 1", w.cacheLen())
	}
	// Slide far past the retention horizon without re-explaining.
	for _, li := range randomStream(rng, s, 10*w.retentionVersions()*10) {
		if err := w.Observe(li); err != nil {
			t.Fatal(err)
		}
	}
	if w.cacheLen() != 0 {
		t.Fatalf("cache = %d entries after the id departed, want 0", w.cacheLen())
	}
}

// TestWindowLastWinsSkipsCache: LastWins never consults earlier keys, so it
// must not populate the cache at all.
func TestWindowLastWinsSkipsCache(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(25))
	w, err := NewWindow(s, 40, 10, 1.0, LastWins)
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range randomStream(rng, s, 200) {
		if err := w.Observe(li); err != nil {
			t.Fatal(err)
		}
		if w.Size() == 0 {
			continue
		}
		if _, err := w.Explain(li.X, li.Y); err != nil && err != core.ErrNoKey {
			t.Fatal(err)
		}
	}
	if w.cacheLen() != 0 {
		t.Fatalf("LastWins populated the cache with %d entries", w.cacheLen())
	}
}
