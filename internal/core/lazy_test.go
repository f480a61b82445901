package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

// Differential harness for DESIGN.md §11: the served engine (sparse.go) must
// be byte-identical to the eager reference on every input — same key bytes,
// same pick order, same error, same degraded flag — across alphas, ignored
// worker counts, and adversarial tie structure. The eager loop (srkAnytime)
// is the oracle; it reads neither the count tables nor the word list, so a
// bug in either cannot hide by breaking both sides the same way. The Lazy
// names date from the CELF engine these suites were written for.

// lazyTestAlphas is the sweep the acceptance matrix calls for: 0.99 makes
// budgets tight (many rounds over the word list), 0.8 makes them loose (one
// or two rounds, empty-key successes on small contexts).
var lazyTestAlphas = []float64{0.8, 0.9, 0.95, 0.99}

// TestDifferentialLazyEager sweeps random datasets × α × P ∈ {1,2,4,8},
// comparing the served entry against the eager oracle. Odd trials use
// tie-heavy datasets (binary features over few attributes: many rows collide
// onto the same posting lists, so scores tie constantly and the pick is
// decided by the freq/index tie-break — the exact code path that breaks if
// the count-seeded round or the word-list rounds compare differently from
// the eager scan).
func TestDifferentialLazyEager(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	for trial := 0; trial < 120; trial++ {
		var c *Context
		if trial%2 == 1 {
			c = randomContext(t, rng, 20+rng.Intn(400), 3+rng.Intn(4), 2, 2) // tie-heavy
		} else {
			c = randomContext(t, rng, 5+rng.Intn(300), 2+rng.Intn(7), 2+rng.Intn(3), 2+rng.Intn(2))
		}
		row := c.Item(rng.Intn(c.Len()))
		alpha := lazyTestAlphas[trial%len(lazyTestAlphas)]
		want, wantDeg, wantErr := SRKAnytime(context.Background(), c, row.X, row.Y, alpha)
		for _, p := range []int{1, 2, 4, 8} {
			got, gotDeg, gotErr := SRKAnytimePar(context.Background(), c, row.X, row.Y, alpha, p)
			if gotDeg != wantDeg {
				t.Fatalf("trial %d P=%d α=%v: degraded %v, eager %v", trial, p, alpha, gotDeg, wantDeg)
			}
			if !errors.Is(gotErr, wantErr) && gotErr != wantErr {
				t.Fatalf("trial %d P=%d α=%v: err %v, eager %v", trial, p, alpha, gotErr, wantErr)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d P=%d α=%v: key %v, eager %v", trial, p, alpha, got, want)
			}
		}
	}
}

// TestDifferentialLazyPickOrder compares the raw engines below the
// instrumented wrapper: the served pick sequence must equal the eager pick
// sequence element by element, not just as a sorted set — the tie-break is
// only correct if every individual round's argmin replays the eager scan.
func TestDifferentialLazyPickOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	for trial := 0; trial < 100; trial++ {
		c := randomContext(t, rng, 10+rng.Intn(300), 3+rng.Intn(6), 2+rng.Intn(2), 2)
		row := c.Item(rng.Intn(c.Len()))
		alpha := lazyTestAlphas[trial%len(lazyTestAlphas)]
		want, wantDeg, wantErr := srkAnytime(context.Background(), c, row.X, row.Y, alpha)
		got, gotDeg, gotErr := srkAnytimeSparse(context.Background(), c, row.X, row.Y, alpha)
		if gotDeg != wantDeg || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d α=%v: (deg %v, err %v), eager (deg %v, err %v)", trial, alpha, gotDeg, gotErr, wantDeg, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d α=%v: picks %v, eager %v", trial, alpha, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d α=%v: pick %d is %d, eager %d (served %v, eager %v)", trial, alpha, i, got[i], want[i], got, want)
			}
		}
	}
}

// TestDifferentialSRKOrdered pins the SRKOrdered unification: the public
// pick-order entry must agree with SRK's key (as a set) and with the served
// engine's pick order (element-wise) on tie-heavy datasets, where the
// historical duplicated greedy loop could silently drift from the shared one.
func TestDifferentialSRKOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(317))
	for trial := 0; trial < 80; trial++ {
		c := randomContext(t, rng, 10+rng.Intn(250), 3+rng.Intn(4), 2, 2)
		row := c.Item(rng.Intn(c.Len()))
		alpha := lazyTestAlphas[trial%len(lazyTestAlphas)]
		order, orderErr := SRKOrdered(c, row.X, row.Y, alpha)
		key, keyErr := SRK(c, row.X, row.Y, alpha)
		if (orderErr == nil) != (keyErr == nil) {
			t.Fatalf("trial %d α=%v: SRKOrdered err %v, SRK err %v", trial, alpha, orderErr, keyErr)
		}
		if orderErr != nil {
			continue
		}
		if !NewKey(order...).Equal(key) {
			t.Fatalf("trial %d α=%v: SRKOrdered %v is not a permutation of SRK %v", trial, alpha, order, key)
		}
		servedPicks, _, servedErr := srkAnytimeSparse(context.Background(), c, row.X, row.Y, alpha)
		if servedErr != nil {
			t.Fatalf("trial %d α=%v: served engine errored %v where SRKOrdered succeeded", trial, alpha, servedErr)
		}
		if len(servedPicks) != len(order) {
			t.Fatalf("trial %d α=%v: served picks %v, SRKOrdered %v", trial, alpha, servedPicks, order)
		}
		for i := range order {
			if servedPicks[i] != order[i] {
				t.Fatalf("trial %d α=%v: pick %d served %d, SRKOrdered %d", trial, alpha, i, servedPicks[i], order[i])
			}
		}
	}
}

// TestLazyEmptyKeySuccess: when the empty key already satisfies α, the served
// entries must return a non-nil empty Key — the service JSON layer renders
// Key{} as [] and Key(nil) as null, and clients key off the difference.
func TestLazyEmptyKeySuccess(t *testing.T) {
	c := randomContext(t, rand.New(rand.NewSource(331)), 40, 3, 2, 2)
	row := c.Item(0)
	// α low enough that the initial disagreeing count fits the budget.
	key, err := SRKPar(c, row.X, row.Y, 0.01, 1)
	if err != nil {
		t.Fatalf("SRKPar: %v", err)
	}
	if key == nil || len(key) != 0 {
		t.Fatalf("empty-key success must be non-nil Key{}, got %#v", key)
	}
	key, _, err = SRKAnytimePar(context.Background(), c, row.X, row.Y, 0.01, 4)
	if err != nil || key == nil || len(key) != 0 {
		t.Fatalf("SRKAnytimePar empty-key: key %#v err %v", key, err)
	}
}

// TestLazyExpiredContext: an already-expired context must degrade through the
// same completion pass as the eager solver, from round zero — the only
// cancellation timing deterministic enough to diff exactly.
func TestLazyExpiredContext(t *testing.T) {
	rng := rand.New(rand.NewSource(337))
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	for trial := 0; trial < 40; trial++ {
		c := randomContext(t, rng, 10+rng.Intn(200), 2+rng.Intn(5), 2+rng.Intn(2), 2)
		row := c.Item(rng.Intn(c.Len()))
		alpha := lazyTestAlphas[trial%len(lazyTestAlphas)]
		want, wantDeg, wantErr := SRKAnytime(expired, c, row.X, row.Y, alpha)
		for _, p := range []int{1, 4} {
			got, gotDeg, gotErr := SRKAnytimePar(expired, c, row.X, row.Y, alpha, p)
			if gotDeg != wantDeg || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("trial %d P=%d: (deg %v, err %v), eager (deg %v, err %v)", trial, p, gotDeg, gotErr, wantDeg, wantErr)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d P=%d: degraded key %v, eager %v", trial, p, got, want)
			}
		}
	}
}

// TestLazyFallbackDatasets drives the engine through the all-ties regime
// that once tripped the CELF engine's full-rescan fallback, and checks
// byte-identity survives it.
func TestLazyFallbackDatasets(t *testing.T) {
	// Twelve identical binary columns: every candidate has the same posting
	// list, so every round is an all-way tie decided purely by (freq, index),
	// and after the first pick no candidate removes another violator.
	attrs := make([]feature.Attribute, 12)
	for i := range attrs {
		attrs[i] = feature.Attribute{Name: string(rune('A' + i)), Values: []string{"0", "1"}}
	}
	s := feature.MustSchema(attrs, []string{"x", "y"})
	rng := rand.New(rand.NewSource(347))
	var items []feature.Labeled
	for r := 0; r < 200; r++ {
		v := feature.Value(rng.Intn(2))
		x := make(feature.Instance, len(attrs))
		for j := range x {
			x[j] = v
		}
		items = append(items, feature.Labeled{X: x, Y: feature.Label(rng.Intn(2))})
	}
	c, err := NewContext(s, items)
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range lazyTestAlphas {
		row := c.Item(0)
		want, wantErr := SRK(c, row.X, row.Y, alpha)
		for _, p := range []int{1, 4} {
			got, gotErr := SRKPar(c, row.X, row.Y, alpha, p)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("α=%v P=%d: err %v, eager %v", alpha, p, gotErr, wantErr)
			}
			if !got.Equal(want) {
				t.Fatalf("α=%v P=%d: key %v, eager %v", alpha, p, got, want)
			}
		}
	}
}

// TestLazyOutOfRangeLabel: a prediction outside the label space (the solvers
// do not validate it) makes every live row a violator in the eager loop. The
// served engine must read that as "no rows labelled y" from its count table,
// not index the table out of range, and return the eager answer.
func TestLazyOutOfRangeLabel(t *testing.T) {
	rng := rand.New(rand.NewSource(349))
	for trial := 0; trial < 40; trial++ {
		c := randomContext(t, rng, 5+rng.Intn(200), 2+rng.Intn(5), 2+rng.Intn(3), 2)
		if trial%2 == 1 {
			removeRandomThird(t, rng, c)
		}
		x := c.LiveItems()[0].X
		alpha := lazyTestAlphas[trial%len(lazyTestAlphas)]
		for _, y := range []feature.Label{-1, feature.Label(len(c.Schema.Labels)), 99} {
			want, wantDeg, wantErr := srkAnytime(context.Background(), c, x, y, alpha)
			got, gotDeg, gotErr := srkAnytimeSparse(context.Background(), c, x, y, alpha)
			if gotDeg != wantDeg || !errors.Is(gotErr, wantErr) {
				t.Fatalf("trial %d y=%d: (deg %v, err %v), eager (deg %v, err %v)", trial, y, gotDeg, gotErr, wantDeg, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d y=%d: picks %v, eager %v", trial, y, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d y=%d: picks %v, eager %v", trial, y, got, want)
				}
			}
		}
	}
}

// FuzzLazyGreedy is the served-vs-eager oracle under arbitrary datasets,
// targets, and alphas: any divergence in key bytes, pick order, or error
// shape is a crash. The committed corpus pins the two regimes the sweep
// tests found most fragile: an all-ties dataset (identical instances with
// mixed labels — every round decided by the tie-break, ErrNoKey reachable)
// and a single-feature-key dataset (label perfectly correlated with one
// attribute — the one-pick fast path).
func FuzzLazyGreedy(f *testing.F) {
	// All ties: X always {0,0,0}, labels alternating.
	f.Add([]byte{0, 16, 0, 16, 0, 16}, byte(0))
	// Single-feature key: attribute c (bit 3) tracks the label (bit 4).
	f.Add([]byte{0, 24, 1, 25, 2, 26, 0, 24}, byte(0))
	f.Add([]byte{255, 7, 40, 130, 200, 3, 99, 62}, byte(97))
	f.Fuzz(func(t *testing.T, data []byte, tb byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		schema := fuzzSchema()
		items := make([]feature.Labeled, 0, len(data))
		for _, b := range data {
			items = append(items, decodeInstance(b))
		}
		c, err := NewContext(schema, items)
		if err != nil {
			t.Fatalf("NewContext: %v", err)
		}
		target := decodeInstance(tb)
		alpha := []float64{1.0, 0.99, 0.9, 0.8}[(tb>>5)&3]

		wantPicks, wantDeg, wantErr := srkAnytime(context.Background(), c, target.X, target.Y, alpha)
		gotPicks, gotDeg, gotErr := srkAnytimeSparse(context.Background(), c, target.X, target.Y, alpha)
		if gotDeg != wantDeg || (gotErr == nil) != (wantErr == nil) ||
			errors.Is(gotErr, ErrNoKey) != errors.Is(wantErr, ErrNoKey) {
			t.Fatalf("α=%v: served (deg %v, err %v), eager (deg %v, err %v)", alpha, gotDeg, gotErr, wantDeg, wantErr)
		}
		if len(gotPicks) != len(wantPicks) {
			t.Fatalf("α=%v: served picks %v, eager %v", alpha, gotPicks, wantPicks)
		}
		for i := range gotPicks {
			if gotPicks[i] != wantPicks[i] {
				t.Fatalf("α=%v: pick %d served %d, eager %d (served %v, eager %v)", alpha, i, gotPicks[i], wantPicks[i], gotPicks, wantPicks)
			}
		}

		// The public entries must agree too (sorted key + empty-key shape).
		wantKey, _, wantErr2 := SRKAnytime(context.Background(), c, target.X, target.Y, alpha)
		gotKey, gotErr2 := SRKPar(c, target.X, target.Y, alpha, 1)
		if (gotErr2 == nil) != (wantErr2 == nil) {
			t.Fatalf("α=%v: SRKPar err %v, SRKAnytime err %v", alpha, gotErr2, wantErr2)
		}
		if gotErr2 == nil {
			if !gotKey.Equal(wantKey) {
				t.Fatalf("α=%v: SRKPar key %v, eager %v", alpha, gotKey, wantKey)
			}
			if (gotKey == nil) != (wantKey == nil) {
				t.Fatalf("α=%v: key nilness diverges: served %#v, eager %#v", alpha, gotKey, wantKey)
			}
		}
	})
}
