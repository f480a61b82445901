package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

// Differential harness for DESIGN.md §11: the served engine (sparse.go,
// behind SRKAnytime) must be byte-identical to the eager reference on every
// input — same key bytes, same pick order, same error, same degraded flag —
// across alphas, deadlines, and adversarial tie structure. The eager loop
// (srkEager, behind SRK) is the oracle; it reads neither the count tables,
// the pair-count tables nor the word list, so a bug in any of them cannot
// hide by breaking both sides the same way. A deadline's oracle is
// anytimeRef: the eager loop's first picks completed by completeAnytime.
// Every suite runs on both of round two's paths (roundTwoPaths): over the
// word list and from pair-count tables. The Lazy names date from the CELF
// engine these suites were written for.

// served is one never-cancelled solve on the served engine.
func served(c *Context, x feature.Instance, y feature.Label, alpha float64) (Key, error) {
	key, _, err := SRKAnytime(context.Background(), c, x, y, alpha)
	return key, err
}

// anytimeRef is the reference answer of SRKAnytime under a context that
// reports an error from its (k+1)-th Err call on, so the solve degrades at
// the top of round k+1: the eager key when it takes at most k picks, else
// the eager loop's first k picks completed by completeAnytime, degraded.
// Without a key srkEager returns no picks, so k must then be 0 (an expired
// context), where the completion runs from round zero.
func anytimeRef(c *Context, x feature.Instance, y feature.Label, alpha float64, k int) (Key, bool, error) {
	picks, err := srkEager(c, x, y, alpha)
	switch {
	case err == nil && len(picks) <= k:
		return keyOf(picks), false, nil
	case err != nil && !errors.Is(err, ErrNoKey):
		return nil, false, err
	}
	d := getDisagreeing(c, y)
	defer putScratch(d)
	inE := make([]bool, c.Schema.NumFeatures())
	for _, a := range picks[:k] {
		inE[a] = true
		d.And(c.Posting(a, x[a]))
	}
	done, err := completeAnytime(c, x, d, append([]int(nil), picks[:k]...), inE, Budget(alpha, c.Len()))
	if err != nil {
		return nil, true, err
	}
	return keyOf(done), true, nil
}

// expiresAfter is a context whose Err reports nil for its first k calls and
// context.Canceled from then on. The served engine calls Err once at the top
// of each round, so a solve under it degrades at the top of round k+1: a
// mid-solve deadline no wall clock makes deterministic.
type expiresAfter struct {
	context.Context
	k int
}

func (c *expiresAfter) Err() error {
	if c.k == 0 {
		return context.Canceled
	}
	c.k--
	return nil
}

// lazyTestAlphas is the sweep the acceptance matrix calls for: 0.99 and 1
// make budgets tight (many rounds over the word list), 0.8 makes them loose
// (one or two rounds, empty-key successes on small contexts).
var lazyTestAlphas = []float64{0.8, 0.9, 0.95, 0.99, 1}

// TestDifferentialLazyEager sweeps random datasets × α, comparing the served
// entry against the eager oracle. Odd trials use tie-heavy datasets (binary
// features over few attributes: many rows collide onto the same posting
// lists, so scores tie constantly and the pick is decided by the freq/index
// tie-break — the exact code path that breaks if the count-seeded round or
// the word-list rounds compare differently from the eager scan).
func TestDifferentialLazyEager(t *testing.T) {
	for _, path := range roundTwoPaths {
		t.Run(path.name, func(t *testing.T) { differentialLazyEager(t, path.prepare) })
	}
}

func differentialLazyEager(t *testing.T, prepare func(*Context)) {
	rng := rand.New(rand.NewSource(311))
	for trial := 0; trial < 120; trial++ {
		var c *Context
		if trial%2 == 1 {
			c = randomContext(t, rng, 20+rng.Intn(400), 3+rng.Intn(4), 2, 2) // tie-heavy
		} else {
			c = randomContext(t, rng, 5+rng.Intn(300), 2+rng.Intn(7), 2+rng.Intn(3), 2+rng.Intn(2))
		}
		prepare(c)
		row := c.Item(rng.Intn(c.Len()))
		alpha := lazyTestAlphas[trial%len(lazyTestAlphas)]
		want, wantErr := SRK(c, row.X, row.Y, alpha)
		got, gotDeg, gotErr := SRKAnytime(context.Background(), c, row.X, row.Y, alpha)
		if gotDeg {
			t.Fatalf("trial %d α=%v: a background context degraded the solve", trial, alpha)
		}
		if !errors.Is(gotErr, wantErr) {
			t.Fatalf("trial %d α=%v: err %v, eager %v", trial, alpha, gotErr, wantErr)
		}
		if !got.Equal(want) || (got == nil) != (want == nil) {
			t.Fatalf("trial %d α=%v: key %#v, eager %#v", trial, alpha, got, want)
		}
	}
}

// TestDifferentialLazyPickOrder compares the raw engines below the
// instrumented wrapper: the served pick sequence must equal the eager pick
// sequence element by element, not just as a sorted set — the tie-break is
// only correct if every individual round's argmin replays the eager scan.
func TestDifferentialLazyPickOrder(t *testing.T) {
	for _, path := range roundTwoPaths {
		t.Run(path.name, func(t *testing.T) { differentialLazyPickOrder(t, path.prepare) })
	}
}

func differentialLazyPickOrder(t *testing.T, prepare func(*Context)) {
	rng := rand.New(rand.NewSource(313))
	for trial := 0; trial < 100; trial++ {
		c := randomContext(t, rng, 10+rng.Intn(300), 3+rng.Intn(6), 2+rng.Intn(2), 2)
		prepare(c)
		row := c.Item(rng.Intn(c.Len()))
		alpha := lazyTestAlphas[trial%len(lazyTestAlphas)]
		want, wantErr := srkEager(c, row.X, row.Y, alpha)
		got, gotDeg, gotErr := srkAnytimeSparse(context.Background(), c, row.X, row.Y, alpha)
		if gotDeg || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d α=%v: (deg %v, err %v), eager err %v", trial, alpha, gotDeg, gotErr, wantErr)
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
	for _, path := range roundTwoPaths {
		t.Run(path.name, func(t *testing.T) { differentialSRKOrdered(t, path.prepare) })
	}
}

func differentialSRKOrdered(t *testing.T, prepare func(*Context)) {
	rng := rand.New(rand.NewSource(317))
	for trial := 0; trial < 80; trial++ {
		c := randomContext(t, rng, 10+rng.Intn(250), 3+rng.Intn(4), 2, 2)
		prepare(c)
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

// TestLazyEmptyKeySuccess: when the empty key already satisfies α, every
// entry must return a non-nil empty Key — the service JSON layer renders
// Key{} as [] and Key(nil) as null, and clients key off the difference.
// SRKAnytimePar, SRKAnytime under an ignored worker count, answers the same.
func TestLazyEmptyKeySuccess(t *testing.T) {
	c := randomContext(t, rand.New(rand.NewSource(331)), 40, 3, 2, 2)
	row := c.Item(0)
	// α low enough that the initial disagreeing count fits the budget.
	key, err := SRK(c, row.X, row.Y, 0.01)
	if err != nil || key == nil || len(key) != 0 {
		t.Fatalf("SRK empty-key: key %#v err %v", key, err)
	}
	key, deg, err := SRKAnytime(context.Background(), c, row.X, row.Y, 0.01)
	if err != nil || deg || key == nil || len(key) != 0 {
		t.Fatalf("SRKAnytime empty-key: key %#v deg %v err %v", key, deg, err)
	}
	key, deg, err = SRKAnytimePar(context.Background(), c, row.X, row.Y, 0.01, 4)
	if err != nil || deg || key == nil || len(key) != 0 {
		t.Fatalf("SRKAnytimePar empty-key: key %#v deg %v err %v", key, deg, err)
	}
}

// TestLazyExpiredContext: an already-expired context must degrade through
// completeAnytime from round zero (anytimeRef with k = 0), keys and no-key
// verdicts alike.
func TestLazyExpiredContext(t *testing.T) {
	for _, path := range roundTwoPaths {
		t.Run(path.name, func(t *testing.T) { lazyExpiredContext(t, path.prepare) })
	}
}

func lazyExpiredContext(t *testing.T, prepare func(*Context)) {
	rng := rand.New(rand.NewSource(337))
	expired := expiredCtx(t)
	for trial := 0; trial < 40; trial++ {
		c := randomContext(t, rng, 10+rng.Intn(200), 2+rng.Intn(5), 2+rng.Intn(2), 2)
		prepare(c)
		row := c.Item(rng.Intn(c.Len()))
		alpha := lazyTestAlphas[trial%len(lazyTestAlphas)]
		want, wantDeg, wantErr := anytimeRef(c, row.X, row.Y, alpha, 0)
		got, gotDeg, gotErr := SRKAnytime(expired, c, row.X, row.Y, alpha)
		if gotDeg != wantDeg || !errors.Is(gotErr, wantErr) {
			t.Fatalf("trial %d: (deg %v, err %v), reference (deg %v, err %v)", trial, gotDeg, gotErr, wantDeg, wantErr)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: degraded key %v, reference %v", trial, got, want)
		}
	}
}

// TestLazyDeadlineDifferential degrades the served solve at the top of each
// round it runs: for every k from 0 to the eager key's size, a context that
// expires after k checks (expiresAfter) must give anytimeRef's key, degraded
// flag and error. From the second round on, the served engine rebuilds its
// survivor set from picks it made over count tables, pair-count tables and
// word lists, which an expired context (k = 0) never reaches.
func TestLazyDeadlineDifferential(t *testing.T) {
	for _, path := range roundTwoPaths {
		t.Run(path.name, func(t *testing.T) { lazyDeadlineDifferential(t, path.prepare) })
	}
}

func lazyDeadlineDifferential(t *testing.T, prepare func(*Context)) {
	rng := rand.New(rand.NewSource(32101))
	midSolve := 0
	for trial := 0; trial < 80; trial++ {
		var c *Context
		if trial%2 == 1 {
			c = randomContext(t, rng, 20+rng.Intn(400), 3+rng.Intn(4), 2, 2) // tie-heavy
		} else {
			c = randomContext(t, rng, 10+rng.Intn(300), 3+rng.Intn(6), 2+rng.Intn(2), 2+rng.Intn(2))
		}
		prepare(c)
		row := c.Item(rng.Intn(c.Len()))
		alpha := lazyTestAlphas[trial%len(lazyTestAlphas)]
		picks, _ := srkEager(c, row.X, row.Y, alpha)
		for k := 0; k <= len(picks); k++ {
			want, wantDeg, wantErr := anytimeRef(c, row.X, row.Y, alpha, k)
			got, gotDeg, gotErr := SRKAnytime(&expiresAfter{Context: context.Background(), k: k}, c, row.X, row.Y, alpha)
			if gotDeg != wantDeg || !errors.Is(gotErr, wantErr) || !got.Equal(want) {
				t.Fatalf("trial %d α=%v k=%d of %v: (%v, deg %v, err %v), reference (%v, deg %v, err %v)",
					trial, alpha, k, picks, got, gotDeg, gotErr, want, wantDeg, wantErr)
			}
			if gotDeg && k > 0 {
				midSolve++
			}
		}
	}
	if midSolve == 0 {
		t.Fatal("no solve degraded after its first pick")
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
	for _, path := range roundTwoPaths {
		c, err := NewContext(s, items)
		if err != nil {
			t.Fatal(err)
		}
		path.prepare(c)
		for _, alpha := range lazyTestAlphas {
			row := c.Item(0)
			want, wantErr := SRK(c, row.X, row.Y, alpha)
			got, gotErr := served(c, row.X, row.Y, alpha)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s α=%v: err %v, eager %v", path.name, alpha, gotErr, wantErr)
			}
			if !got.Equal(want) {
				t.Fatalf("%s α=%v: key %v, eager %v", path.name, alpha, got, want)
			}
		}
	}
}

// TestLazyOutOfRangeLabel: a prediction outside the label space (the solvers
// do not validate it) makes every live row a violator in the eager loop. The
// served engine must read that as "no rows labelled y" from its count table,
// not index the table out of range, and return the eager answer.
func TestLazyOutOfRangeLabel(t *testing.T) {
	for _, path := range roundTwoPaths {
		t.Run(path.name, func(t *testing.T) { lazyOutOfRangeLabel(t, path.prepare) })
	}
}

func lazyOutOfRangeLabel(t *testing.T, prepare func(*Context)) {
	rng := rand.New(rand.NewSource(349))
	for trial := 0; trial < 40; trial++ {
		c := randomContext(t, rng, 5+rng.Intn(200), 2+rng.Intn(5), 2+rng.Intn(3), 2)
		prepare(c)
		if trial%2 == 1 {
			removeRandomThird(t, rng, c)
		}
		x := c.LiveItems()[0].X
		alpha := lazyTestAlphas[trial%len(lazyTestAlphas)]
		for _, y := range []feature.Label{-1, feature.Label(len(c.Schema.Labels)), 99} {
			want, wantErr := srkEager(c, x, y, alpha)
			got, gotDeg, gotErr := srkAnytimeSparse(context.Background(), c, x, y, alpha)
			if gotDeg || !errors.Is(gotErr, wantErr) {
				t.Fatalf("trial %d y=%d: (deg %v, err %v), eager err %v", trial, y, gotDeg, gotErr, wantErr)
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
// targets, and alphas, on both of round two's paths: any divergence in key
// bytes, pick order, or error shape is a crash. The committed corpus pins the two regimes the sweep
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
		target := decodeInstance(tb)
		alpha := []float64{1.0, 0.99, 0.9, 0.8}[(tb>>5)&3]
		for _, path := range roundTwoPaths {
			c, err := NewContext(schema, items)
			if err != nil {
				t.Fatalf("NewContext: %v", err)
			}
			path.prepare(c)

			wantPicks, wantErr := srkEager(c, target.X, target.Y, alpha)
			gotPicks, gotDeg, gotErr := srkAnytimeSparse(context.Background(), c, target.X, target.Y, alpha)
			if gotDeg || (gotErr == nil) != (wantErr == nil) ||
				errors.Is(gotErr, ErrNoKey) != errors.Is(wantErr, ErrNoKey) {
				t.Fatalf("%s α=%v: served (deg %v, err %v), eager err %v", path.name, alpha, gotDeg, gotErr, wantErr)
			}
			if len(gotPicks) != len(wantPicks) {
				t.Fatalf("%s α=%v: served picks %v, eager %v", path.name, alpha, gotPicks, wantPicks)
			}
			for i := range gotPicks {
				if gotPicks[i] != wantPicks[i] {
					t.Fatalf("%s α=%v: pick %d served %d, eager %d (served %v, eager %v)", path.name, alpha, i, gotPicks[i], wantPicks[i], gotPicks, wantPicks)
				}
			}

			// The public entries must agree too (sorted key + empty-key shape).
			wantKey, wantErr2 := SRK(c, target.X, target.Y, alpha)
			gotKey, gotErr2 := served(c, target.X, target.Y, alpha)
			if (gotErr2 == nil) != (wantErr2 == nil) {
				t.Fatalf("%s α=%v: SRKAnytime err %v, SRK err %v", path.name, alpha, gotErr2, wantErr2)
			}
			if gotErr2 == nil {
				if !gotKey.Equal(wantKey) {
					t.Fatalf("%s α=%v: SRKAnytime key %v, SRK %v", path.name, alpha, gotKey, wantKey)
				}
				if (gotKey == nil) != (wantKey == nil) {
					t.Fatalf("%s α=%v: key nilness diverges: served %#v, eager %#v", path.name, alpha, gotKey, wantKey)
				}
			}
		}
	})
}

// TestLazyConcurrentSolves: many goroutines solving against one shared
// read-only context — the deployment shape of request fan-out — must all get
// the eager answer. Run under -race this also proves the pooled per-solve
// state is shared by no two concurrent solves.
func TestLazyConcurrentSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(239))
	c := randomContext(t, rng, 500, 6, 3, 2)
	type q struct {
		x    feature.Instance
		y    feature.Label
		want Key
	}
	var qs []q
	for i := 0; i < 16; i++ {
		row := c.Item(rng.Intn(c.Len()))
		want, err := SRK(c, row.X, row.Y, 0.9)
		if err != nil {
			continue
		}
		qs = append(qs, q{row.X, row.Y, want})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, query := range qs {
				got, err := served(c, query.x, query.y, 0.9)
				if err != nil || !got.Equal(query.want) {
					errs <- fmt.Errorf("goroutine %d query %d: %v err %v, want %v", g, i, got, err, query.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
