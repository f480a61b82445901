package cce

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/faultinject"
)

// Stress and chaos coverage for concurrent explains at the cce layer: solves
// racing window advances, and injector-timed cancellation landing mid-round.
// These tests carry most of their weight under `go test -race` (CI runs them
// there); the differential checks double as a pool-integrity probe — a solve
// that kept using its pooled scratch after releasing it would surface in later
// solves as torn survivor sets.

// TestWindowParallelStressRace is the deployment shape of a streaming client:
// explainer goroutines solving in parallel while the observer goroutine
// advances the window in place. Once the stream drains, the window must
// answer exactly like the eager solver over a context rebuilt from its items
// — any scratch corruption from the churn phase would break that equality.
func TestWindowParallelStressRace(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(41))
	w, err := NewWindow(s, 400, 25, 1.0, LastWins)
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range randomStream(rng, s, 400) {
		if err := w.Observe(li); err != nil {
			t.Fatal(err)
		}
	}
	stream := randomStream(rng, s, 1000)
	queries := randomStream(rng, s, 64)

	done := make(chan struct{})
	errs := make(chan error, 16)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // observer: advances the window every 25 arrivals
		defer wg.Done()
		defer close(done)
		for _, li := range stream {
			if err := w.Observe(li); err != nil {
				report(fmt.Errorf("observe: %w", err))
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) { // explainers: solves against the moving window
			defer wg.Done()
			for i := g; ; i += 4 {
				select {
				case <-done:
					return
				default:
				}
				q := queries[i%len(queries)]
				key, degraded, err := w.ExplainCtx(context.Background(), q.X, q.Y)
				if err != nil && err != core.ErrNoKey {
					report(fmt.Errorf("explainer %d: %w", g, err))
					return
				}
				if degraded {
					report(fmt.Errorf("explainer %d: degraded without a deadline", g))
					return
				}
				// Keys are canonical (sorted, deduplicated) by construction.
				if err == nil && !key.Equal(core.NewKey(key...)) {
					report(fmt.Errorf("explainer %d: non-canonical key %v", g, key))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiescent differential: the window's in-place-mutated index must agree
	// byte-for-byte with a fresh eager oracle over the same rows.
	oracle, err := core.NewContext(s, w.Items())
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, wantErr := core.SRK(oracle, q.X, q.Y, 1.0)
		got, degraded, gotErr := w.ExplainCtx(context.Background(), q.X, q.Y)
		if degraded || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("query %d: degraded=%v err=%v, oracle err %v", i, degraded, gotErr, wantErr)
		}
		if !got.Equal(want) {
			t.Fatalf("query %d: key %v, oracle %v", i, got, want)
		}
	}
}

// TestParallelChaosCancelMidRound fires deadlines at injector-chosen moments
// while solves are in flight, covering every cancellation timing: before the
// first round, between rounds, and mid-round. Invariants: every returned key
// — degraded or not — is α-conformant against the live context, and after
// the storm the served and eager solvers still agree, proving no cancelled
// round leaked a partially-written scratch set into the pool.
func TestParallelChaosCancelMidRound(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(43))
	b, err := NewBatch(s, randomStream(rng, s, 2000), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(43)
	queries := randomStream(rng, s, 32)
	for round := 0; round < 150; round++ {
		q := queries[round%len(queries)]
		ctx := context.Background()
		var cancel context.CancelFunc
		if inj.Roll(0.6) {
			// Deadlines from 20µs to 140µs land anywhere from before the
			// solve starts to deep inside a scoring round.
			d := time.Duration(1+round%7) * 20 * time.Microsecond
			ctx, cancel = context.WithTimeout(ctx, d)
		}
		key, degraded, err := b.ExplainCtx(ctx, q.X, q.Y)
		if cancel != nil {
			cancel()
		}
		if err == core.ErrNoKey {
			continue
		}
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !core.IsAlphaKey(b.Ctx, q.X, q.Y, key, 0.95) {
			t.Fatalf("round %d: key %v (degraded=%v) not α-conformant", round, key, degraded)
		}
	}

	// Post-storm differential: scratch released to the pool mid-solve would
	// poison these solves.
	for i, q := range queries {
		want, wantErr := core.SRK(b.Ctx, q.X, q.Y, 0.95)
		got, degraded, gotErr := b.ExplainCtx(context.Background(), q.X, q.Y)
		if degraded || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("query %d: degraded=%v err=%v, eager err %v", i, degraded, gotErr, wantErr)
		}
		if !got.Equal(want) {
			t.Fatalf("query %d: key %v, eager %v", i, got, want)
		}
	}
}
