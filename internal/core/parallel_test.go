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

// The differential harness for the Par entry points: SRKPar/SRKAnytimePar
// must be byte-identical to SRK/SRKAnytime on every input — same key, same
// error, same degraded flag — and CoveragePar/PrecisionPar must equal
// Coverage/Precision, whatever worker count they are passed (it is ignored).

var testedParallelisms = []int{1, 2, 3, 4, 8}

// TestDifferentialSRKParallel: quick-check style sweep over randomized
// datasets, alphas, and P ∈ {1,2,3,4,8}.
func TestDifferentialSRKParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 80; trial++ {
		c := randomContext(t, rng, 5+rng.Intn(300), 2+rng.Intn(7), 2+rng.Intn(3), 2+rng.Intn(2))
		row := c.Item(rng.Intn(c.Len()))
		alpha := []float64{1.0, 0.95, 0.85, 0.6, 0.8 + 0.2*rng.Float64()}[trial%5]
		want, wantErr := SRK(c, row.X, row.Y, alpha)
		for _, p := range testedParallelisms {
			got, gotErr := SRKPar(c, row.X, row.Y, alpha, p)
			if !errors.Is(gotErr, wantErr) && gotErr != wantErr {
				t.Fatalf("trial %d P=%d α=%v: err %v, sequential %v", trial, p, alpha, gotErr, wantErr)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d P=%d α=%v: key %v, sequential %v", trial, p, alpha, got, want)
			}
		}
	}
}

// TestDifferentialSRKAnytimeParallel covers the anytime entry both
// undeadlined and with an already-expired context (which exercises the
// degraded completion pass from round zero in both variants — the only
// cancellation timing that is deterministic enough to diff).
func TestDifferentialSRKAnytimeParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	for trial := 0; trial < 60; trial++ {
		c := randomContext(t, rng, 5+rng.Intn(250), 2+rng.Intn(6), 2+rng.Intn(3), 2)
		row := c.Item(rng.Intn(c.Len()))
		alpha := []float64{1.0, 0.9, 0.75}[trial%3]
		for _, ctx := range []context.Context{context.Background(), expired} {
			want, wantDeg, wantErr := SRKAnytime(ctx, c, row.X, row.Y, alpha)
			for _, p := range testedParallelisms {
				got, gotDeg, gotErr := SRKAnytimePar(ctx, c, row.X, row.Y, alpha, p)
				if gotDeg != wantDeg {
					t.Fatalf("trial %d P=%d: degraded %v, sequential %v", trial, p, gotDeg, wantDeg)
				}
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("trial %d P=%d: err %v, sequential %v", trial, p, gotErr, wantErr)
				}
				if !got.Equal(want) {
					t.Fatalf("trial %d P=%d: key %v, sequential %v", trial, p, got, want)
				}
			}
		}
	}
}

// TestDifferentialCountersParallel: CoveragePar and PrecisionPar must agree
// with the sequential counters for arbitrary keys and worker counts.
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
		for _, p := range testedParallelisms {
			if got, want := CoveragePar(c, row.X, row.Y, E, p), Coverage(c, row.X, row.Y, E); got != want {
				t.Fatalf("trial %d P=%d: CoveragePar %d, sequential %d", trial, p, got, want)
			}
			if got, want := PrecisionPar(c, row.X, row.Y, E, p), Precision(c, row.X, row.Y, E); got != want { //rkvet:ignore floateq both sides are 1 - int/int over identical ints, bit-equal by construction
				t.Fatalf("trial %d P=%d: PrecisionPar %v, sequential %v", trial, p, got, want)
			}
		}
	}
}

// TestParallelSRKConcurrentSolves: many goroutines solving against one
// shared read-only context — the deployment shape of request fan-out — must
// all get the eager answer. Run under -race this also proves the pooled
// per-solve state is shared by no two concurrent solves.
func TestParallelSRKConcurrentSolves(t *testing.T) {
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
				got, err := SRKPar(c, query.x, query.y, 0.9, 1+g%4)
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
