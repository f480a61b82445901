// Package faultinject provides deterministic, seeded fault injection for the
// CCE service's chaos tests (DESIGN.md §9). Every fault decision flows from a
// single seeded PRNG, so a failing chaos run reproduces exactly by rerunning
// with the same seed. The wrappers interpose at the service's seams — the
// solver, the drift monitor, and the persistence sink — using structural
// interfaces so this package never imports service or persist.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/feature"
)

// ErrInjected marks every fault this package raises, so tests can assert a
// failure was injected rather than organic.
var ErrInjected = errors.New("faultinject: injected fault")

// Injector is a seeded fault source, safe for concurrent use. All wrappers
// sharing an Injector draw from one stream, which keeps a multi-goroutine
// chaos run reproducible in distribution (per-call interleaving still varies,
// so tests assert invariants, not exact traces).
type Injector struct {
	mu  sync.Mutex
	rng *rand.Rand // guarded by mu
}

// New builds an injector whose decisions are fully determined by seed.
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Roll reports whether a fault with probability p fires. p ≤ 0 never fires
// and consumes no randomness; p ≥ 1 always fires likewise, so wrappers with
// disabled fault classes do not perturb the stream of enabled ones... they do
// consume for 0<p<1 regardless of outcome, which is what keeps runs seeded.
func (i *Injector) Roll(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.rng.Float64() < p
}

// Solve matches core.SRKAnytime: a context-aware anytime solver returning the
// key, a degraded flag, and an error.
type Solve func(ctx context.Context, c *core.Context, x feature.Instance, y feature.Label, alpha float64) (core.Key, bool, error)

// SolveFaults configures WrapSolve.
type SolveFaults struct {
	LatencyProb float64       // probability of an injected stall before solving
	Latency     time.Duration // stall length when it fires
	ErrProb     float64       // probability of failing outright with ErrInjected
}

// WrapSolve returns a solver that stalls or fails per f before delegating.
// The stall honours ctx: when the request deadline fires mid-stall, the
// wrapper stops sleeping immediately and delegates, so the inner anytime
// solver sees the expired context and degrades instead of blowing the SLO by
// the full injected latency.
func WrapSolve(inner Solve, inj *Injector, f SolveFaults) Solve {
	return func(ctx context.Context, c *core.Context, x feature.Instance, y feature.Label, alpha float64) (core.Key, bool, error) {
		if inj.Roll(f.ErrProb) {
			return nil, false, fmt.Errorf("faultinject: solver: %w", ErrInjected)
		}
		if inj.Roll(f.LatencyProb) && f.Latency > 0 {
			t := time.NewTimer(f.Latency)
			select {
			case <-ctx.Done():
				t.Stop()
			case <-t.C:
			}
		}
		return inner(ctx, c, x, y, alpha)
	}
}

// Observer is the drift-monitor slice the service depends on, structurally
// identical to service.DriftObserver so a FlakyObserver drops straight into
// the server config.
type Observer interface {
	ObserveCtx(ctx context.Context, li feature.Labeled) (int, error)
	AvgSuccinctness() float64
	Arrivals() int
}

// FlakyObserver fails a fraction of monitor observations, exercising the
// /observe refusal path (a rejected row must never reach the context).
type FlakyObserver struct {
	Inner    Observer
	Inj      *Injector
	FailProb float64
}

// ObserveCtx delegates unless the fault fires.
func (f *FlakyObserver) ObserveCtx(ctx context.Context, li feature.Labeled) (int, error) {
	if f.Inj.Roll(f.FailProb) {
		return 0, fmt.Errorf("faultinject: monitor observe: %w", ErrInjected)
	}
	return f.Inner.ObserveCtx(ctx, li)
}

// AvgSuccinctness delegates to the wrapped monitor.
func (f *FlakyObserver) AvgSuccinctness() float64 { return f.Inner.AvgSuccinctness() }

// Arrivals delegates to the wrapped monitor.
func (f *FlakyObserver) Arrivals() int { return f.Inner.Arrivals() }

// WriteSyncer matches persist.WriteSyncer structurally.
type WriteSyncer interface {
	io.Writer
	Sync() error
}

// TornWriter simulates kill -9 mid-write: it passes bytes through until
// cutAfter total bytes have been written, writes the partial remainder of the
// straddling call, and fails that call and every later one. The cut position
// is exact and deterministic, so recovery tests know precisely which WAL
// record is torn.
type TornWriter struct {
	mu        sync.Mutex
	w         WriteSyncer // guarded by mu
	remaining int64       // guarded by mu; bytes still allowed through
	dead      bool        // guarded by mu; true once the cut happened
}

// NewTornWriter wraps w with a deterministic cut after cutAfter bytes.
func NewTornWriter(w WriteSyncer, cutAfter int64) *TornWriter {
	return &TornWriter{w: w, remaining: cutAfter}
}

// Write forwards p, tearing it at the configured cut.
func (t *TornWriter) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead {
		return 0, fmt.Errorf("faultinject: write after cut: %w", ErrInjected)
	}
	if int64(len(p)) <= t.remaining {
		n, err := t.w.Write(p)
		t.remaining -= int64(n)
		return n, err
	}
	keep := t.remaining
	t.dead = true
	t.remaining = 0
	n, err := t.w.Write(p[:keep])
	if err != nil {
		return n, err
	}
	return n, fmt.Errorf("faultinject: torn write: %w", ErrInjected)
}

// Sync forwards until the cut, then fails like a dead process would.
func (t *TornWriter) Sync() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead {
		return fmt.Errorf("faultinject: sync after cut: %w", ErrInjected)
	}
	return t.w.Sync()
}

// FaultyWriteSyncer fails a fraction of writes and syncs, for exercising the
// service's WAL-append error path (observe must leave the context untouched
// and 503).
type FaultyWriteSyncer struct {
	Inner         WriteSyncer
	Inj           *Injector
	WriteFailProb float64
	SyncFailProb  float64
}

// Write delegates unless the fault fires.
func (f *FaultyWriteSyncer) Write(p []byte) (int, error) {
	if f.Inj.Roll(f.WriteFailProb) {
		return 0, fmt.Errorf("faultinject: write: %w", ErrInjected)
	}
	return f.Inner.Write(p)
}

// Sync delegates unless the fault fires.
func (f *FaultyWriteSyncer) Sync() error {
	if f.Inj.Roll(f.SyncFailProb) {
		return fmt.Errorf("faultinject: sync: %w", ErrInjected)
	}
	return f.Inner.Sync()
}
