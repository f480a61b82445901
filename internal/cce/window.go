package cce

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/feature"
)

// Policy resolves conflicting keys when an instance appears in multiple
// overlapping sliding-window contexts (Appendix B, Exp-4).
type Policy int

const (
	// LastWins keeps the key relative to the latest context containing the
	// instance (CCE's default).
	LastWins Policy = iota
	// FirstWins never updates a key once computed.
	FirstWins
	// UnionKey unions the keys from every context containing the instance.
	UnionKey
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LastWins:
		return "last-wins"
	case FirstWins:
		return "first-wins"
	case UnionKey:
		return "union-key"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Window maintains a sliding context of the most recent instances for
// explaining under dynamic models whose change points are unknown: each step
// of ΔI new instances drops the ΔI oldest ones.
//
// The context is maintained incrementally: advance adds the ΔI arrivals and
// retires the ΔI oldest rows in place — O(ΔI × attrs) bit operations —
// instead of re-indexing all |I| rows, so the per-step cost is independent
// of the window capacity.
//
// Window is safe for concurrent use: observers and explainers may run from
// different goroutines, as a streaming deployment does. All state shares one
// mutex because Explain both reads the context and writes the policy cache.
type Window struct {
	schema   *feature.Schema
	capacity int
	step     int
	alpha    float64
	policy   Policy

	mu  sync.Mutex
	buf []feature.Labeled // guarded by mu; pending arrivals of the current step

	ctx     *core.Retained // guarded by mu; the newest capacity rows, updated in place by advance
	version int            // guarded by mu

	// cache holds per-instance resolved keys across overlapping contexts for
	// FirstWins/UnionKey (LastWins never reads earlier keys, so it bypasses
	// the cache entirely). Entries are version-stamped and evicted once no
	// window overlapping their last resolution remains — see evictStaleLocked.
	cache   map[string]cacheEntry // guarded by mu
	touched map[int][]string      // guarded by mu; version → ids resolved at that version
	swept   int                   // guarded by mu; versions < swept have been drained from touched
}

type cacheEntry struct {
	key     core.Key
	version int
}

// NewWindow builds a sliding-window explainer. capacity is |I|; step is ΔI.
func NewWindow(schema *feature.Schema, capacity, step int, alpha float64, policy Policy) (*Window, error) {
	if err := core.ValidateAlpha(alpha); err != nil {
		return nil, err
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("cce: window capacity %d must be positive", capacity)
	}
	if step <= 0 || step > capacity {
		return nil, fmt.Errorf("cce: window step %d must be in [1,%d]", step, capacity)
	}
	ctx, err := core.NewRetained(schema, capacity)
	if err != nil {
		return nil, err
	}
	return &Window{
		schema:   schema,
		capacity: capacity,
		step:     step,
		alpha:    alpha,
		policy:   policy,
		ctx:      ctx,
		cache:    map[string]cacheEntry{},
		touched:  map[int][]string{},
	}, nil
}

// Observe appends one arrival; the window advances every ΔI arrivals. An
// arrival the context would refuse is refused here, before it is buffered.
func (w *Window) Observe(li feature.Labeled) error {
	if err := core.ValidateLabeled(w.schema, li); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, li)
	if len(w.buf) >= w.step {
		return w.advanceLocked()
	}
	return nil
}

// advanceLocked shifts the window by one step, updating the single shared
// index in place: core.Retained.Add retires the oldest row when the window
// is full and gives its slot to the arrival. Total cost O(ΔI × attrs)
// regardless of capacity — the rebuild this replaced re-indexed all |I| rows
// per step. Observe validated every buffered arrival, so Add accepts them
// all. Callers hold w.mu.
func (w *Window) advanceLocked() error {
	defer windowAdvanceSeconds.ObserveSince(time.Now())
	for _, li := range w.buf {
		if err := w.ctx.Add(li); err != nil {
			return err
		}
	}
	w.buf = w.buf[:0]
	w.version++
	w.evictStaleLocked()
	return nil
}

// retentionVersions is how many advances a window context survives: after
// ⌈capacity/step⌉ further steps no row of the current window remains, so a
// cache entry untouched for that long has no overlapping context left and
// its policy state is dead weight.
func (w *Window) retentionVersions() int {
	return (w.capacity+w.step-1)/w.step + 1
}

// evictStaleLocked drops cache entries whose last resolution no longer
// overlaps the current window. Each Explain logs its id under the
// then-current version; advancing drains the version buckets that fell past
// the horizon, deleting entries not re-resolved since. Amortized
// O(resolutions), so the cache is bounded by the ids explained within one
// window lifetime instead of growing for the whole stream. Callers hold
// w.mu.
func (w *Window) evictStaleLocked() {
	cutoff := w.version - w.retentionVersions()
	for v := w.swept; v <= cutoff; v++ {
		for _, id := range w.touched[v] {
			if e, ok := w.cache[id]; ok && e.version <= cutoff {
				delete(w.cache, id)
			}
		}
		delete(w.touched, v)
	}
	if cutoff >= w.swept {
		w.swept = cutoff + 1
	}
}

// Reset clears the window, pending buffer and key cache. Appendix B: when
// the client is told exactly when the model changes, CCE "cleans its context
// and switches to inference instances and predictions collected from the
// updated model" — this is that switch.
func (w *Window) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.ctx.Replace(nil); err != nil {
		return err
	}
	w.buf = w.buf[:0]
	w.cache = map[string]cacheEntry{}
	w.touched = map[int][]string{}
	w.swept = w.version + 1
	w.version++
	return nil
}

// Version counts window advances so far.
func (w *Window) Version() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.version
}

// ContextVersion exposes the window context's stamp (see
// core.Retained.Version): it advances with every row the sliding window adds
// or retires and with every Reset, a finer grain than Version, which ticks
// once per ΔI-step. Equal stamps guarantee identical context content, which
// is what lets a service tier cache explanations keyed on (stamp, alpha,
// instance) and have window movement invalidate them for free (DESIGN.md
// §15).
func (w *Window) ContextVersion() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ctx.Version()
}

// Size returns the current window occupancy.
func (w *Window) Size() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ctx.Len()
}

// Items returns the window contents oldest-first (excluding arrivals still
// buffered before the next advance).
func (w *Window) Items() []feature.Labeled {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ctx.Items()
}

// Explain computes the key for x (predicted y) relative to the current
// window and resolves it against earlier keys per the policy. It holds the
// window lock for the SRK run: the context is the mutable shared index, and
// FirstWins/UnionKey additionally read and write the resolution cache.
func (w *Window) Explain(x feature.Instance, y feature.Label) (core.Key, error) {
	key, _, err := w.ExplainCtx(context.Background(), x, y) //rkvet:ignore ctxflow Explain is the sanctioned never-cancelled specialization; a half-cancelled explain would poison the resolution cache
	return key, err
}

// ExplainCtx is Explain under a deadline. An expired context degrades the
// solve to a valid-but-less-succinct key (degraded=true). Degraded keys are
// served but never written to the resolution cache: FirstWins would otherwise
// freeze an oversized key as the instance's answer forever, and UnionKey
// would permanently bloat the union — both policies resolve degraded queries
// against the cache read-only and heal on the next undeadlined Explain.
func (w *Window) ExplainCtx(ctx context.Context, x feature.Instance, y feature.Label) (core.Key, bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	fresh, degraded, err := core.SRKAnytime(ctx, w.ctx.Context(), x, y, w.alpha)
	if err != nil {
		return nil, degraded, err
	}
	if w.policy == LastWins {
		// The latest key wins unconditionally: earlier resolutions are never
		// consulted, so caching them would only consume memory.
		return fresh, degraded, nil
	}
	id := instanceID(x, y)
	prev, seen := w.cache[id]
	if seen {
		windowCacheHits.Inc()
	} else {
		windowCacheMisses.Inc()
	}
	var resolved core.Key
	switch w.policy {
	case FirstWins:
		if seen {
			resolved = prev.key
		} else {
			resolved = fresh
		}
	case UnionKey:
		if seen {
			merged := append(append(core.Key{}, prev.key...), fresh...)
			resolved = core.NewKey(merged...)
		} else {
			resolved = fresh
		}
	default:
		return nil, false, fmt.Errorf("cce: unknown policy %v", w.policy)
	}
	if !degraded {
		w.cache[id] = cacheEntry{key: resolved, version: w.version}
		w.touched[w.version] = append(w.touched[w.version], id)
	}
	return resolved.Clone(), degraded, nil
}

// cacheLen exposes the cache occupancy to tests.
func (w *Window) cacheLen() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.cache)
}

func instanceID(x feature.Instance, y feature.Label) string {
	var b strings.Builder
	for _, v := range x {
		fmt.Fprintf(&b, "%d,", v)
	}
	fmt.Fprintf(&b, "|%d", y)
	return b.String()
}
