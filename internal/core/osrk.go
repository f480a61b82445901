package core

import (
	"context"
	"math"
	"math/rand"
	"time"

	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/obs"
)

// OSRK implements Algorithm 2: randomized online monitoring of an
// α-conformant key for a fixed instance x₀ as context instances arrive one by
// one. Keys are coherent (E_t ⊆ E_{t+1}) and, for α=1, (log t · log n)-bounded
// in expectation (Theorem 5). Per-arrival work is O(n log n), independent of
// the context size, except for the coherent shrink of the maintained violator
// list, which is amortized O(1) per instance.
//
// The monitor keeps only the state Algorithm 2 reads: |I_t|, p_t and the
// violator set V_t, so it holds O(n + |V_t|) memory and no index of the
// stream. Callers that need the context itself (to check a key against it)
// keep their own.
type OSRK struct {
	schema *feature.Schema
	x0     feature.Instance
	y0     feature.Label
	alpha  float64

	weights []float64
	inE     []bool
	key     Key

	// n counts the arrivals so far, |I_t|; the budget is Budget(α, n).
	n int
	// violators holds V_t, the feature vectors of arrivals that agree with x₀
	// on E and predict differently, maintained incrementally. An observed
	// arrival's vector aliases the caller's instance; a replayed one is a
	// copy of its row.
	violators []feature.Instance
	// p counts online instances whose prediction differs from x₀'s (the p_t
	// of Algorithm 2).
	p int
	// conflicts counts arrivals identical to x₀ on every feature but with a
	// different prediction: no key can exclude them.
	conflicts int

	seeded bool // whether the initial random draw (lines 4-6) has happened
	rng    *rand.Rand
}

// NewOSRK prepares monitoring of x₀ with prediction y₀ under conformity bound
// α. The context starts empty; feed instances with Observe.
func NewOSRK(schema *feature.Schema, x0 feature.Instance, y0 feature.Label, alpha float64, seed int64) (*OSRK, error) {
	if err := ValidateAlpha(alpha); err != nil {
		return nil, err
	}
	if err := ValidateLabeled(schema, feature.Labeled{X: x0, Y: y0}); err != nil {
		return nil, err
	}
	n := schema.NumFeatures()
	// w_i = 2^{-k} for the max integer k with 2^{-k} < 1/n.
	w := initialWeight(n)
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = w
	}
	return &OSRK{
		schema:  schema,
		x0:      x0.Clone(),
		y0:      y0,
		alpha:   alpha,
		weights: weights,
		inE:     make([]bool, n),
		key:     Key{},
		rng:     rand.New(rand.NewSource(seed)),
	}, nil
}

// initialWeight returns 2^{-k} for the maximum integer k with 2^{-k} < 1/n.
func initialWeight(n int) float64 {
	if n <= 1 {
		return 0.5
	}
	k := int(math.Ceil(math.Log2(float64(n))))
	for math.Exp2(-float64(k)) >= 1/float64(n) {
		k++
	}
	return math.Exp2(-float64(k))
}

// Key returns the current key E_t (a copy).
func (o *OSRK) Key() Key { return o.key.Clone() }

// Succinctness returns |E_t| without copying the key.
func (o *OSRK) Succinctness() int { return len(o.key) }

// Len returns |I_t|, the number of arrivals accepted so far.
func (o *OSRK) Len() int { return o.n }

// Conflicts returns the number of arrivals that no key can exclude (identical
// to x₀ with a different prediction).
func (o *OSRK) Conflicts() int { return o.conflicts }

// Observe processes the arrival of x_t with prediction y_t and returns the
// updated key.
func (o *OSRK) Observe(li feature.Labeled) (Key, error) {
	if _, err := o.ObserveCtx(context.Background(), li); err != nil { //rkvet:ignore ctxflow Observe is the sanctioned never-cancelled specialization; per-arrival maintenance must run to completion to keep the key valid
		return nil, err
	}
	return o.Key(), nil
}

// ObserveCtx is Observe with cooperative cancellation. It returns whether the
// grow loop stopped early, not the key; read that with Key, or its size with
// Succinctness. The loop checks ctx once per augmentation round. OSRK is
// naturally anytime — E_t only ever grows, and the violator list is
// maintained regardless of where growth stops — so expiring mid-grow keeps
// the current coherent candidate and reports degraded=true instead of an
// error. The monitor self-heals: the arrival is already counted and its
// violators are tracked, so the next ObserveCtx resumes growing toward the
// budget exactly where this one stopped.
//
// An arrival predicting y₀ ends at line 2 before the stage timer starts, so
// the osrk_observe histogram and the osrk.observe span cover only arrivals
// that reach line 3.
func (o *OSRK) ObserveCtx(ctx context.Context, li feature.Labeled) (degraded bool, err error) {
	differs, err := o.admit(li)
	if !differs {
		return false, err
	}
	start := time.Now()
	sp := obs.StartSpan(ctx, "osrk.observe")
	degraded = o.grow(ctx.Done(), li.X)
	sp.End()
	osrkObserveSeconds.ObserveSince(start)
	if degraded {
		osrkDegraded.Inc()
	}
	return degraded, nil
}

// Replay feeds the table's rows from index from on, which the caller has
// already validated (feature.Rows.Validate), in order, leaving the monitor
// exactly as ObserveCtx would one at a time under a context that never
// expires: the same key, counts, violators and RNG position. It is the bulk
// path for rebuilding a monitor from a stored stream, so it re-validates
// nothing, reads no clock, and records no span or osrk_observe time. It
// reads each row's label and key codes in place and copies only the rows it
// keeps as violators or grows the key on, so no later write to the table
// reaches the monitor. It appends to grew the index in rows of the arrival
// at which each feature joined the key, one entry per feature, ascending,
// and returns the extended slice.
func (o *OSRK) Replay(rows *feature.Rows, from int, grew []int) []int {
	var scratch feature.Instance
	for i := from; i < rows.Len(); i++ {
		o.n++
		if rows.Label(i) == o.y0 {
			continue // line 2
		}
		o.p++
		var x feature.Instance
		if rows.AgreesOn(i, o.x0, o.key) {
			x = rows.AppendInstance(make(feature.Instance, 0, len(o.x0)), i)
			o.violators = append(o.violators, x)
		}
		before := len(o.key)
		o.seed()
		if len(o.violators) > 0 && len(o.violators) > Budget(o.alpha, o.n) {
			if x == nil {
				scratch = rows.AppendInstance(scratch[:0], i)
				x = scratch
			}
			o.augment(nil, x)
		}
		for k := before; k < len(o.key); k++ {
			grew = append(grew, i)
		}
	}
	return grew
}

// admit validates an arrival and counts it (count). A rejected arrival
// changes nothing.
func (o *OSRK) admit(li feature.Labeled) (bool, error) {
	if err := ValidateLabeled(o.schema, li); err != nil {
		return false, err
	}
	return o.count(li), nil
}

// count adds a valid arrival to |I_t|. For an arrival whose prediction
// differs from x₀'s it also counts p_t and enrolls x_t in V_t when it agrees
// with x₀ on E, then reports true: the caller continues at line 3.
func (o *OSRK) count(li feature.Labeled) bool {
	o.n++
	if li.Y == o.y0 {
		return false // line 2: nothing to do
	}
	o.p++
	if li.X.AgreesOn(o.x0, o.key) {
		o.violators = append(o.violators, li.X)
	}
	return true
}

// grow runs lines 3-15 for an admitted arrival x_t that predicts differently
// from x₀, reporting whether done closed before V_t fit the budget. A nil
// done never closes.
func (o *OSRK) grow(done <-chan struct{}, x feature.Instance) (degraded bool) {
	o.seed()
	return o.augment(done, x)
}

// seed runs lines 3-6: the first differing instance seeds E randomly.
func (o *OSRK) seed() {
	if !o.seeded && len(o.key) == 0 {
		o.seeded = true
		for i := range o.weights {
			if o.rng.Float64() < o.weights[i] {
				o.addFeature(i)
			}
		}
	}
}

// augment runs lines 7-15 for x_t: it grows E until V_t fits the budget,
// reading x_t only while it does not, and reports whether done closed first.
func (o *OSRK) augment(done <-chan struct{}, x feature.Instance) (degraded bool) {
	budget := Budget(o.alpha, o.n)
	// Lines 8-15: grow E until the violators fit the budget.
	for len(o.violators) > budget {
		select {
		case <-done:
			return true
		default:
		}
		st := o.differingOutsideE(x)
		if len(st) == 0 {
			// x_t (or an earlier twin) is an inherent conflict; no feature
			// can help, tolerate it and stop.
			o.conflicts++
			break
		}
		mu := 0.0
		for _, i := range st {
			mu += o.weights[i]
		}
		if mu > math.Log(float64(o.p)) {
			// Line 11: deterministic pick, then done with this arrival.
			o.addFeature(st[0])
			break
		}
		// Lines 12-15: weight augmentation. Weights double until they reach
		// 1, at which point the probabilistic add becomes certain, so the
		// loop terminates after at most O(log n) rounds.
		for _, i := range st {
			if o.weights[i] < 1 {
				o.weights[i] *= 2
			}
			if o.rng.Float64() < o.weights[i] {
				o.addFeature(i)
			}
		}
	}
	return false
}

// differingOutsideE returns S_t = {i ∉ E | x_t[A_i] ≠ x₀[A_i]}.
func (o *OSRK) differingOutsideE(x feature.Instance) []int {
	var st []int
	for i := range x {
		if !o.inE[i] && x[i] != o.x0[i] {
			st = append(st, i)
		}
	}
	return st
}

// addFeature extends E with feature i and filters the violator list.
func (o *OSRK) addFeature(i int) {
	if o.inE[i] {
		return
	}
	o.inE[i] = true
	o.key = o.key.With(i)
	kept := o.violators[:0]
	for _, r := range o.violators {
		if r[i] == o.x0[i] {
			kept = append(kept, r)
		}
	}
	clear(o.violators[len(kept):]) // drop references to excluded rows
	o.violators = kept
}

// OSRKFixedProb is the ablation variant that never augments weights: every
// differing feature is added with the fixed initial probability, retrying
// until the budget is met (falling back to a deterministic pick when sampling
// stalls). It keeps coherence and α-conformity but loses the competitive
// bound of Theorem 5.
type OSRKFixedProb struct {
	inner *OSRK
}

// NewOSRKFixedProb builds the ablation monitor.
func NewOSRKFixedProb(schema *feature.Schema, x0 feature.Instance, y0 feature.Label, alpha float64, seed int64) (*OSRKFixedProb, error) {
	o, err := NewOSRK(schema, x0, y0, alpha, seed)
	if err != nil {
		return nil, err
	}
	return &OSRKFixedProb{inner: o}, nil
}

// Key returns the current key.
func (a *OSRKFixedProb) Key() Key { return a.inner.Key() }

// Observe processes one arrival with fixed-probability sampling.
func (a *OSRKFixedProb) Observe(li feature.Labeled) (Key, error) {
	o := a.inner
	differs, err := o.admit(li)
	if err != nil {
		return nil, err
	}
	if !differs {
		return o.Key(), nil
	}
	budget := Budget(o.alpha, o.n)
	w := initialWeight(len(o.weights))
	for tries := 0; len(o.violators) > budget; tries++ {
		st := o.differingOutsideE(li.X)
		if len(st) == 0 {
			o.conflicts++
			break
		}
		if tries >= 64 {
			o.addFeature(st[0])
			continue
		}
		for _, i := range st {
			if o.rng.Float64() < w {
				o.addFeature(i)
			}
		}
	}
	return o.Key(), nil
}
