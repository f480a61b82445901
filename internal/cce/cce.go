// Package cce implements the client-centric explanation framework of §6: the
// batch mode (SRK over a complete inference context), the online mode (OSRK
// over a stream), the static-feature mode (SSRK over a known universe), the
// sliding-window mechanism with resolution policies for dynamic models
// (Appendix B, Exp-4), and the drift monitor of §7.4. CCE never queries the
// model: it consumes only (instance, prediction) pairs observed at the
// client during model serving.
package cce

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"fmt"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/explain"
	"github.com/xai-db/relativekeys/internal/feature"
)

// Batch is CCE's batch mode: the complete inference context is available.
// Explains solve on the served SRK engine (DESIGN.md §11), byte-identical to
// the eager reference but scanning only the survivors' nonzero words after
// the first pick. Each solve is sequential; ExplainAll fans requests out.
type Batch struct {
	Ctx   *core.Context
	Alpha float64
}

// NewBatch indexes the inference set as the explanation context.
func NewBatch(schema *feature.Schema, inference []feature.Labeled, alpha float64) (*Batch, error) {
	if err := core.ValidateAlpha(alpha); err != nil {
		return nil, err
	}
	ctx, err := core.NewContext(schema, inference)
	if err != nil {
		return nil, err
	}
	return &Batch{Ctx: ctx, Alpha: alpha}, nil
}

// Explain computes the α-conformant relative key for an instance whose
// prediction is known client-side.
func (b *Batch) Explain(x feature.Instance, y feature.Label) (core.Key, error) {
	return core.SRKPar(b.Ctx, x, y, b.Alpha, 1)
}

// ExplainCtx is Explain under a deadline: the solve is cancellable, and an
// expired context degrades to a valid-but-less-succinct key (degraded=true)
// instead of erroring — the deployment contract of a client-side service that
// must answer every query within its latency budget.
func (b *Batch) ExplainCtx(ctx context.Context, x feature.Instance, y feature.Label) (core.Key, bool, error) {
	return core.SRKAnytimePar(ctx, b.Ctx, x, y, b.Alpha, 1)
}

// ExplainAll explains many instances concurrently across workers goroutines
// (0 means GOMAXPROCS). The context is read-only during batch explanation, so
// SRK runs are embarrassingly parallel. Instances whose conflicts exceed the
// α budget get a nil key rather than failing the batch; other errors abort.
func (b *Batch) ExplainAll(items []feature.Labeled, workers int) ([]core.Key, error) {
	keys, _, err := b.ExplainAllCtx(context.Background(), items, workers) //rkvet:ignore ctxflow ExplainAll is the sanctioned never-cancelled specialization of the batch explainer
	return keys, err
}

// ExplainAllCtx is ExplainAll under a deadline shared by the whole batch.
// Every item still gets a valid key: once the deadline passes, the remaining
// solves take the cheap anytime completion path, so the batch finishes within
// roughly one extra greedy round per item instead of hanging. The second
// return is the number of degraded keys.
func (b *Batch) ExplainAllCtx(ctx context.Context, items []feature.Labeled, workers int) ([]core.Key, int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	keys := make([]core.Key, len(items))
	errs := make([]error, len(items))
	var next, numDegraded atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				key, degraded, err := b.ExplainCtx(ctx, items[i].X, items[i].Y)
				if degraded {
					numDegraded.Add(1)
				}
				if err == core.ErrNoKey {
					continue // keys[i] stays nil
				}
				keys[i], errs[i] = key, err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, int(numDegraded.Load()), err
		}
	}
	return keys, int(numDegraded.Load()), nil
}

// ExplainRow explains the i-th context instance.
func (b *Batch) ExplainRow(i int) (core.Key, error) {
	if i < 0 || i >= b.Ctx.Len() {
		return nil, fmt.Errorf("cce: row %d out of range [0,%d)", i, b.Ctx.Len())
	}
	li := b.Ctx.Item(i)
	return b.Explain(li.X, li.Y)
}

// batchExplainer adapts Batch to the explain.Explainer interface using a
// prediction lookup (predictions are known during serving; CCE never calls
// the model).
type batchExplainer struct {
	b      *Batch
	lookup func(feature.Instance) (feature.Label, error)
}

// Explainer wraps the batch mode as an explain.Explainer. lookup supplies
// the already-observed prediction of an instance (e.g. from the inference
// log); it is not a model query.
func (b *Batch) Explainer(lookup func(feature.Instance) (feature.Label, error)) explain.Explainer {
	return &batchExplainer{b: b, lookup: lookup}
}

func (e *batchExplainer) Name() string { return "CCE" }

func (e *batchExplainer) Explain(x feature.Instance) (explain.Explanation, error) {
	y, err := e.lookup(x)
	if err != nil {
		return explain.Explanation{}, err
	}
	key, err := e.b.Explain(x, y)
	if err != nil {
		return explain.Explanation{}, err
	}
	return explain.Explanation{Features: key}, nil
}

// ContextLookup returns a lookup that resolves predictions from the batch
// context itself (the common case: explained instances are inference
// instances). Lookups are backed by a hash map keyed on the encoded
// instance — O(attrs) per call instead of a linear context scan, which made
// explainer-driven batch runs O(n²). The map is extended lazily when the
// context has grown since the last call; like the scan it replaces, the
// first occurrence of an instance wins.
func (b *Batch) ContextLookup() func(feature.Instance) (feature.Label, error) {
	var (
		mu      sync.Mutex
		index   = make(map[string]feature.Label, b.Ctx.Len())
		indexed int
	)
	return func(x feature.Instance) (feature.Label, error) {
		mu.Lock()
		defer mu.Unlock()
		for ; indexed < b.Ctx.NumSlots(); indexed++ {
			li := b.Ctx.Item(indexed)
			k := encodeInstance(li.X)
			if _, ok := index[k]; !ok {
				index[k] = li.Y
			}
		}
		if y, ok := index[encodeInstance(x)]; ok {
			return y, nil
		}
		return 0, fmt.Errorf("cce: instance not found in the inference context")
	}
}

// encodeInstance renders an instance as a map key.
func encodeInstance(x feature.Instance) string {
	var b strings.Builder
	for _, v := range x {
		fmt.Fprintf(&b, "%d,", v)
	}
	return b.String()
}

// Online is CCE's online mode: monitor the relative key of one target
// instance as inference instances stream in (algorithm OSRK).
type Online = core.OSRK

// NewOnline starts online monitoring of x0 (predicted y0) at bound α.
func NewOnline(schema *feature.Schema, x0 feature.Instance, y0 feature.Label, alpha float64, seed int64) (*Online, error) {
	return core.NewOSRK(schema, x0, y0, alpha, seed)
}

// Static is CCE's static-feature mode (algorithm SSRK): the universe of
// instances and predictions is known offline, only the arrival order is
// online.
type Static = core.SSRK

// NewStatic starts deterministic monitoring over a known universe.
func NewStatic(schema *feature.Schema, universe []feature.Labeled, x0 feature.Instance, y0 feature.Label, alpha float64) (*Static, error) {
	return core.NewSSRK(schema, universe, x0, y0, alpha)
}
