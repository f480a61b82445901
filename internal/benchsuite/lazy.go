package benchsuite

import (
	"fmt"
	"sync"
	"testing"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/feature"
)

// Served-engine benchmarks (DESIGN.md §11): eager vs the served engine on the
// same solve, over a dataset shaped like the paper's "keys effect" — a few
// dominant features explain most violators, with sharply heterogeneous
// per-feature scores. The core/srk_lazy rows keep the name of the lazy (CELF)
// engine they were written for, whose best case this staircase was; the
// served engine now runs them. Its acceptance bar is core/srk_lazy ≥5×
// faster than core/srk at n=1e5 with byte-identical keys (the identity is
// asserted in core's differential suite; the first benchmark iteration
// re-checks it here as a seatbelt).
//
// The XOR synthetic of the srk_par grid is the other regime: every feature
// equally uninformative and scores clustered, so the survivor set shrinks
// slowly and later rounds scan many words.

var (
	lazyNs = []int{10_000, 100_000}

	// staircaseAlpha keeps the budget at 1% of the rows: ~13 greedy rounds on
	// the geometric block layout below, enough rounds that per-round cost
	// dominates setup in both engines.
	staircaseAlpha = 0.99
)

// lazyCases returns eager/served pairs over the staircase contexts, plus a
// served run of the Loan case for small-context parity with core/srk.
func lazyCases() []Case {
	cs := []Case{{Name: "core/srk_lazy_loan", Fn: benchSRKLazyLoan}}
	for _, n := range lazyNs {
		n := n
		cs = append(cs,
			Case{Name: fmt.Sprintf("core/srk/n=%d", n), Fn: benchStaircase(n, false)},
			Case{Name: fmt.Sprintf("core/srk_lazy/n=%d", n), Fn: benchStaircase(n, true)},
		)
	}
	return cs
}

type staircaseData struct {
	ctx *core.Context
	x   feature.Instance
	y   feature.Label
}

var (
	staircaseMu    sync.Mutex
	staircaseCache = map[int]staircaseData{} // guarded by staircaseMu
)

// staircaseContext builds (once per size, then caches) the keys-effect
// context: 48 binary features, a target instance of all zeros predicted
// "ok", and ~40% of rows violating it in disjoint blocks of geometrically
// decreasing size (ratio 3/4). Block j's rows carry value 1 on feature j
// only, so picking feature j removes exactly block j: per-feature scores are
// disjoint, strictly ordered, and static across rounds — the greedy solve
// picks features 0, 1, 2, … until the survivor count fits the α budget
// (~13 picks at α=0.99).
func staircaseContext(b *testing.B, n int) staircaseData {
	b.Helper()
	staircaseMu.Lock()
	defer staircaseMu.Unlock()
	if d, ok := staircaseCache[n]; ok {
		return d
	}
	const nAttrs = 48
	attrs := make([]feature.Attribute, nAttrs)
	for a := range attrs {
		attrs[a] = feature.Attribute{Name: fmt.Sprintf("f%02d", a), Values: []string{"v0", "v1"}}
	}
	schema := feature.MustSchema(attrs, []string{"ok", "bad"})

	// Geometric block sizes, strictly decreasing so no round ever ties.
	blockSize := n / 10
	var blocks []int
	total := 0
	for len(blocks) < 20 && blockSize >= 2 && total+blockSize < n/2 {
		blocks = append(blocks, blockSize)
		total += blockSize
		next := blockSize * 3 / 4
		if next >= blockSize {
			next = blockSize - 1
		}
		blockSize = next
	}

	rows := make([]feature.Labeled, 0, n)
	for j, sz := range blocks {
		for i := 0; i < sz; i++ {
			x := make(feature.Instance, nAttrs)
			x[j] = 1
			rows = append(rows, feature.Labeled{X: x, Y: 1})
		}
	}
	for len(rows) < n {
		rows = append(rows, feature.Labeled{X: make(feature.Instance, nAttrs), Y: 0})
	}
	ctx, err := core.NewContext(schema, rows)
	if err != nil {
		b.Fatal(err)
	}
	d := staircaseData{ctx: ctx, x: make(feature.Instance, nAttrs), y: 0}
	staircaseCache[n] = d
	return d
}

// benchStaircase measures one full explain of the staircase target, eager or
// served. The first iteration cross-checks the two engines' keys so a silent
// divergence can never produce a flattering number.
func benchStaircase(n int, lazy bool) func(b *testing.B) {
	return func(b *testing.B) {
		d := staircaseContext(b, n)
		eager, err := core.SRK(d.ctx, d.x, d.y, staircaseAlpha)
		if err != nil {
			b.Fatal(err)
		}
		if got, err := core.SRKPar(d.ctx, d.x, d.y, staircaseAlpha, 1); err != nil || !got.Equal(eager) {
			b.Fatalf("served key %v (err %v) differs from eager %v", got, err, eager)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if lazy {
				_, err = core.SRKPar(d.ctx, d.x, d.y, staircaseAlpha, 1)
			} else {
				_, err = core.SRK(d.ctx, d.x, d.y, staircaseAlpha)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchSRKLazyLoan is benchSRK on the served engine: small real-data
// contexts, where it must stay within noise of eager.
func benchSRKLazyLoan(b *testing.B) {
	ctx, inference, _ := loanContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		li := inference[i%len(inference)]
		if _, err := core.SRKPar(ctx, li.X, li.Y, 1.0, 1); err != nil && err != core.ErrNoKey {
			b.Fatal(err)
		}
	}
}
