package benchsuite

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/feature"
)

// The srk_par grid (DESIGN.md §11): one SRKPar solve over a large synthetic
// context per worker count. The engine ignores the count since the striped
// scorer was retired, so every p of one n measures the same sequential solve;
// the rows keep their names so baselines stay comparable, and any spread
// between them is noise.

// parallelNs and parallelPs are the benchmark grid.
var (
	parallelNs = []int{10_000, 100_000}
	parallelPs = []int{1, 2, 4, 8}
)

// parallelCases returns the grid as suite cases.
func parallelCases() []Case {
	var cs []Case
	for _, n := range parallelNs {
		for _, p := range parallelPs {
			cs = append(cs, Case{
				Name: fmt.Sprintf("core/srk_par/n=%d/p=%d", n, p),
				Fn:   benchSRKParallel(n, p),
			})
		}
	}
	return cs
}

// synthData is a cached synthetic benchmark context; contexts are read-only
// during solves, so one build serves every worker count.
type synthData struct {
	ctx  *core.Context
	rows []feature.Labeled
}

var (
	synthMu    sync.Mutex
	synthCache = map[int]synthData{} // guarded by synthMu
)

// syntheticContext builds (once per size, then caches) an n-row context over
// 32 four-valued attributes whose label is a three-attribute XOR with 5%
// noise: no single feature is decisive, so an α=1 greedy solve runs
// ~log₄(n/2) candidate-scan rounds before the survivor set empties.
func syntheticContext(b *testing.B, n int) synthData {
	b.Helper()
	synthMu.Lock()
	defer synthMu.Unlock()
	if d, ok := synthCache[n]; ok {
		return d
	}
	attrs := make([]feature.Attribute, 32)
	for a := range attrs {
		attrs[a] = feature.Attribute{
			Name:   fmt.Sprintf("f%02d", a),
			Values: []string{"v0", "v1", "v2", "v3"},
		}
	}
	schema := feature.MustSchema(attrs, []string{"neg", "pos"})
	rng := rand.New(rand.NewSource(int64(n)))
	rows := make([]feature.Labeled, n)
	for i := range rows {
		x := make(feature.Instance, len(attrs))
		for a := range x {
			x[a] = feature.Value(rng.Intn(4))
		}
		y := feature.Label(0)
		if (x[0] >= 2) != (x[1] >= 2) != (x[2] >= 2) {
			y = 1
		}
		if rng.Intn(20) == 0 {
			y = 1 - y
		}
		rows[i] = feature.Labeled{X: x, Y: y}
	}
	ctx, err := core.NewContext(schema, rows)
	if err != nil {
		b.Fatal(err)
	}
	d := synthData{ctx: ctx, rows: rows[:256]}
	synthCache[n] = d
	return d
}

// benchSRKParallel measures one full explain at the given context size and
// (ignored) worker count, cycling through 256 query rows.
func benchSRKParallel(n, par int) func(b *testing.B) {
	return func(b *testing.B) {
		d := syntheticContext(b, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			li := d.rows[i%len(d.rows)]
			if _, err := core.SRKPar(d.ctx, li.X, li.Y, 1.0, par); err != nil && err != core.ErrNoKey {
				b.Fatal(err)
			}
		}
	}
}
