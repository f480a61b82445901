package core

import (
	"sync"

	"github.com/xai-db/relativekeys/internal/bitset"
	"github.com/xai-db/relativekeys/internal/feature"
)

// Striped counting: ViolationsPar, CoveragePar and PrecisionPar split the row
// dimension of a Context into word-aligned stripes and count them on
// concurrent goroutines. Each stripe's count is an exact integer, so the
// total equals the sequential count on every input (asserted by
// TestDifferentialCountersParallel). The SRK solve itself is sequential
// (sparse.go): these are library entry points, not the /explain path, which
// counts with the fused ViolationsCoverage pass.

// MinParallelRows is the context size below which the striped counters fall
// back to the sequential path: under it a count takes a few microseconds and
// the goroutine fan-out would cost more than it saves. It is read once at the
// start of each call; change it only at init/test setup.
var MinParallelRows = 16384

// solverWorkers resolves the effective worker count for a striped count:
// par ≤ 1 or a context under the row threshold means sequential.
func solverWorkers(par, rows int) int {
	if par <= 1 || rows < MinParallelRows {
		return 1
	}
	return par
}

// stripeBounds returns the word range [lo, hi) of stripe s out of `stripes`
// equal partitions of `words` words. Bounds are word indices (so stripes are
// word-aligned by construction) and tile [0, words) exactly; when words <
// stripes the tail stripes are empty, which the range kernels treat as
// zero-contribution.
//
//rkvet:noalloc
func stripeBounds(words, stripes, s int) (int, int) {
	return s * words / stripes, (s + 1) * words / stripes
}

// ViolationsPar is Violations as a parallel partial reduction: each stripe
// worker narrows its word range of a shared pooled scratch through the
// posting lists of E and popcounts it; the stripe sums are exact integers, so
// the total equals the sequential count on every input. par ≤ 1 or a small
// context takes the sequential path unchanged.
func ViolationsPar(c *Context, x feature.Instance, y feature.Label, E Key, par int) int {
	workers := solverWorkers(par, c.Len())
	if workers <= 1 {
		return Violations(c, x, y, E)
	}
	d := getScratch()
	defer putScratch(d)
	d.CopyFrom(c.live)
	label := (*bitset.Set)(nil)
	if y >= 0 && int(y) < len(c.byLabel) {
		label = c.byLabel[y]
	}
	return stripedMaskCount(c, x, E, d, label, workers)
}

// CoveragePar is Coverage as the same striped reduction over the label's
// posting list instead of the disagreeing complement.
func CoveragePar(c *Context, x feature.Instance, y feature.Label, E Key, par int) int {
	workers := solverWorkers(par, c.Len())
	if workers <= 1 {
		return Coverage(c, x, y, E)
	}
	if c.Len() == 0 {
		return 0
	}
	d := getScratch()
	defer putScratch(d)
	d.CopyFrom(c.LabelSet(y))
	return stripedMaskCount(c, x, E, d, nil, workers)
}

// PrecisionPar is Precision computed with ViolationsPar.
func PrecisionPar(c *Context, x feature.Instance, y feature.Label, E Key, par int) float64 {
	return PrecisionOf(ViolationsPar(c, x, y, E, par), c.Len())
}

// stripedMaskCount intersects d (already loaded with the base mask) with
// `not` complemented (when non-nil) and every posting list of E, striped
// across workers over disjoint word ranges of the shared scratch, and returns
// the total popcount. Workers are joined before the count is summed, so d is
// quiescent when the caller returns it to the pool.
func stripedMaskCount(c *Context, x feature.Instance, E Key, d, not *bitset.Set, workers int) int {
	words := d.NumWords()
	partial := make([]int, workers)
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		lo, hi := stripeBounds(words, workers, s)
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			if not != nil {
				d.AndNotRange(not, lo, hi)
			}
			for _, f := range E {
				d.AndRange(c.Posting(f, x[f]), lo, hi)
			}
			partial[s] = d.CountRange(lo, hi)
		}(s, lo, hi)
	}
	wg.Wait()
	total := 0
	for _, p := range partial {
		total += p
	}
	return total
}
