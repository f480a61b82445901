package core

import (
	"fmt"
	"time"

	"github.com/xai-db/relativekeys/internal/feature"
)

// exactMaxFeatures caps the schema width the exact solver accepts, keeping
// runaway inputs out of a search that is exponential in it.
const exactMaxFeatures = 20

// ExactMinKey computes a most-succinct α-conformant key for x relative to c
// by iterative-deepening search over feature subsets. MRKP is NP-complete
// (Theorem 1), so this is exponential in the worst case; it exists to
// validate SRK's ln(α|I|) bound on small inputs and to solve tiny instances
// exactly. It is an offline oracle, not a serving path: the search always
// runs to completion, and schemas wider than 20 features are rejected.
func ExactMinKey(c *Context, x feature.Instance, y feature.Label, alpha float64) (Key, error) {
	start := time.Now()
	key, err := exactMinKey(c, x, y, alpha)
	exactDFSSeconds.ObserveSince(start)
	if err == ErrNoKey {
		solverNoKey.Inc()
	}
	return key, err
}

// exactMinKey is the uninstrumented search; ExactMinKey wraps it with the
// stage timer.
func exactMinKey(c *Context, x feature.Instance, y feature.Label, alpha float64) (Key, error) {
	if err := ValidateAlpha(alpha); err != nil {
		return nil, err
	}
	if err := c.Schema.Validate(x); err != nil {
		return nil, err
	}
	n := c.Schema.NumFeatures()
	if n > exactMaxFeatures {
		return nil, fmt.Errorf("core: exact solver limited to %d features, schema has %d", exactMaxFeatures, n)
	}
	budget := Budget(alpha, c.Len())

	// Precompute, per feature, the violator rows surviving that feature, as
	// row index lists; subsets are then checked by intersecting counts.
	violators := violatorRows(c, x, y)
	if len(violators) <= budget {
		return Key{}, nil
	}
	// survives[a][r] = true iff violator r agrees with x on feature a.
	survives := make([][]bool, n)
	for a := 0; a < n; a++ {
		survives[a] = make([]bool, len(violators))
		for r, i := range violators {
			survives[a][r] = c.Item(i).X[a] == x[a]
		}
	}
	all := make([]int, len(violators))
	for r := range all {
		all[r] = r
	}

	choice := make([]int, 0, n)
	var found Key
	var dfs func(start, size int, alive []int) bool
	dfs = func(start, size int, alive []int) bool {
		if len(alive) <= budget {
			found = NewKey(choice...)
			return true
		}
		if size == 0 {
			return false
		}
		// Not enough features left to fill the subset.
		for a := start; a <= n-size; a++ {
			next := make([]int, 0, len(alive))
			for _, r := range alive {
				if survives[a][r] {
					next = append(next, r)
				}
			}
			choice = append(choice, a)
			if dfs(a+1, size-1, next) {
				return true
			}
			choice = choice[:len(choice)-1]
		}
		return false
	}

	for size := 1; size <= n; size++ {
		choice = choice[:0]
		if dfs(0, size, all) {
			return found, nil
		}
	}
	return nil, ErrNoKey
}

func violatorRows(c *Context, x feature.Instance, y feature.Label) []int {
	var rows []int
	for i, li := range c.Items() {
		if li.Y != y {
			rows = append(rows, i)
		}
	}
	return rows
}
