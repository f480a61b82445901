package benchsuite

import (
	"fmt"
	"testing"
)

// BenchmarkSRKParallel is the go-test entry to the §11 srk_par grid:
//
//	go test -run=NONE -bench SRKParallel -benchmem ./internal/benchsuite/
//
// The same cases run under `make bench-json` via Cases(); this entry exists
// for interactive comparison with benchstat.
func BenchmarkSRKParallel(b *testing.B) {
	for _, n := range parallelNs {
		for _, p := range parallelPs {
			b.Run(fmt.Sprintf("n=%d/p=%d", n, p), benchSRKParallel(n, p))
		}
	}
}
