// Package sortedkeys is the approved way to iterate a map when the order of
// the results can reach relative-key construction, posting lists, or
// serialized output: collect the keys, sort them, iterate the slice. Go
// randomizes map iteration order per run on purpose, so any key or artifact
// assembled directly inside `for k := range m` differs between identical
// runs — the determinism rkvet's maporder checker exists to prevent.
package sortedkeys

import (
	"cmp"
	"slices"
)

// Of returns the keys of m in ascending order.
func Of[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m { //rkvet:ignore maporder collecting keys to sort is the sanctioned sink
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
