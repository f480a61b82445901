package bitset

import (
	"sort"
	"testing"
)

// fuzzCap crosses two word boundaries so off-by-one bugs at bit 63/64 and at
// the ragged final word are reachable.
const fuzzCap = 130

// model is the naive reference: a set of ints as map keys.
type model map[int]bool

func (m model) slice() []int {
	out := make([]int, 0, len(m))
	for i := range m {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// FuzzSetOps drives two Sets and two naive map models through the same
// operation sequence decoded from the input bytes, then checks that every
// query — Count, Contains, Slice, Equal, AndCard, AndNotCard — agrees with
// the model. The Grow op truncates a and grows it back, through both a
// shrinking CopyFrom (stale words past the length that Grow must zero) and a
// freshly sized set (a reallocating Grow that must keep every bit). The
// posting lists of core.Context are these Sets; a divergence here is a wrong
// key downstream.
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 63, 0, 64, 2, 129, 4, 0, 6, 0})
	f.Add([]byte{0, 0, 2, 0, 5, 0, 8, 0, 9, 0, 7, 0})
	f.Add([]byte{0, 5, 0, 100, 10, 3, 0, 100, 0, 129, 10, 70, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := New(fuzzCap), New(fuzzCap)
		ma, mb := model{}, model{}
		for i := 0; i+1 < len(data); i += 2 {
			op, idx := data[i]%11, int(data[i+1])%fuzzCap
			switch op {
			case 0:
				a.Add(idx)
				ma[idx] = true
			case 1:
				a.Remove(idx)
				delete(ma, idx)
			case 2:
				b.Add(idx)
				mb[idx] = true
			case 3:
				b.Remove(idx)
				delete(mb, idx)
			case 4:
				a.And(b)
				for k := range ma {
					if !mb[k] {
						delete(ma, k)
					}
				}
			case 5:
				a.Or(b)
				for k := range mb {
					ma[k] = true
				}
			case 6:
				a.AndNot(b)
				for k := range mb {
					delete(ma, k)
				}
			case 7:
				a.Clear()
				ma = model{}
			case 8:
				a.CopyFrom(b)
				ma = model{}
				for k := range mb {
					ma[k] = true
				}
			case 9:
				c := a.Clone()
				if !c.Equal(a) {
					t.Fatal("Clone not Equal to source")
				}
				c.Add(idx)
				if !a.Contains(idx) && a.Equal(c) {
					t.Fatal("Clone shares storage with source")
				}
			case 10:
				short := New(idx)
				for k := range ma {
					if k < idx {
						short.Add(k)
					} else {
						delete(ma, k)
					}
				}
				if idx%2 == 0 {
					a.CopyFrom(short)
				} else {
					a = short
				}
				a.Grow(fuzzCap)
			}
		}
		checkAgainstModel(t, "a", a, ma)
		checkAgainstModel(t, "b", b, mb)

		// Cardinality fast paths must agree with the materialized operations.
		inter := 0
		for k := range ma {
			if mb[k] {
				inter++
			}
		}
		if got := a.AndCard(b); got != inter {
			t.Fatalf("AndCard = %d, model %d", got, inter)
		}
		if got := a.AndNotCard(b); got != len(ma)-inter {
			t.Fatalf("AndNotCard = %d, model %d", got, len(ma)-inter)
		}
	})
}

func checkAgainstModel(t *testing.T, name string, s *Set, m model) {
	t.Helper()
	if s.Count() != len(m) {
		t.Fatalf("%s: Count = %d, model %d", name, s.Count(), len(m))
	}
	want := m.slice()
	got := s.Slice()
	if len(got) != len(want) {
		t.Fatalf("%s: Slice = %v, model %v", name, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: Slice = %v, model %v", name, got, want)
		}
	}
	for i := 0; i < fuzzCap; i++ {
		if s.Contains(i) != m[i] {
			t.Fatalf("%s: Contains(%d) = %v, model %v", name, i, s.Contains(i), m[i])
		}
	}
}

// FuzzStripedCard asserts the striped-kernel invariant the striped counters
// (core.ViolationsPar, CoveragePar) rest on: for arbitrary set contents, set
// sizes, and stripe boundaries, applying AndRange / AndNotRange over a
// partition of [0, NumWords()) and summing CountRange over it equals the
// whole-set AndCard / AndNotCard / Count. The boundaries fuzzed here are raw
// word indices, including out-of-range and inverted ones (clamped by
// contract) — off-by-one at a stripe edge double- or under-counts one word
// and is exactly the bug class this target hunts.
//
// Input encoding: byte0 picks the capacity (1..256 bits, covering sub-word,
// word-exact, and multi-word ragged sets), byte1 the number of cut points;
// the next cutN bytes are cut positions; remaining bytes toggle alternating
// membership in the two sets.
func FuzzStripedCard(f *testing.F) {
	f.Add([]byte{130, 2, 1, 1, 0, 63, 64, 65, 128})
	f.Add([]byte{64, 1, 200, 0, 1, 2, 3})
	f.Add([]byte{1, 3, 0, 0, 0, 0})
	f.Add([]byte{255, 4, 1, 2, 3, 4, 10, 20, 30, 254})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		capBits := int(data[0]) + 1
		a, b := New(capBits), New(capBits)
		cutN := int(data[1]) % 8
		if len(data) < 2+cutN {
			return
		}
		cuts := make([]int, 0, cutN+2)
		for _, c := range data[2 : 2+cutN] {
			// Deliberately unclamped: int(c)-64 ranges below 0 and past
			// NumWords to exercise the clamping contract.
			cuts = append(cuts, int(c)-64)
		}
		for i, v := range data[2+cutN:] {
			idx := int(v) % capBits
			if i%2 == 0 {
				a.Add(idx)
			} else {
				b.Add(idx)
			}
		}
		words := a.NumWords()
		sort.Ints(cuts)
		bounds := append(append([]int{0}, cuts...), words)

		and, not := a.Clone(), a.Clone()
		sumAnd, sumNot, sumCnt := 0, 0, 0
		for i := 0; i+1 < len(bounds); i++ {
			lo, hi := bounds[i], bounds[i+1]
			and.AndRange(b, lo, hi)
			not.AndNotRange(b, lo, hi)
			sumAnd += and.CountRange(lo, hi)
			sumNot += not.CountRange(lo, hi)
			sumCnt += a.CountRange(lo, hi)
		}
		// The sorted cut list starts at 0 and ends at NumWords, but interior
		// cuts may lie outside [0, words]; clamping maps them to the ends, so
		// the clipped segments still tile [0, words) exactly once.
		if got := a.AndCard(b); sumAnd != got {
			t.Fatalf("striped AndCard sum = %d, whole-set %d (cap %d, cuts %v)", sumAnd, got, capBits, bounds)
		}
		if got := a.AndNotCard(b); sumNot != got {
			t.Fatalf("striped AndNotCard sum = %d, whole-set %d (cap %d, cuts %v)", sumNot, got, capBits, bounds)
		}
		if got := a.Count(); sumCnt != got {
			t.Fatalf("striped Count sum = %d, whole-set %d (cap %d, cuts %v)", sumCnt, got, capBits, bounds)
		}
	})
}
