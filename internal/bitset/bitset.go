// Package bitset provides a dense, growable bit set used as the posting-list
// representation for relative-key computation. The eager SRK loop runs on
// AndCard and the served engine reads Words() directly, so both stay on raw
// words.
//
// Every kernel scans a set's NumWords() = ⌈Len/64⌉ words and nothing past
// them. Grow lengthens a set into the spare capacity of its backing array,
// reallocating geometrically when that runs out, so a set grown a word at a
// time costs amortized O(1) per step and still scans only the words it has
// exposed, never its reserve.
package bitset

import "math/bits"

// Set is a dense bit set over [0, n). The zero value is an empty set of
// length 0; use New for a set of a given length.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set of length n bits.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// FromWords returns a set of length n bits over words, which it takes as its
// storage: bit i is bit i%64 of words[i/64]. words must hold exactly
// ⌈n/64⌉ words with no bit set at or past n. Capacity beyond that is a
// reserve: growing the set into it never reallocates, and the kernels scan
// only NumWords(). It is the bulk builder's constructor: a caller fills the
// words a 64-bit word at a time, then wraps them.
func FromWords(words []uint64, n int) *Set {
	if len(words) != (n+63)/64 {
		panic("bitset: FromWords length does not match the bit count")
	}
	return &Set{words: words, n: n}
}

// Len returns the length of the set in bits: members lie in [0, Len).
func (s *Set) Len() int { return s.n }

// Add sets bit i. It panics if i is out of range, mirroring slice indexing.
func (s *Set) Add(i int) {
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Remove clears bit i.
func (s *Set) Remove(i int) {
	s.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Contains reports whether bit i is set.
//
//rkvet:noalloc
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of set bits.
//
//rkvet:noalloc
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Grow extends the length to at least n bits, preserving contents; the new
// bits are clear. It reuses the backing array's spare capacity and otherwise
// reallocates with append's geometric growth. Words it re-exposes are zeroed:
// a shrinking CopyFrom leaves stale words past the length, inside capacity.
func (s *Set) Grow(n int) {
	if n <= s.n {
		return
	}
	if need := (n + 63) / 64; need > len(s.words) {
		// The append(x, make(...)...) form extends in place when capacity
		// allows and clears the extension either way, without allocating
		// the temporary.
		s.words = append(s.words, make([]uint64, need-len(s.words))...)
	}
	s.n = n
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w, n: s.n}
}

// CopyFrom makes s an exact copy of t, reusing s's word storage when it is
// large enough. It is the allocation-free counterpart of Clone used by the
// scratch-set pool in package core.
func (s *Set) CopyFrom(t *Set) {
	if cap(s.words) < len(t.words) {
		s.words = make([]uint64, len(t.words))
	} else {
		// Words beyond t's length stay in the backing array, unscanned
		// until a Grow re-exposes (and zeroes) them; the retained prefix
		// is overwritten by the copy below.
		s.words = s.words[:len(t.words)]
	}
	copy(s.words, t.words)
	s.n = t.n
}

// Clear removes all elements, keeping the length.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// And replaces s with s ∩ t. t must be at least as long as s.
//
//rkvet:noalloc
func (s *Set) And(t *Set) {
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
}

// AndNot replaces s with s \ t.
//
//rkvet:noalloc
func (s *Set) AndNot(t *Set) {
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
}

// Or replaces s with s ∪ t.
//
//rkvet:noalloc
func (s *Set) Or(t *Set) {
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
}

// AndCard returns |s ∩ t| without modifying either set.
//
//rkvet:noalloc
func (s *Set) AndCard(t *Set) int {
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & t.words[i])
	}
	return c
}

// AndNotCard returns |s \ t| without modifying either set.
//
//rkvet:noalloc
func (s *Set) AndNotCard(t *Set) int {
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w &^ t.words[i])
	}
	return c
}

// NumWords returns ⌈Len/64⌉, the number of 64-bit words every kernel scans.
func (s *Set) NumWords() int { return len(s.words) }

// Words returns the set's NumWords() words: bit i of the set is bit i%64 of
// word i/64. It is the read-only view for multi-set kernels that fuse several
// operations into one pass; callers must not mutate it or hold it across a
// Grow.
func (s *Set) Words() []uint64 { return s.words }

// ForEach calls fn for every set bit in ascending order. Iteration stops if
// fn returns false.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi<<6 + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Slice returns the set members in ascending order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

// Equal reports whether s and t contain exactly the same members.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}
