package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddContainsRemove(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Contains(i) {
			t.Fatalf("fresh set contains %d", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("Add(%d) not visible", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("Remove(64) not visible")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count after remove = %d, want 7", got)
	}
	// Every kernel scans NumWords() = ⌈n/64⌉ words: none past a ragged
	// final word, one more at each crossing of bit 63/64.
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129, 300} {
		if got, want := New(n).NumWords(), (n+63)/64; got != want {
			t.Fatalf("New(%d): NumWords=%d want %d", n, got, want)
		}
	}
}

func TestContainsOutOfRange(t *testing.T) {
	s := New(10)
	if s.Contains(-1) || s.Contains(10) || s.Contains(1000) {
		t.Fatal("Contains must be false out of range")
	}
}

func TestGrowPreserves(t *testing.T) {
	s := New(5)
	s.Add(3)
	s.Grow(200)
	if !s.Contains(3) || s.Len() != 200 {
		t.Fatalf("grow lost contents: contains=%v len=%d", s.Contains(3), s.Len())
	}
	s.Add(199)
	if !s.Contains(199) {
		t.Fatal("cannot add after grow")
	}
	s.Grow(10) // shrink request is a no-op
	if s.Len() != 200 {
		t.Fatal("Grow must never shrink")
	}
}

// TestGrowAmortizes: a set grown one word at a time reallocates
// geometrically, not on every step, and its kernels scan only the words it
// has exposed, never the spare capacity.
func TestGrowAmortizes(t *testing.T) {
	const words = 1000
	var s Set
	reallocs := 0
	for w := 1; w <= words; w++ {
		before := cap(s.words)
		s.Grow(64 * w)
		if cap(s.words) != before {
			reallocs++
		}
		if s.NumWords() != w || s.Len() != 64*w {
			t.Fatalf("after Grow(%d): NumWords=%d Len=%d, want %d words", 64*w, s.NumWords(), s.Len(), w)
		}
		s.Add(64*(w-1) + w%64)
	}
	if reallocs > 32 {
		t.Fatalf("growing to %d words one word at a time reallocated %d times, want O(log n)", words, reallocs)
	}
	// Every bit survived every reallocation.
	if s.Count() != words {
		t.Fatalf("Count = %d after growth, want %d", s.Count(), words)
	}
	for w := 1; w <= words; w++ {
		if !s.Contains(64*(w-1) + w%64) {
			t.Fatalf("bit of word %d lost across reallocations", w-1)
		}
	}
}

// TestFromWords: a set over caller-filled words holds exactly their bits,
// a zero-length set over a reserve starts empty and grows within the
// reserve without reallocating, and words of the wrong length are refused.
func TestFromWords(t *testing.T) {
	s := FromWords(make([]uint64, 0, 1<<10), 0)
	if s.Len() != 0 || s.NumWords() != 0 || s.Count() != 0 {
		t.Fatalf("FromWords over a reserve: Len=%d NumWords=%d Count=%d, want an empty 0-word set", s.Len(), s.NumWords(), s.Count())
	}
	backing := cap(s.words)
	s.Grow(1000)
	s.Add(999)
	if s.NumWords() != 16 || cap(s.words) != backing || !s.Contains(999) {
		t.Fatalf("Grow(1000) in a 2^16-bit reserve: NumWords=%d cap %d→%d", s.NumWords(), backing, cap(s.words))
	}

	f := FromWords([]uint64{1<<3 | 1<<63, 1 << 1}, 66)
	if got := f.Slice(); len(got) != 3 || got[0] != 3 || got[1] != 63 || got[2] != 65 || f.Len() != 66 {
		t.Fatalf("FromWords = %v (Len %d), want [3 63 65] (Len 66)", got, f.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromWords accepted 2 words for 200 bits")
		}
	}()
	FromWords(make([]uint64, 2), 200)
}

func TestSetOps(t *testing.T) {
	a, b := New(100), New(100)
	for i := 0; i < 100; i += 2 {
		a.Add(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Add(i)
	}
	// |a ∩ b| = multiples of 6 in [0,100) = 17
	if got := a.AndCard(b); got != 17 {
		t.Fatalf("AndCard = %d, want 17", got)
	}
	if got := a.AndNotCard(b); got != 50-17 {
		t.Fatalf("AndNotCard = %d, want 33", got)
	}
	c := a.Clone()
	c.And(b)
	if c.Count() != 17 {
		t.Fatalf("And count = %d, want 17", c.Count())
	}
	d := a.Clone()
	d.AndNot(b)
	if d.Count() != 33 {
		t.Fatalf("AndNot count = %d, want 33", d.Count())
	}
	e := a.Clone()
	e.Or(b)
	if e.Count() != 50+34-17 {
		t.Fatalf("Or count = %d, want 67", e.Count())
	}
}

func TestForEachOrderAndStop(t *testing.T) {
	s := New(300)
	want := []int{2, 64, 65, 190, 299}
	for _, i := range want {
		s.Add(i)
	}
	got := s.Slice()
	if len(got) != len(want) {
		t.Fatalf("Slice = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v, want %v", got, want)
		}
	}
	var seen int
	s.ForEach(func(i int) bool { seen++; return seen < 2 })
	if seen != 2 {
		t.Fatalf("ForEach early stop visited %d, want 2", seen)
	}
}

func TestClearAndEqual(t *testing.T) {
	a := New(70)
	a.Add(3)
	a.Add(69)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Clear()
	if b.Count() != 0 || a.Equal(b) {
		t.Fatal("Clear failed")
	}
	if a.Equal(New(71)) {
		t.Fatal("different capacity must not be equal")
	}
}

func TestCopyFrom(t *testing.T) {
	src := New(300)
	for _, i := range []int{0, 64, 128, 299} {
		src.Add(i)
	}
	// Into an empty zero-value set (the pool's starting state).
	var dst Set
	dst.CopyFrom(src)
	if !dst.Equal(src) {
		t.Fatal("CopyFrom into zero-value set not equal")
	}
	// Mutating the copy must not touch the source.
	dst.Remove(64)
	if !src.Contains(64) {
		t.Fatal("CopyFrom aliased the source words")
	}
	// Into a larger set: capacity must shrink to match and stale bits must
	// not survive (pool reuse across contexts of different sizes).
	big := New(5000)
	for i := 0; i < 5000; i += 7 {
		big.Add(i)
	}
	big.CopyFrom(src)
	if !big.Equal(src) {
		t.Fatal("CopyFrom into larger set left stale state")
	}
	// The truncated words stay in big's backing array; growing it back
	// must expose them as zero words, never as its old members.
	big.Grow(5000)
	if big.NumWords() != 79 || big.Count() != src.Count() {
		t.Fatalf("Grow after a shrinking CopyFrom: NumWords=%d Count=%d, want 79 words holding %v", big.NumWords(), big.Count(), src.Slice())
	}
	// Into a smaller set: storage regrows.
	small := New(1)
	small.CopyFrom(src)
	if !small.Equal(src) {
		t.Fatal("CopyFrom into smaller set not equal")
	}
}

// Property: set operations agree with map-based reference implementation.
func TestQuickOpsAgainstReference(t *testing.T) {
	f := func(adds, dels []uint16) bool {
		const n = 1 << 16
		s := New(n)
		ref := map[int]bool{}
		for _, a := range adds {
			s.Add(int(a))
			ref[int(a)] = true
		}
		for _, d := range dels {
			s.Remove(int(d))
			delete(ref, int(d))
		}
		if s.Count() != len(ref) {
			return false
		}
		for k := range ref {
			if !s.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCardinalities(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(500)
		a, b := New(n), New(n)
		ra, rb := map[int]bool{}, map[int]bool{}
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Add(i)
				ra[i] = true
			}
			if rng.Intn(3) == 0 {
				b.Add(i)
				rb[i] = true
			}
		}
		wantAnd, wantDiff := 0, 0
		for k := range ra {
			if rb[k] {
				wantAnd++
			} else {
				wantDiff++
			}
		}
		if a.AndCard(b) != wantAnd || a.AndNotCard(b) != wantDiff {
			t.Fatalf("trial %d: AndCard=%d want %d, AndNotCard=%d want %d",
				trial, a.AndCard(b), wantAnd, a.AndNotCard(b), wantDiff)
		}
	}
}
