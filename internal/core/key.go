package core

import (
	"math/bits"
	"sort"
	"strings"

	"github.com/xai-db/relativekeys/internal/feature"
)

// Key is a relative key: a set of feature indices, kept sorted.
type Key []int

// NewKey copies and sorts the given feature indices, dropping duplicates.
func NewKey(feats ...int) Key {
	k := append(Key(nil), feats...)
	sort.Ints(k)
	out := k[:0]
	for i, f := range k {
		if i == 0 || f != k[i-1] {
			out = append(out, f)
		}
	}
	return out
}

// Succinctness returns the number of features in the key (the paper's
// succinct(E) measure).
func (k Key) Succinctness() int { return len(k) }

// Contains reports whether the key includes feature f.
func (k Key) Contains(f int) bool {
	i := sort.SearchInts(k, f)
	return i < len(k) && k[i] == f
}

// With returns a new key extended with f (no-op if already present).
func (k Key) With(f int) Key {
	if k.Contains(f) {
		return k
	}
	out := make(Key, len(k)+1)
	copy(out, k)
	out[len(k)] = f
	sort.Ints(out)
	return out
}

// Clone returns a copy.
func (k Key) Clone() Key { return append(Key(nil), k...) }

// Equal reports set equality (both keys are sorted).
func (k Key) Equal(o Key) bool {
	if len(k) != len(o) {
		return false
	}
	for i := range k {
		if k[i] != o[i] {
			return false
		}
	}
	return true
}

// IsSubset reports whether every feature of k is in o.
func (k Key) IsSubset(o Key) bool {
	for _, f := range k {
		if !o.Contains(f) {
			return false
		}
	}
	return true
}

// Render formats the key with attribute names.
func (k Key) Render(s *feature.Schema) string {
	parts := make([]string, len(k))
	for i, f := range k {
		parts[i] = s.Attrs[f].Name
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// RenderRule formats the key as the rule the paper displays:
// "IF A=a ∧ B=b THEN prediction".
func (k Key) RenderRule(s *feature.Schema, x feature.Instance, y feature.Label) string {
	parts := make([]string, len(k))
	for i, f := range k {
		parts[i] = s.Attrs[f].Name + "=" + s.Attrs[f].Values[x[f]]
	}
	return "IF " + strings.Join(parts, " ∧ ") + " THEN " + s.Labels[y]
}

// Violations counts the instances of c that agree with x on every feature of
// E yet have a prediction different from y — the quantity bounded by
// (1−α)·|I| in Algorithms 1–3. It uses the posting-list index.
func Violations(c *Context, x feature.Instance, y feature.Label, E Key) int {
	if c.Len() == 0 {
		return 0
	}
	d := getDisagreeing(c, y)
	defer putScratch(d)
	for _, f := range E {
		d.And(c.Posting(f, x[f]))
	}
	return d.Count()
}

// ViolationsBrute is the reference O(|I|·|E|) implementation used by tests:
// it rescans the live rows in place instead of using the index.
func ViolationsBrute(c *Context, x feature.Instance, y feature.Label, E Key) int {
	n := 0
	c.live.ForEach(func(i int) bool {
		if c.rows.Label(i) != y && c.rows.AgreesOn(i, x, E) {
			n++
		}
		return true
	})
	return n
}

// IsAlphaKey reports whether E is an α-conformant key of the model for x
// relative to c: the violating instances fit inside the (1−α)·|I| budget.
func IsAlphaKey(c *Context, x feature.Instance, y feature.Label, E Key, alpha float64) bool {
	return Violations(c, x, y, E) <= Budget(alpha, c.Len())
}

// Coverage returns |D(E)|: the number of instances in c that agree with x on
// E and share prediction y (the instances the explanation "covers", used by
// the recall measure of §7.1).
func Coverage(c *Context, x feature.Instance, y feature.Label, E Key) int {
	if c.Len() == 0 {
		return 0
	}
	d := getScratch()
	defer putScratch(d)
	d.CopyFrom(c.LabelSet(y))
	for _, f := range E {
		d.And(c.Posting(f, x[f]))
	}
	return d.Count()
}

// CoveragePar is Coverage; par is ignored, as SRKPar's is.
func CoveragePar(c *Context, x feature.Instance, y feature.Label, E Key, par int) int {
	return Coverage(c, x, y, E)
}

// agreeBlock is the word count of ViolationsCoverage's stack buffer: 4 KiB,
// small enough to stay in L1 while every posting list of the key streams
// through it.
const agreeBlock = 512

// ViolationsCoverage returns Violations and Coverage of E in one sequential
// pass. It builds agree = live ∧ postings(E) a block of words at a time in a
// stack buffer and counts each block twice, whole and under y's label set,
// before moving on, so every input word is read once and nothing is
// allocated. Every live row agreeing with x on E either is predicted y
// (covered) or violates, so violations = |agree| − coverage. y must be a
// label of the context's schema.
//
//rkvet:noalloc
func ViolationsCoverage(c *Context, x feature.Instance, y feature.Label, E Key) (violations, coverage int) {
	live := c.live.Words()
	label := c.byLabel[y].Words()
	var buf [agreeBlock]uint64
	agree := 0
	for lo := 0; lo < len(live); lo += agreeBlock {
		blk := buf[:copy(buf[:], live[lo:])]
		// Reslicing each operand to len(blk) lets the compiler drop the
		// per-word bounds checks in the loops below.
		for _, f := range E {
			post := c.post[f][x[f]].Words()[lo:][:len(blk)]
			for i := range blk {
				blk[i] &= post[i]
			}
		}
		lab := label[lo:][:len(blk)]
		for i, w := range blk {
			agree += bits.OnesCount64(w)
			coverage += bits.OnesCount64(w & lab[i])
		}
	}
	return agree - coverage, coverage
}

// CoveredSet returns the row indices counted by Coverage.
func CoveredSet(c *Context, x feature.Instance, y feature.Label, E Key) []int {
	d := c.LabelSet(y).Clone()
	for _, f := range E {
		d.And(c.Posting(f, x[f]))
	}
	return d.Slice()
}

// Precision returns the maximum α such that E is α-conformant relative to c:
// 1 − violations/|I| (§7.1 measure (b)).
func Precision(c *Context, x feature.Instance, y feature.Label, E Key) float64 {
	return PrecisionOf(Violations(c, x, y, E), c.Len())
}

// PrecisionPar is Precision; par is ignored, as SRKPar's is.
func PrecisionPar(c *Context, x feature.Instance, y feature.Label, E Key, par int) float64 {
	return Precision(c, x, y, E)
}

// PrecisionOf is the precision of a key with the given violator count over a
// context of n live rows: 1 − violations/n, or 1 for an empty context. Every
// precision in the package is this expression, so a count from any pass
// renders to the same float.
func PrecisionOf(violations, n int) float64 {
	if n == 0 {
		return 1
	}
	return 1 - float64(violations)/float64(n)
}

// IsMinimal reports whether no single feature can be removed from E while
// keeping it α-conformant.
func IsMinimal(c *Context, x feature.Instance, y feature.Label, E Key, alpha float64) bool {
	if !IsAlphaKey(c, x, y, E, alpha) {
		return false
	}
	for i := range E {
		reduced := make(Key, 0, len(E)-1)
		reduced = append(reduced, E[:i]...)
		reduced = append(reduced, E[i+1:]...)
		if IsAlphaKey(c, x, y, reduced, alpha) {
			return false
		}
	}
	return true
}

// Minimize greedily removes redundant features from E while preserving
// α-conformity; the result is a minimal (not necessarily minimum) key.
func Minimize(c *Context, x feature.Instance, y feature.Label, E Key, alpha float64) Key {
	out := E.Clone()
	for i := 0; i < len(out); {
		reduced := make(Key, 0, len(out)-1)
		reduced = append(reduced, out[:i]...)
		reduced = append(reduced, out[i+1:]...)
		if IsAlphaKey(c, x, y, reduced, alpha) {
			out = reduced
		} else {
			i++
		}
	}
	return out
}
