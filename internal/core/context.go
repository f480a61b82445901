// Package core implements relative keys, the paper's central contribution
// (§§3–5): the Context abstraction, the greedy batch algorithm SRK
// (Algorithm 1), the randomized online algorithm OSRK (Algorithm 2), the
// deterministic static-feature algorithm SSRK (Algorithm 3), an exact
// iterative-deepening solver used to validate approximation bounds, and the
// set-cover reduction behind Theorem 1.
package core

import (
	"errors"
	"fmt"

	"github.com/xai-db/relativekeys/internal/bitset"
	"github.com/xai-db/relativekeys/internal/feature"
)

// Context is a collection I of instances and their model predictions, indexed
// with per-(attribute,value) posting lists so that the intersection counts in
// SRK's greedy step cost O(|I|/64) words each.
//
// Every bitset of the index — the posting lists, the label sets and the live
// mask — has the same length, ⌈NumSlots/64⌉ words: the slot high-water mark,
// not the allocated storage, so a context grown row by row scans no more
// words than one built at its final size.
//
// Rows live in slots. A context built by NewContext and grown only with Add
// is append-only: slot i holds the i-th arrival and Len == NumSlots. Remove
// retires a slot — its bits are cleared from every posting list and from the
// live mask, and the slot is recycled by the next Add — which is what lets
// Retained (cce.Window, service retention) slide without rebuilding the
// index. While holes exist, Item and Items still expose retired rows;
// iterate live rows with LiveItems or guard with Alive.
type Context struct {
	Schema *feature.Schema

	items []feature.Labeled
	// post[attr][value] holds the live rows where x[attr] == value.
	post [][]*bitset.Set
	// labelCount[attr][value*L+y] counts the live rows with x[attr] == value
	// predicted y, for L labels. Summed over y it is the posting frequency
	// the greedy tie-break reads (PostingCount), and it scores SRK's first
	// greedy round without a scan: picking attr leaves the posting's rows
	// not labelled y (DESIGN.md §11).
	labelCount [][]int
	// byLabel[y] holds the live rows predicted y; labelLive[y] = |byLabel[y]|.
	byLabel   []*bitset.Set
	labelLive []int
	// live masks the occupied slots; posting lists are always subsets of it.
	live      *bitset.Set
	liveCount int
	// free holds retired slots awaiting reuse (LIFO).
	free []int
	// version counts content mutations (AddSlot and Remove each bump it once),
	// so two reads of the same context with equal versions are guaranteed to
	// see identical rows — the invalidation stamp the service-level explanation
	// cache keys on (DESIGN.md §15).
	version uint64
}

// NewContext builds an indexed context. Instances are validated against the
// schema; predictions must be inside the label space.
func NewContext(schema *feature.Schema, items []feature.Labeled) (*Context, error) {
	return NewContextSized(schema, items, len(items))
}

// NewContextSized builds an indexed context whose row slice and bitsets
// reserve storage for at least capacity rows, so adding up to capacity rows
// allocates nothing when the eventual occupancy is known up front (a sliding
// window of fixed size, a bulk load). The reserve is storage only: the
// kernels still scan just the occupied slots.
func NewContextSized(schema *feature.Schema, items []feature.Labeled, capacity int) (*Context, error) {
	if capacity < len(items) {
		capacity = len(items)
	}
	c := &Context{Schema: schema, items: make([]feature.Labeled, 0, capacity)}
	c.initIndex(capacity)
	for _, li := range items {
		if err := c.Add(li); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *Context) initIndex(capacity int) {
	c.post = make([][]*bitset.Set, c.Schema.NumFeatures())
	c.labelCount = make([][]int, c.Schema.NumFeatures())
	for a := range c.post {
		c.post[a] = make([]*bitset.Set, c.Schema.Attrs[a].Cardinality())
		c.labelCount[a] = make([]int, c.Schema.Attrs[a].Cardinality()*len(c.Schema.Labels))
		for v := range c.post[a] {
			c.post[a][v] = bitset.NewReserved(capacity)
		}
	}
	c.byLabel = make([]*bitset.Set, len(c.Schema.Labels))
	c.labelLive = make([]int, len(c.Schema.Labels))
	for y := range c.byLabel {
		c.byLabel[y] = bitset.NewReserved(capacity)
	}
	c.live = bitset.NewReserved(capacity)
}

// Add appends one labeled instance to the context (the online growth path).
func (c *Context) Add(li feature.Labeled) error {
	_, err := c.AddSlot(li)
	return err
}

// AddSlot is Add returning the slot the instance landed in, so callers that
// later Remove rows (Retained's eviction ring) can address them in O(1).
// Retired slots are reused before the context grows.
func (c *Context) AddSlot(li feature.Labeled) (int, error) {
	if err := ValidateLabeled(c.Schema, li); err != nil {
		return -1, err
	}
	var i int
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
		c.items[i] = li
	} else {
		i = len(c.items)
		if i >= c.live.Len() {
			c.grow(i + 64)
		}
		c.items = append(c.items, li)
	}
	nl := len(c.byLabel)
	for a, v := range li.X {
		c.post[a][v].Add(i)
		c.labelCount[a][int(v)*nl+int(li.Y)]++
	}
	c.byLabel[li.Y].Add(i)
	c.labelLive[li.Y]++
	c.live.Add(i)
	c.liveCount++
	c.version++
	return i, nil
}

// Remove retires the row in the given slot: O(attrs) bit clears, after which
// no posting list, label set, or Disagreeing result contains it. The slot is
// recycled by a later Add. Removing a dead or out-of-range slot errors.
func (c *Context) Remove(slot int) error {
	if slot < 0 || slot >= len(c.items) || !c.live.Contains(slot) {
		return fmt.Errorf("core: remove of dead or out-of-range slot %d", slot)
	}
	li := c.items[slot]
	nl := len(c.byLabel)
	for a, v := range li.X {
		c.post[a][v].Remove(slot)
		c.labelCount[a][int(v)*nl+int(li.Y)]--
	}
	c.byLabel[li.Y].Remove(slot)
	c.labelLive[li.Y]--
	c.live.Remove(slot)
	c.liveCount--
	c.free = append(c.free, slot)
	c.version++
	return nil
}

// grow lengthens every bitset of the index to n bits. AddSlot calls it once
// per 64 new slots, so the index grows in whole words and Set.Grow amortizes
// the reallocations.
func (c *Context) grow(n int) {
	for a := range c.post {
		for v := range c.post[a] {
			c.post[a][v].Grow(n)
		}
	}
	for y := range c.byLabel {
		c.byLabel[y].Grow(n)
	}
	c.live.Grow(n)
}

// Len returns |I|: the number of live rows.
func (c *Context) Len() int { return c.liveCount }

// Version is the context's mutation stamp: it increases on every AddSlot and
// Remove and never otherwise, so equal versions imply identical content (the
// converse does not hold — an add/remove pair restoring the same rows still
// advances it). Callers synchronize access exactly as for any other read.
func (c *Context) Version() uint64 { return c.version }

// NumSlots returns the physical slot count, ≥ Len when rows were removed.
func (c *Context) NumSlots() int { return len(c.items) }

// Alive reports whether slot i holds a live row.
func (c *Context) Alive(i int) bool { return c.live.Contains(i) }

// Item returns the row in slot i. In a context that has seen removals the
// slot may be dead (check Alive) or hold a later arrival than the i-th.
func (c *Context) Item(i int) feature.Labeled { return c.items[i] }

// Items returns the backing slot array; callers must not mutate it. Dead
// slots retain their last occupant — use LiveItems when removals may have
// happened.
func (c *Context) Items() []feature.Labeled { return c.items }

// LiveItems returns a fresh slice of the live rows in slot order.
func (c *Context) LiveItems() []feature.Labeled {
	out := make([]feature.Labeled, 0, c.liveCount)
	c.live.ForEach(func(i int) bool {
		out = append(out, c.items[i])
		return true
	})
	return out
}

// Live returns the live-row mask; callers must not mutate it.
func (c *Context) Live() *bitset.Set { return c.live }

// Posting returns the posting list for attr==value; callers must not mutate
// it. Like every bitset of the context it is ⌈NumSlots/64⌉ words long.
func (c *Context) Posting(attr int, v feature.Value) *bitset.Set { return c.post[attr][v] }

// PostingCount returns |Posting(attr, v)| in O(labels): it sums the
// incremental count table, so the greedy tie-break never pays a popcount
// pass for posting frequency. Equal to Posting(attr, v).Count() at all times
// (asserted in context_test).
func (c *Context) PostingCount(attr int, v feature.Value) int {
	nl := len(c.byLabel)
	n := 0
	for _, k := range c.labelCount[attr][int(v)*nl : (int(v)+1)*nl] {
		n += k
	}
	return n
}

// postingLabelCount returns |Posting(attr, v) ∩ LabelSet(y)| in O(1) from the
// incremental count table; a prediction outside the label space has no rows.
//
//rkvet:noalloc
func (c *Context) postingLabelCount(attr int, v feature.Value, y feature.Label) int {
	nl := len(c.byLabel)
	if y < 0 || int(y) >= nl {
		return 0
	}
	return c.labelCount[attr][int(v)*nl+int(y)]
}

// disagreeingCount returns |Disagreeing(y)| in O(1).
func (c *Context) disagreeingCount(y feature.Label) int {
	if y < 0 || int(y) >= len(c.labelLive) {
		return c.liveCount
	}
	return c.liveCount - c.labelLive[y]
}

// LabelSet returns the posting list of rows predicted y.
func (c *Context) LabelSet(y feature.Label) *bitset.Set { return c.byLabel[y] }

// Disagreeing returns a fresh bitset of live rows whose prediction differs
// from y, derived as the masked complement live \ byLabel[y] —
// O(NumSlots/64) words instead of an O(|I|) item scan.
func (c *Context) Disagreeing(y feature.Label) *bitset.Set {
	return c.DisagreeingInto(c.live.Clone(), y)
}

// DisagreeingInto writes the Disagreeing set into dst (resizing it as
// needed) and returns dst; it is the allocation-free path used with pooled
// scratch sets.
func (c *Context) DisagreeingInto(dst *bitset.Set, y feature.Label) *bitset.Set {
	dst.CopyFrom(c.live)
	if y >= 0 && int(y) < len(c.byLabel) {
		dst.AndNot(c.byLabel[y])
	}
	return dst
}

// ErrNoKey is returned when no feature subset can reach the requested
// conformity — i.e. the context contains an instance identical to x on every
// feature but with a different prediction, beyond the α budget.
var ErrNoKey = errors.New("core: no α-conformant relative key exists for this context")

// ValidateAlpha rejects conformity bounds outside (0, 1].
func ValidateAlpha(alpha float64) error {
	if !(alpha > 0 && alpha <= 1) {
		return fmt.Errorf("core: conformity bound α=%v outside (0,1]", alpha)
	}
	return nil
}

// ValidateLabeled checks that an arrival fits the schema: its instance inside
// the feature space and its prediction inside the label space. Every path
// that admits a row — Context.AddSlot, OSRK and the drift panel — validates
// with it, so they accept and reject exactly the same arrivals.
func ValidateLabeled(schema *feature.Schema, li feature.Labeled) error {
	if err := schema.Validate(li.X); err != nil {
		return err
	}
	if li.Y < 0 || int(li.Y) >= len(schema.Labels) {
		return fmt.Errorf("core: prediction %d outside label space of size %d", li.Y, len(schema.Labels))
	}
	return nil
}

// Budget returns the number of violating instances tolerated by α over a
// context of size n: ⌊(1−α)·n⌋ with a tolerance for float rounding. The
// tolerance is scale-aware: the rounding error of the product (1−α)·n grows
// with n (about n·2⁻⁵³), so a fixed absolute epsilon that works at n=10³
// silently under-budgets at n=10⁸. A relative slack of 10⁻¹² dominates that
// error at every n while staying far below 1 ulp of any honest non-integer
// product; the absolute 10⁻⁹ floor preserves the historical behaviour for
// tiny products.
func Budget(alpha float64, n int) int {
	p := (1 - alpha) * float64(n)
	tol := p * 1e-12
	if tol < 1e-9 {
		tol = 1e-9
	}
	return int(p + tol)
}
