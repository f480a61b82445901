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
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

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
// Rows live in slots of one table at code width (feature.Rows), slot i in
// row i. A context built by NewContext and grown only with Add is
// append-only: slot i holds the i-th arrival and Len == NumSlots. Remove
// retires a slot — its bits are cleared from every posting list and from the
// live mask, and the slot is recycled by the next Add, which overwrites its
// row in place — which is what lets Retained (cce.Window, service retention)
// slide without rebuilding the index. While holes exist, Item and Items
// still expose retired rows; iterate live rows with LiveItems or guard with
// Alive. All three return copies, so a row read out stays as it was when
// its slot is reused.
type Context struct {
	Schema *feature.Schema

	rows *feature.Rows
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
	// pairs holds the pair-count tables the served engine scores its second
	// greedy round from; nil for a schema over maxPairCells.
	pairs *pairCounts
}

// pairCounts holds a context's pair-count tables (DESIGN.md §11). The table
// of a first pick (a, v) has a cell (base[b]+w)·L+y for every value w of
// every attribute b and label y: the live rows with x[a] = v and x[b] = w
// predicted y. Tables are built lazily, each once the served engine's
// round-two scans after picking (a, v) have read as many words as its build
// reads (rent or buy), published by atomic pointer so solves read them
// without a lock, and kept by AddSlot and Remove from then on.
type pairCounts struct {
	base   []int                   // (a, v)'s entry is base[a]+v: Σ cardinalities of the attributes before a
	tables []atomic.Pointer[[]int] // by entry; nil until built
	rent   []atomic.Int64          // by entry: round-two words scanned while unbuilt
	build  sync.Mutex              // held by the one build in progress, taken with TryLock
}

// maxPairCells caps the cells of a schema's full set of pair-count tables,
// (Σ cardinalities)²·L: a wider schema never builds one and scans every
// round. Every built-in schema fits (german, the largest, has 18,050).
const maxPairCells = 1 << 20

// newPairCounts returns the empty tables of a schema, or nil over
// maxPairCells.
func newPairCounts(s *feature.Schema) *pairCounts {
	base := make([]int, len(s.Attrs))
	sum := 0
	for a, at := range s.Attrs {
		base[a] = sum
		sum += at.Cardinality()
	}
	if sum > maxPairCells || sum*sum*len(s.Labels) > maxPairCells {
		return nil
	}
	return &pairCounts{base: base, tables: make([]atomic.Pointer[[]int], sum), rent: make([]atomic.Int64, sum)}
}

// NewContext builds an indexed context. Instances are validated against the
// schema; predictions must be inside the label space.
func NewContext(schema *feature.Schema, items []feature.Labeled) (*Context, error) {
	return NewContextSized(schema, items, len(items))
}

// NewContextSized builds an indexed context whose row table and bitsets
// reserve storage for at least capacity rows, so adding up to capacity rows
// allocates nothing when the eventual occupancy is known up front (a sliding
// window of fixed size, a bulk load). The reserve is storage only: the
// kernels still scan just the occupied slots. Every item is validated, and
// the error is the first invalid item's, before the table is indexed in
// bulk (newContextRows).
func NewContextSized(schema *feature.Schema, items []feature.Labeled, capacity int) (*Context, error) {
	rows := feature.NewRows(schema, len(items))
	for _, li := range items {
		if err := ValidateLabeled(schema, li); err != nil {
			return nil, err
		}
		rows.Append(li)
	}
	return newContextRows(schema, rows, capacity)
}

// NewContextRows builds an indexed context over a table of rows, row i in
// slot i: the bulk build (newContextRows) with no reserve beyond the rows.
// A table holding a row outside the schema is refused with
// feature.Rows.Validate's error, which names the first such row. The context
// may take the table's storage, and an Add may then overwrite a removed
// slot's row there, so the caller must not write rows, nor read them once it
// adds to the context.
func NewContextRows(schema *feature.Schema, rows *feature.Rows) (*Context, error) {
	return newContextRows(schema, rows, 0)
}

// newContextRows builds an indexed context over a table of rows, row i in
// slot i, reserving storage for at least capacity rows as NewContextSized
// does, and leaves it exactly as Add would one row at a time (asserted in
// TestBulkIndexDifferential). The index is built in one pass over the
// labels and one over the values, split across goroutines from
// splitBuildRows rows, each checking every code it reads (indexRows),
// before the rows' storage is taken; on a refusal the error is Validate's.
// When the table is at the schema's code widths and capacity asks for no
// more rows, the context takes its storage, and a later Add may overwrite a
// removed slot's row there, so the caller must not read rows once the
// context is in use. Otherwise the rows are copied, repacked to the
// schema's widths.
func newContextRows(schema *feature.Schema, rows *feature.Rows, capacity int) (*Context, error) {
	n := rows.Len()
	capacity = max(capacity, n)
	c := &Context{Schema: schema, pairs: newPairCounts(schema)}
	if rows.Arity() != schema.NumFeatures() || !c.indexRows(rows, capacity) {
		// The build stops at a bad code, not at the first bad row.
		return nil, rows.Validate(schema)
	}
	vw, lw := feature.Widths(schema)
	if gotV, gotL := rows.Widths(); gotV == vw && gotL == lw && capacity == n {
		c.rows = rows.Slice(0, n) // a header of its own: appends never reach the caller's
		return c, nil
	}
	// Every code is inside its domain, so it fits the schema's widths.
	c.rows = feature.NewRows(schema, capacity)
	for i := 0; i < n; i++ {
		c.rows.AppendFrom(rows, i)
	}
	return c, nil
}

// splitBuildRows is the row count from which indexRows splits the
// attributes across goroutines: the crossover measured over adult rows on a
// 2-vCPU host, where two goroutines built 8,192 rows faster than one in
// every run and 4,096 rows in about the same time (DESIGN.md §7).
const splitBuildRows = 1 << 13

// indexRows builds c's empty index over the rows of src, row i in slot i, a
// column at a time: for each block of 64 rows, one word of every posting
// list, label set and the live mask, each bitset as long as the whole words
// AddSlot grows it to and reserving capacity bits. It builds every label
// word first. The attributes then go to up to GOMAXPROCS goroutines in
// disjoint ranges, one range per goroutine, each building its range's
// postings and count-table rows (indexColumns) and nothing else, so the
// index is the same whatever the schedule; below splitBuildRows rows the
// caller's goroutine builds every range. It reports false, leaving c
// unusable, when a code lies outside its domain or a label outside the
// label space.
func (c *Context) indexRows(src *feature.Rows, capacity int) bool {
	s := c.Schema
	n, k, nl := src.Len(), s.NumFeatures(), len(s.Labels)
	nw := (n + 63) / 64
	capWords := (capacity + 63) / 64

	byLabel := make([][]uint64, nl)
	for y := range byLabel {
		byLabel[y] = make([]uint64, nw, capWords)
	}
	if !labelWords(src, byLabel) {
		return false
	}

	c.post = make([][]*bitset.Set, k)
	c.labelCount = make([][]int, k)
	parts := 1
	if n >= splitBuildRows {
		parts = max(1, min(runtime.GOMAXPROCS(0), k))
	}
	built := make([]bool, parts)
	var wg sync.WaitGroup
	for p := 1; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			built[p] = c.indexColumns(src, byLabel, capWords, p*k/parts, (p+1)*k/parts)
		}(p)
	}
	built[0] = c.indexColumns(src, byLabel, capWords, 0, k/parts)
	wg.Wait()
	for _, ok := range built {
		if !ok {
			return false
		}
	}

	bitsLen := nw * 64
	c.byLabel = make([]*bitset.Set, nl)
	c.labelLive = make([]int, nl)
	for y, words := range byLabel {
		c.byLabel[y] = bitset.FromWords(words, bitsLen)
		c.labelLive[y] = c.byLabel[y].Count()
	}
	live := make([]uint64, nw, capWords)
	for w := range live {
		live[w] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		live[nw-1] = 1<<r - 1
	}
	c.live = bitset.FromWords(live, bitsLen)
	c.liveCount = n
	c.version = uint64(n)
	return true
}

// labelWords fills byLabel[y][w] with the rows of block w predicted y, for
// every 64-row block of src. A label space whose words fit one block's
// accumulator is scattered there (feature.Rows.ScatterLabels); a wider one
// is written row by row. It reports false at the first label outside the
// label space.
func labelWords(src *feature.Rows, byLabel [][]uint64) bool {
	n, nl := src.Len(), len(byLabel)
	var lab [64]uint64 // one block's label words
	for w := 0; w*64 < n; w++ {
		lo, hi := w*64, min(w*64+64, n)
		if nl > len(lab) {
			for i := lo; i < hi; i++ {
				y := uint32(src.Label(i))
				if y >= uint32(nl) {
					return false
				}
				byLabel[y][w] |= 1 << (i - lo)
			}
			continue
		}
		clear(lab[:nl])
		if !src.ScatterLabels(lab[:nl], lo, hi) {
			return false
		}
		for y, l := range lab[:nl] {
			byLabel[y][w] = l
		}
	}
	return true
}

// indexColumns builds the posting lists and count-table rows of attributes
// [from, to) over every 64-row block of src, given the blocks' label words,
// each posting reserving capWords words. It allocates and writes those
// attributes' entries of c.post and c.labelCount and nothing else, so
// disjoint ranges build concurrently. A domain whose posting words, times
// the labels, fit one block's accumulators (acc) is scattered there
// (feature.Rows.ScatterValues) and counted by popcounts of each posting word
// ∧ label word; a wider one (2- and 4-byte codes) is written straight into
// its postings and counted row by row, as Add does. It reports false at the
// first code outside its domain it meets.
func (c *Context) indexColumns(src *feature.Rows, byLabel [][]uint64, capWords, from, to int) bool {
	s := c.Schema
	n, nl := src.Len(), len(byLabel)
	nw := (n + 63) / 64
	post := make([][][]uint64, to-from)
	for a := from; a < to; a++ {
		card := s.Attrs[a].Cardinality()
		post[a-from] = make([][]uint64, card)
		for v := range post[a-from] {
			post[a-from][v] = make([]uint64, nw, capWords)
		}
		c.labelCount[a] = make([]int, card*nl)
	}

	var acc, lab [64]uint64 // one block's posting and label words
	for w := 0; w < nw; w++ {
		lo, hi := w*64, min(w*64+64, n)
		if nl <= len(lab) {
			for y := range lab[:nl] {
				lab[y] = byLabel[y][w]
			}
		}
		for a := from; a < to; a++ {
			card, pa, cnt := s.Attrs[a].Cardinality(), post[a-from], c.labelCount[a]
			if card*nl > len(acc) {
				for i := lo; i < hi; i++ {
					v := uint32(src.Value(i, a))
					if v >= uint32(card) {
						return false
					}
					pa[v][w] |= 1 << (i - lo)
					cnt[int(v)*nl+int(src.Label(i))]++
				}
				continue
			}
			if !src.ScatterValues(acc[:card], a, lo, hi) {
				return false
			}
			for v, m := range acc[:card] {
				if m == 0 {
					continue
				}
				pa[v][w], acc[v] = m, 0
				for y, l := range lab[:nl] {
					cnt[v*nl+y] += bits.OnesCount64(m & l)
				}
			}
		}
	}

	for a := from; a < to; a++ {
		c.post[a] = make([]*bitset.Set, len(post[a-from]))
		for v, words := range post[a-from] {
			c.post[a][v] = bitset.FromWords(words, nw*64)
		}
	}
	return true
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
		c.rows.Set(i, li)
	} else {
		i = c.rows.Len()
		if i >= c.live.Len() {
			c.grow(i + 64)
		}
		c.rows.Append(li)
	}
	c.index(i)
	return i, nil
}

// index enters the row in slot i into the index: its postings, label set,
// counts and the live mask, whose bitsets are already i+1 bits long or
// longer.
func (c *Context) index(i int) {
	y := c.rows.Label(i)
	nl := len(c.byLabel)
	for a := range c.post {
		v := c.rows.Value(i, a)
		c.post[a][v].Add(i)
		c.labelCount[a][int(v)*nl+int(y)]++
	}
	c.byLabel[y].Add(i)
	c.labelLive[y]++
	c.live.Add(i)
	c.liveCount++
	c.countPairs(i, 1)
	c.version++
}

// Remove retires the row in the given slot: O(attrs) bit clears, after which
// no posting list, label set, or Disagreeing result contains it. The slot is
// recycled by a later Add. Removing a dead or out-of-range slot errors.
func (c *Context) Remove(slot int) error {
	if slot < 0 || slot >= c.rows.Len() || !c.live.Contains(slot) {
		return fmt.Errorf("core: remove of dead or out-of-range slot %d", slot)
	}
	y := c.rows.Label(slot)
	nl := len(c.byLabel)
	for a := range c.post {
		v := c.rows.Value(slot, a)
		c.post[a][v].Remove(slot)
		c.labelCount[a][int(v)*nl+int(y)]--
	}
	c.byLabel[y].Remove(slot)
	c.labelLive[y]--
	c.live.Remove(slot)
	c.liveCount--
	c.countPairs(slot, -1)
	c.free = append(c.free, slot)
	c.version++
	return nil
}

// countPairs adds d to slot i's cells in every built pair-count table of its
// own values (a, x[a]): at most k tables of k cells each.
func (c *Context) countPairs(i, d int) {
	p := c.pairs
	if p == nil {
		return
	}
	y, nl := int(c.rows.Label(i)), len(c.byLabel)
	for a, base := range p.base {
		t := p.tables[base+int(c.rows.Value(i, a))].Load()
		if t == nil {
			continue
		}
		for b, base := range p.base {
			(*t)[(base+int(c.rows.Value(i, b)))*nl+y] += d
		}
	}
}

// pairTable returns the pair-count table of a first pick (a, v), or nil while
// it is unbuilt.
func (c *Context) pairTable(a int, v feature.Value) []int {
	if c.pairs == nil {
		return nil
	}
	if t := c.pairs.tables[c.pairs.base[a]+int(v)].Load(); t != nil {
		return *t
	}
	return nil
}

// rentPairs charges words, read by a round-two scan after picking (a, v), to
// (a, v)'s unbuilt table, and builds the table once the charges reach its
// build cost: the ski-rental rule, which keeps round two's total work within
// twice the better of always scanning and building first.
func (c *Context) rentPairs(a int, v feature.Value, words int) {
	p := c.pairs
	if p == nil {
		return
	}
	if p.rent[p.base[a]+int(v)].Add(int64(words)) >= int64(c.pairBuildWords(a, v)) {
		c.buildPairs(a, v)
	}
}

// pairBuildWords bounds the words buildPairs reads for (a, v): for each label
// y with rows in the posting, one pass over the posting to list its words
// labelled y, then one read of that list, at most min(words, rows) long, per
// posting of the schema.
func (c *Context) pairBuildWords(a int, v feature.Value) int {
	nw, nl, postings := c.live.NumWords(), len(c.byLabel), len(c.pairs.tables)
	total := 0
	for _, n := range c.labelCount[a][int(v)*nl : (int(v)+1)*nl] {
		if n > 0 {
			total += nw + postings*min(nw, n)
		}
	}
	return total
}

// buildPairs builds and publishes (a, v)'s pair-count table unless another
// build is in progress, so a solve never waits for one. Solves read
// concurrently while it runs, and the mutations that keep a published table
// (AddSlot, Remove) need exclusive access, as for every other part of the
// index.
func (c *Context) buildPairs(a int, v feature.Value) {
	p := c.pairs
	if !p.build.TryLock() {
		return
	}
	defer p.build.Unlock()
	e := p.base[a] + int(v)
	if p.tables[e].Load() != nil {
		return
	}
	nl := len(c.byLabel)
	t := make([]int, len(p.tables)*nl)
	st := getSparseState(0, c.live.NumWords())
	defer putSparseState(st)
	post := c.post[a][v].Words()
	for y, n := range c.labelCount[a][int(v)*nl : (int(v)+1)*nl] {
		if n == 0 {
			continue
		}
		st.list(post, c.byLabel[y].Words(), nil)
		for b, base := range p.base {
			for w, pw := range c.post[b] {
				t[(base+w)*nl+y] = st.listedCount(pw.Words())
			}
		}
	}
	p.tables[e].Store(&t)
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
func (c *Context) NumSlots() int { return c.rows.Len() }

// Alive reports whether slot i holds a live row.
func (c *Context) Alive(i int) bool { return c.live.Contains(i) }

// Item returns a copy of the row in slot i. In a context that has seen
// removals the slot may be dead (check Alive) or hold a later arrival than
// the i-th.
func (c *Context) Item(i int) feature.Labeled { return c.rows.Row(i) }

// Items returns a copy of every slot's row, in slot order. Dead slots hold
// their last occupant — use LiveItems when removals may have happened.
func (c *Context) Items() []feature.Labeled { return c.rows.Labeled() }

// LiveItems returns a copy of the live rows in slot order.
func (c *Context) LiveItems() []feature.Labeled {
	out := make([]feature.Labeled, 0, c.liveCount)
	c.live.ForEach(func(i int) bool {
		out = append(out, c.rows.Row(i))
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
