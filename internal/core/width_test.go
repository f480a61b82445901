package core

import (
	"math/rand"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

// randomRows draws n rows over s, every label present with equal odds.
func randomRows(rng *rand.Rand, s *feature.Schema, n int) []feature.Labeled {
	rows := make([]feature.Labeled, n)
	for i := range rows {
		x := make(feature.Instance, s.NumFeatures())
		for a := range x {
			x[a] = feature.Value(rng.Intn(s.Attrs[a].Cardinality()))
		}
		rows[i] = feature.Labeled{X: x, Y: feature.Label(rng.Intn(len(s.Labels)))}
	}
	return rows
}

// checkWidth asserts that the live mask, every posting list and every label
// set of c are exactly `words` words long: the width every kernel scans.
func checkWidth(t *testing.T, c *Context, words int, when string) {
	t.Helper()
	if got := c.Live().NumWords(); got != words {
		t.Fatalf("%s: live mask is %d words, want %d", when, got, words)
	}
	for a := range c.Schema.Attrs {
		for v := 0; v < c.Schema.Attrs[a].Cardinality(); v++ {
			if got := c.Posting(a, feature.Value(v)).NumWords(); got != words {
				t.Fatalf("%s: posting (%d,%d) is %d words, want %d", when, a, v, got, words)
			}
		}
	}
	for y := range c.Schema.Labels {
		if got := c.LabelSet(feature.Label(y)).NumWords(); got != words {
			t.Fatalf("%s: label set %d is %d words, want %d", when, y, got, words)
		}
	}
}

// widthRows is not a multiple of 64, and growing an empty context to it
// crosses several reallocations of every bitset.
const widthRows = 64*37 + 21

// TestGrownContextWidth: a context grown row by row, as snapshot recovery,
// WAL replay and /observe grow the service's, keeps every bitset at
// ⌈NumSlots/64⌉ words after every arrival, never at its allocated storage.
func TestGrownContextWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	c := randomContext(t, rng, 0, 5, 3, 3)
	for i, li := range randomRows(rng, c.Schema, widthRows) {
		if err := c.Add(li); err != nil {
			t.Fatal(err)
		}
		checkWidth(t, c, (i+64)/64, "grown")
	}
}

// TestContextWidthAfterRemovals: Remove never shrinks the index and a re-Add
// reuses a retired slot, so the width stays at the slot high-water mark.
func TestContextWidthAfterRemovals(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	c := randomContext(t, rng, 0, 4, 3, 2)
	rows := randomRows(rng, c.Schema, widthRows)
	for _, li := range rows {
		if err := c.Add(li); err != nil {
			t.Fatal(err)
		}
	}
	want := (widthRows + 63) / 64
	// Retire the whole top word and a scatter below it.
	for slot := widthRows - 1; slot >= widthRows-100; slot-- {
		if err := c.Remove(slot); err != nil {
			t.Fatal(err)
		}
	}
	for slot := 0; slot < widthRows-100; slot += 7 {
		if err := c.Remove(slot); err != nil {
			t.Fatal(err)
		}
	}
	checkWidth(t, c, want, "after removals")
	for _, li := range rows[:150] {
		if err := c.Add(li); err != nil {
			t.Fatal(err)
		}
	}
	if c.NumSlots() != widthRows {
		t.Fatalf("re-Adds grew NumSlots to %d, want the high-water mark %d", c.NumSlots(), widthRows)
	}
	checkWidth(t, c, want, "after re-Add")
}

// TestPreSizedContextWidth: NewContextSized's capacity is reserved storage,
// not scan width.
func TestPreSizedContextWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	schema := randomContext(t, rng, 0, 4, 3, 2).Schema
	c, err := NewContextSized(schema, nil, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range randomRows(rng, schema, 1000) {
		if err := c.Add(li); err != nil {
			t.Fatal(err)
		}
	}
	checkWidth(t, c, 16, "1000 rows in a 2^16-row reserve")
}

// TestPreSizedContextAddsAllocFree: NewContextSized reserves the row slice
// along with the bitsets, so filling the reserve allocates nothing. A bulk
// load (Retained.Replace) builds at its final size and so allocates its rows
// once, not through append growth.
func TestPreSizedContextAddsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates in Set.Grow")
	}
	rng := rand.New(rand.NewSource(331))
	schema := randomContext(t, rng, 0, 4, 3, 2).Schema
	const n = 1000
	rows := randomRows(rng, schema, n)
	// AllocsPerRun calls fill once to warm up and once measured, each on a
	// fresh reserve built outside the measurement.
	var fresh []*Context
	for i := 0; i < 2; i++ {
		c, err := NewContextSized(schema, nil, n)
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, c)
	}
	fill := func() {
		c := fresh[0]
		fresh = fresh[1:]
		for _, li := range rows {
			if err := c.Add(li); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(1, fill); allocs != 0 {
		t.Fatalf("%d Adds into NewContextSized(schema, nil, %d) allocated %v times, want 0", n, n, allocs)
	}
}

// TestGrownContextMatchesBuilt: however a context reached its rows — built in
// one call, grown row by row, or grown inside a reserve — it answers with the
// same SRK keys, precision and coverage.
func TestGrownContextMatchesBuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(317))
	schema := randomContext(t, rng, 0, 6, 3, 2).Schema
	rows := randomRows(rng, schema, widthRows)
	built, err := NewContext(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := NewContext(schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	reserved, err := NewContextSized(schema, nil, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range rows {
		if err := grown.Add(li); err != nil {
			t.Fatal(err)
		}
		if err := reserved.Add(li); err != nil {
			t.Fatal(err)
		}
	}
	for q := 0; q < 40; q++ {
		li := rows[rng.Intn(len(rows))]
		alpha := []float64{1, 0.95, 0.8}[q%3]
		key, keyErr := SRK(built, li.X, li.Y, alpha)
		for _, c := range []*Context{grown, reserved} {
			got, gotErr := SRK(c, li.X, li.Y, alpha)
			if (gotErr == nil) != (keyErr == nil) || !got.Equal(key) {
				t.Fatalf("query %d α=%v: key %v/%v, built context %v/%v", q, alpha, got, gotErr, key, keyErr)
			}
			if keyErr != nil {
				continue
			}
			if got, want := Precision(c, li.X, li.Y, key), Precision(built, li.X, li.Y, key); got != want { //rkvet:ignore floateq both sides are 1 - int/int over identical ints, bit-equal by construction
				t.Fatalf("query %d: precision %v, built context %v", q, got, want)
			}
			if got, want := Coverage(c, li.X, li.Y, key), Coverage(built, li.X, li.Y, key); got != want {
				t.Fatalf("query %d: coverage %d, built context %d", q, got, want)
			}
		}
	}
}
