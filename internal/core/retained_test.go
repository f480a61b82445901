package core

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

// badRows are arrivals every admission path refuses on the fuzz schema: a
// value outside its domain, a short instance, a prediction outside the label
// space.
var badRows = []feature.Labeled{
	{X: feature.Instance{2, 0, 0}, Y: 0},
	{X: feature.Instance{0, 0}, Y: 1},
	{X: feature.Instance{0, 1, 1}, Y: 7},
}

// lastN returns the newest limit rows of rows (all of them when limit is 0).
func lastN(rows []feature.Labeled, limit int) []feature.Labeled {
	if limit > 0 && len(rows) > limit {
		return rows[len(rows)-limit:]
	}
	return rows
}

// checkRetained asserts r holds exactly want, oldest first, within its slot
// bound.
func checkRetained(t *testing.T, r *Retained, want []feature.Labeled) {
	t.Helper()
	got := r.Items()
	if len(got) != len(want) || r.Len() != len(want) {
		t.Fatalf("Items %d rows, Len %d, want %d", len(got), r.Len(), len(want))
	}
	for i := range want {
		if !got[i].X.Equal(want[i].X) || got[i].Y != want[i].Y {
			t.Fatalf("Items[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if r.Limit() > 0 && r.Context().NumSlots() > r.Limit() {
		t.Fatalf("NumSlots %d exceeds the limit %d", r.Context().NumSlots(), r.Limit())
	}
}

// sameKeys asserts r explains every probe exactly as a context rebuilt from
// want does, on both the served engine and the eager oracle.
func sameKeys(t *testing.T, r *Retained, want []feature.Labeled, probes []feature.Labeled) {
	t.Helper()
	rebuilt, err := NewContext(r.Context().Schema, want)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range probes {
		for _, alpha := range []float64{1.0, 0.7} {
			kWant, errWant := SRK(rebuilt, q.X, q.Y, alpha)
			kEager, errEager := SRK(r.Context(), q.X, q.Y, alpha)
			kServed, errServed := served(r.Context(), q.X, q.Y, alpha)
			for name, got := range map[string]struct {
				k   Key
				err error
			}{"SRK": {kEager, errEager}, "SRKAnytime": {kServed, errServed}} {
				if errors.Is(got.err, ErrNoKey) != errors.Is(errWant, ErrNoKey) || (got.err == nil) != (errWant == nil) {
					t.Fatalf("α=%v %s: err %v, rebuilt %v", alpha, name, got.err, errWant)
				}
				if got.err == nil && !got.k.Equal(kWant) {
					t.Fatalf("α=%v %s: key %v, rebuilt %v", alpha, name, got.k, kWant)
				}
			}
		}
	}
}

// TestRetainedEvictsOldestFirst: a retained context holds exactly the newest
// limit rows, oldest first, never more than limit slots, and explains like a
// context rebuilt from those rows.
func TestRetainedEvictsOldestFirst(t *testing.T) {
	schema := fuzzSchema()
	rng := rand.New(rand.NewSource(17))
	for _, limit := range []int{0, 1, 3, 8} {
		r, err := NewRetained(schema, limit)
		if err != nil {
			t.Fatal(err)
		}
		var rows []feature.Labeled
		for i := 0; i < 40; i++ {
			li := decodeInstance(byte(rng.Intn(256)))
			if err := r.Add(li); err != nil {
				t.Fatal(err)
			}
			rows = append(rows, li)
			checkRetained(t, r, lastN(rows, limit))
			if i%5 == 4 {
				sameKeys(t, r, lastN(rows, limit), rows[len(rows)-3:])
			}
		}
	}
}

// TestRetainedRefusedAddChangesNothing: a row the schema refuses leaves the
// rows, the slots and the version as they were — at capacity too, where an
// accepted row would have retired the oldest.
func TestRetainedRefusedAddChangesNothing(t *testing.T) {
	schema := fuzzSchema()
	r, err := NewRetained(schema, 3)
	if err != nil {
		t.Fatal(err)
	}
	var rows []feature.Labeled
	for i := 0; i < 5; i++ {
		li := decodeInstance(byte(i * 37))
		if err := r.Add(li); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, li)
		for _, bad := range badRows {
			v, slots := r.Version(), r.Context().NumSlots()
			if err := r.Add(bad); err == nil {
				t.Fatalf("Add(%v) accepted", bad)
			}
			if r.Version() != v || r.Context().NumSlots() != slots {
				t.Fatalf("refused Add moved version %d→%d, slots %d→%d", v, r.Version(), slots, r.Context().NumSlots())
			}
			checkRetained(t, r, lastN(rows, 3))
		}
	}
}

// TestRetainedReplace: Replace keeps the newest limit rows of its input; a
// single refused row anywhere in it, even one the limit would drop, leaves
// everything as it was.
func TestRetainedReplace(t *testing.T) {
	schema := fuzzSchema()
	var items []feature.Labeled
	for i := 0; i < 9; i++ {
		items = append(items, decodeInstance(byte(i*29+3)))
	}
	for _, limit := range []int{0, 4} {
		r, err := NewRetained(schema, limit)
		if err != nil {
			t.Fatal(err)
		}
		for _, li := range items[:2] {
			if err := r.Add(li); err != nil {
				t.Fatal(err)
			}
		}
		before, v := r.Context(), r.Version()
		for _, at := range []int{0, len(items) / 2, len(items)} {
			bad := append(append(append([]feature.Labeled{}, items[:at]...), badRows[0]), items[at:]...)
			if err := r.Replace(bad); err == nil {
				t.Fatalf("limit %d: Replace with a bad row at %d accepted", limit, at)
			}
			if r.Context() != before || r.Version() != v {
				t.Fatalf("limit %d: failed Replace swapped the context or moved the version", limit)
			}
			checkRetained(t, r, items[:2])
		}
		if err := r.Replace(items); err != nil {
			t.Fatal(err)
		}
		checkRetained(t, r, lastN(items, limit))
		sameKeys(t, r, lastN(items, limit), items)
		// Sliding continues oldest first from the replaced rows.
		extra := decodeInstance(200)
		if err := r.Add(extra); err != nil {
			t.Fatal(err)
		}
		checkRetained(t, r, lastN(append(append([]feature.Labeled{}, items...), extra), limit))
	}
}

// TestRetainedVersionMonotonic: the stamp strictly increases over every
// accepted Add and every Replace, including back-to-back Replace(nil) on an
// empty context, whose fresh context restarts its own stamp at zero.
func TestRetainedVersionMonotonic(t *testing.T) {
	schema := fuzzSchema()
	for _, limit := range []int{0, 2} {
		r, err := NewRetained(schema, limit)
		if err != nil {
			t.Fatal(err)
		}
		last := r.Version()
		step := func(what string, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			if v := r.Version(); v <= last {
				t.Fatalf("limit %d, %s: version %d after %d", limit, what, v, last)
			}
			last = r.Version()
		}
		step("first Replace(nil)", r.Replace(nil))
		step("second Replace(nil)", r.Replace(nil))
		for i := 0; i < 5; i++ {
			step("Add", r.Add(decodeInstance(byte(i))))
		}
		step("Replace", r.Replace([]feature.Labeled{decodeInstance(9)}))
		step("Add after Replace", r.Add(decodeInstance(10)))
		step("Replace(nil)", r.Replace(nil))
		step("Replace(nil) again", r.Replace(nil))
	}
}

func TestNewRetainedRejectsNegativeLimit(t *testing.T) {
	if _, err := NewRetained(fuzzSchema(), -1); err == nil {
		t.Fatal("negative limit accepted")
	}
}

// FuzzRetained drives a retained context with arbitrary valid and invalid
// adds and replaces, checking it against a last-N model after every step:
// the rows oldest first, the slot bound, a version that strictly increases
// on success and stays put on refusal, and keys equal to a rebuilt context.
func FuzzRetained(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, byte(3))
	f.Add([]byte{16, 33, 250, 4, 64, 249, 9, 251, 1, 1}, byte(0))
	f.Add([]byte{248, 248, 5, 6, 7, 252, 3, 2}, byte(1))
	f.Fuzz(func(t *testing.T, data []byte, tb byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		schema := fuzzSchema()
		limit := int(tb % 6)
		r, err := NewRetained(schema, limit)
		if err != nil {
			t.Fatal(err)
		}
		var model []feature.Labeled
		for i := 0; i < len(data); i++ {
			b := data[i]
			v := r.Version()
			var err error
			accept := true
			switch {
			case b >= 252: // replace with the next few bytes as rows
				n := int(b - 251)
				var items []feature.Labeled
				for ; n > 0 && i+1 < len(data); n-- {
					i++
					items = append(items, decodeInstance(data[i]))
				}
				err = r.Replace(items)
				model = append([]feature.Labeled{}, lastN(items, limit)...)
			case b >= 248: // replace with a refused row among valid ones
				err = r.Replace([]feature.Labeled{decodeInstance(b), badRows[int(b)%len(badRows)], decodeInstance(b >> 1)})
				accept = false
			case b >= 240: // add a refused row
				err = r.Add(badRows[int(b)%len(badRows)])
				accept = false
			default:
				li := decodeInstance(b)
				err = r.Add(li)
				model = lastN(append(model, li), limit)
			}
			if accept {
				if err != nil {
					t.Fatalf("op %d (%d): %v", i, b, err)
				}
				if r.Version() <= v {
					t.Fatalf("op %d (%d): version %d after %d", i, b, r.Version(), v)
				}
			} else {
				if err == nil {
					t.Fatalf("op %d (%d): refused row accepted", i, b)
				}
				if r.Version() != v {
					t.Fatalf("op %d (%d): refusal moved the version %d→%d", i, b, v, r.Version())
				}
			}
			checkRetained(t, r, model)
		}
		sameKeys(t, r, model, []feature.Labeled{decodeInstance(tb), decodeInstance(tb ^ 0x1b)})
	})
}
