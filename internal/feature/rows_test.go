package feature

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// widthSchema has three attributes, the widest of cardinality card, and
// three labels.
func widthSchema(card int) *Schema {
	values := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprint(i)
		}
		return out
	}
	return MustSchema([]Attribute{
		{Name: "A", Values: values(card)},
		{Name: "B", Values: values(2)},
		{Name: "C", Values: values(3)},
	}, []string{"x", "y", "z"})
}

// randomRow draws a valid row of s.
func randomRow(rng *rand.Rand, s *Schema) Labeled {
	x := make(Instance, s.NumFeatures())
	for a := range x {
		x[a] = Value(rng.Intn(s.Attrs[a].Cardinality()))
	}
	return Labeled{X: x, Y: Label(rng.Intn(len(s.Labels)))}
}

// checkTable asserts the table reads back exactly model, code by code and
// through every copying accessor.
func checkTable(t *testing.T, r *Rows, model []Labeled) {
	t.Helper()
	if r.Len() != len(model) {
		t.Fatalf("Len %d, model %d", r.Len(), len(model))
	}
	all := r.Labeled()
	for i, li := range model {
		for a, v := range li.X {
			if got := r.Value(i, a); got != v {
				t.Fatalf("Value(%d, %d) = %d, model %d", i, a, got, v)
			}
		}
		if r.Label(i) != li.Y {
			t.Fatalf("Label(%d) = %d, model %d", i, r.Label(i), li.Y)
		}
		if row := r.Row(i); !row.X.Equal(li.X) || row.Y != li.Y {
			t.Fatalf("Row(%d) = %v, model %v", i, row, li)
		}
		if !all[i].X.Equal(li.X) || all[i].Y != li.Y {
			t.Fatalf("Labeled()[%d] = %v, model %v", i, all[i], li)
		}
		if !r.AgreesOn(i, li.X, []int{0, 1, 2}) {
			t.Fatalf("row %d disagrees with its own values", i)
		}
	}
}

// TestRowsMatchLabeledModel drives a table and a []Labeled model with the
// same appends and slot reuses at each code width and checks every code.
func TestRowsMatchLabeledModel(t *testing.T) {
	for _, tc := range []struct{ card, width int }{{3, 1}, {300, 2}, {70000, 4}} {
		t.Run(fmt.Sprintf("width%d", tc.width), func(t *testing.T) {
			s := widthSchema(tc.card)
			if vw, lw := Widths(s); vw != tc.width || lw != 1 {
				t.Fatalf("Widths = %d/%d, want %d/1", vw, lw, tc.width)
			}
			rng := rand.New(rand.NewSource(int64(tc.card)))
			r := NewRows(s, 4)
			var model []Labeled
			for step := 0; step < 400; step++ {
				li := randomRow(rng, s)
				if step%5 == 0 {
					// The largest code of the widest domain, to catch a
					// truncating width.
					li.X[0] = Value(tc.card - 1)
				}
				if len(model) > 0 && rng.Intn(3) == 0 {
					i := rng.Intn(len(model)) // a reused slot
					r.Set(i, li)
					model[i] = li
				} else {
					r.Append(li)
					model = append(model, li)
				}
			}
			checkTable(t, r, model)
			if err := r.Validate(s); err != nil {
				t.Fatal(err)
			}

			// The sections round-trip through ReadRows.
			b := r.AppendSections(nil)
			if want := len(model) * (3*tc.width + 1); len(b) != want {
				t.Fatalf("sections of %d bytes, want %d", len(b), want)
			}
			back, err := ReadRows(s, uint64(len(model)), tc.width, 1, b)
			if err != nil {
				t.Fatal(err)
			}
			checkTable(t, back, model)

			// A slice views rows [from, to) and appending to it leaves the
			// table alone.
			view := r.Slice(10, 20)
			checkTable(t, view, model[10:20])
			view.Append(model[0])
			checkTable(t, r, model)

			// Row and Labeled are copies.
			row := r.Row(0)
			r.Set(0, Labeled{X: Instance{0, 0, 0}, Y: 0})
			if !row.X.Equal(model[0].X) {
				t.Fatalf("Row(0) changed with its slot: %v, want %v", row.X, model[0].X)
			}
		})
	}
}

// TestRowsRepack: a table repacked to a narrower schema keeps every code,
// a code the narrower widths cannot hold is refused, and a table already at
// the schema's widths comes back as is.
func TestRowsRepack(t *testing.T) {
	wide, narrow := widthSchema(300), widthSchema(3)
	r := NewRows(wide, 0)
	model := []Labeled{{X: Instance{2, 1, 0}, Y: 2}, {X: Instance{0, 0, 2}, Y: 1}}
	for _, li := range model {
		r.Append(li)
	}
	got, err := r.Repack(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if vw, _ := got.Widths(); vw != 1 {
		t.Fatalf("repacked value width %d, want 1", vw)
	}
	checkTable(t, got, model)
	if same, err := got.Repack(narrow); err != nil || same != got {
		t.Fatalf("Repack at the schema's widths = %p, %v; want the table itself", same, err)
	}
	r.Append(Labeled{X: Instance{299, 0, 0}, Y: 0})
	if _, err := r.Repack(narrow); err == nil {
		t.Fatal("Repack truncated code 299 to one byte")
	}
	if _, err := r.Repack(MustSchema([]Attribute{{Name: "A", Values: []string{"a"}}}, []string{"y"})); err == nil {
		t.Fatal("Repack accepted a schema of another arity")
	}
}

// TestRowsRefuseMisfits: Validate and ReadRows name a code outside its
// domain, and Append refuses to truncate a row that does not fit.
func TestRowsRefuseMisfits(t *testing.T) {
	s := widthSchema(3)
	r := NewRows(s, 0)
	r.Append(Labeled{X: Instance{2, 1, 2}, Y: 2})
	r.Append(Labeled{X: Instance{0, 1, 5}, Y: 0}) // C has 3 values
	if err := r.Validate(s); err == nil {
		t.Fatal("Validate accepted value 5 of a 3-value attribute")
	}
	if _, err := ReadRows(s, 2, 1, 1, r.AppendSections(nil)); err == nil {
		t.Fatal("ReadRows accepted value 5 of a 3-value attribute")
	}
	if _, err := ReadRows(s, 2, 2, 1, make([]byte, 14)); err == nil {
		t.Fatal("ReadRows accepted widths the schema does not imply")
	}
	if _, err := ReadRows(s, 3, 1, 1, r.AppendSections(nil)); err == nil {
		t.Fatal("ReadRows accepted 3 rows in the bytes of 2")
	}
	for name, li := range map[string]Labeled{
		"code 256 at width 1": {X: Instance{256, 0, 0}, Y: 0},
		"negative code":       {X: Instance{-1, 0, 0}, Y: 0},
		"short row":           {X: Instance{0, 0}, Y: 0},
		"label 256":           {X: Instance{0, 0, 0}, Y: 256},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Append stored a row that does not fit")
				}
			}()
			before := slices.Clone(r.AppendSections(nil))
			defer func() {
				if !slices.Equal(before, r.AppendSections(nil)) {
					t.Error("a refused Append changed the table")
				}
			}()
			r.Append(li)
		})
	}
}

// TestRowsOfNoValues: a schema without attributes stores labels only.
func TestRowsOfNoValues(t *testing.T) {
	s := MustSchema(nil, []string{"x", "y"})
	r := NewRows(s, 0)
	r.Append(Labeled{Y: 1})
	r.Append(Labeled{Y: 0})
	if err := r.Validate(s); err != nil || r.Len() != 2 || r.Label(0) != 1 {
		t.Fatalf("Len %d, Label(0) %d, Validate %v", r.Len(), r.Label(0), err)
	}
	back, err := ReadRows(s, 2, 1, 1, r.AppendSections(nil))
	if err != nil || back.Len() != 2 || back.Label(1) != 0 {
		t.Fatalf("ReadRows: %v", err)
	}
}

// validateSchema has five attributes, the first of cardinality card, one
// of a single value, and labels labels: card and labels 3, 300 and 70000
// store codes in 1, 2 and 4 bytes. Five values a row span whole words of
// the word-at-a-time check only every 8/width rows.
func validateSchema(card, labels int) *Schema {
	values := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprint(i)
		}
		return out
	}
	return MustSchema([]Attribute{
		{Name: "A", Values: values(card)},
		{Name: "B", Values: values(2)},
		{Name: "C", Values: values(5)},
		{Name: "D", Values: values(1)},
		{Name: "E", Values: values(7)},
	}, values(labels))
}

// codeAt reads the width-byte little-endian code at the front of b.
func codeAt(b []byte, width int) uint32 {
	var c uint32
	for i := width - 1; i >= 0; i-- {
		c = c<<8 | uint32(b[i])
	}
	return c
}

// setCodeAt writes c as width little-endian bytes at the front of b.
func setCodeAt(b []byte, c uint32, width int) {
	for i := 0; i < width; i++ {
		b[i] = byte(c >> (8 * i))
	}
}

// referenceValidate is Validate's contract read one code at a time: every
// value of every row in row order, then every label, and the error for the
// first code outside its domain.
func referenceValidate(s *Schema, n, vw, lw int, b []byte) error {
	k := s.NumFeatures()
	for i := 0; i < n; i++ {
		for a := 0; a < k; a++ {
			if c := codeAt(b[(i*k+a)*vw:], vw); c >= uint32(s.Attrs[a].Cardinality()) {
				return fmt.Errorf("feature: row %d: value %d out of domain for attribute %q", i, c, s.Attrs[a].Name)
			}
		}
	}
	for i := 0; i < n; i++ {
		if c := codeAt(b[n*k*vw+i*lw:], lw); c >= uint32(len(s.Labels)) {
			return fmt.Errorf("feature: row %d: label %d outside the %d labels", i, c, len(s.Labels))
		}
	}
	return nil
}

// TestValidateNamesFirstBadCode: Validate, through ReadRows, returns the
// exact error a code-by-code reference gives for one code outside its
// domain at the first, a middle or the last row, in every attribute and in
// the label column, at code widths 1, 2 and 4. The bad code is the first
// one outside the domain or the largest the width holds (at width 4 a
// negative int32). A table of 1,003 rows ends in rows the word-at-a-time
// check leaves to its tail loop; a table of one row has no whole block.
// With a second bad code in a later row, the first is still the one named.
func TestValidateNamesFirstBadCode(t *testing.T) {
	for _, width := range []int{1, 2, 4} {
		card := map[int]int{1: 3, 2: 300, 4: 70000}[width]
		s := validateSchema(card, card)
		if vw, lw := Widths(s); vw != width || lw != width {
			t.Fatalf("Widths = %d/%d, want %d/%d", vw, lw, width, width)
		}
		k := s.NumFeatures()
		for _, n := range []int{1, 1003} {
			rng := rand.New(rand.NewSource(int64(29200 + width)))
			valid := NewRows(s, n)
			for i := 0; i < n; i++ {
				valid.Append(randomRow(rng, s))
			}
			sections := valid.AppendSections(nil)
			if _, err := ReadRows(s, uint64(n), width, width, slices.Clone(sections)); err != nil {
				t.Fatalf("width %d, %d rows: valid table refused: %v", width, n, err)
			}
			for _, row := range []int{0, n / 2, n - 1} {
				for col := 0; col <= k; col++ { // col k is the label
					domain, off := len(s.Labels), n*k*width+row*width
					if col < k {
						domain, off = s.Attrs[col].Cardinality(), (row*k+col)*width
					}
					for _, bad := range []uint32{uint32(domain), uint32(1<<(8*width) - 1)} {
						for _, second := range []bool{false, true} {
							b := slices.Clone(sections)
							setCodeAt(b[off:], bad, width)
							if second {
								if row == n-1 {
									continue
								}
								setCodeAt(b[(n-1)*k*width:], uint32(card), width) // attribute A of the last row
							}
							want := referenceValidate(s, n, width, width, b)
							if want == nil {
								t.Fatalf("reference accepted code %d in column %d of row %d", bad, col, row)
							}
							_, err := ReadRows(s, uint64(n), width, width, b)
							if err == nil || err.Error() != want.Error() {
								t.Fatalf("width %d, %d rows, code %d in column %d of row %d (second bad code %v): ReadRows error %v, want %v",
									width, n, bad, col, row, second, err, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestInBoundsMatchesReference: the word-at-a-time check agrees with a
// code-by-code one on random tables of every width and row count up to two
// blocks past a whole one, with columns that admit one code, every code of
// their width, or one fewer, and at most one code in a random row set to
// its column's bound or just below it.
func TestInBoundsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29205))
	for trial := 0; trial < 3000; trial++ {
		width := []int{1, 2, 4}[rng.Intn(3)]
		k := 1 + rng.Intn(9)
		n := rng.Intn(3*8/width + 1)
		laneMax := uint64(1)<<(8*width) - 1
		bounds := make([]uint32, k)
		for a := range bounds {
			switch rng.Intn(4) {
			case 0:
				bounds[a] = 1
			case 1:
				bounds[a] = uint32(min(laneMax+1, 1<<32-1))
			case 2:
				bounds[a] = uint32(laneMax)
			default:
				bounds[a] = 1 + uint32(rng.Intn(int(min(laneMax, 1000))))
			}
		}
		b := make([]byte, n*k*width)
		for j := 0; j < n*k; j++ {
			setCodeAt(b[j*width:], uint32(rng.Int63n(int64(bounds[j%k]))), width)
		}
		if n > 0 && rng.Intn(2) == 0 {
			j := rng.Intn(n * k)
			setCodeAt(b[j*width:], bounds[j%k]-uint32(rng.Intn(2)), width)
		}
		want := true
		for j := 0; j < n*k; j++ {
			if codeAt(b[j*width:], width) >= bounds[j%k] {
				want = false
			}
		}
		if got := inBounds(b, width, bounds); got != want {
			t.Fatalf("width %d, bounds %v, %d rows %x: inBounds %v, want %v", width, bounds, n, b, got, want)
		}
	}
}
