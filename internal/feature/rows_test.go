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
