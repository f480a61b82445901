package feature

import (
	"strings"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]Attribute{
		{Name: "Color", Values: []string{"red", "green", "blue"}},
		{Name: "Size", Values: []string{"S", "M", "L", "XL"}},
	}, []string{"no", "yes"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaValidation(t *testing.T) {
	cases := []struct {
		name   string
		attrs  []Attribute
		labels []string
	}{
		{"empty name", []Attribute{{Name: "", Values: []string{"a"}}}, []string{"y"}},
		{"empty domain", []Attribute{{Name: "A", Values: nil}}, []string{"y"}},
		{"duplicate", []Attribute{{Name: "A", Values: []string{"a"}}, {Name: "A", Values: []string{"b"}}}, []string{"y"}},
		{"no labels", []Attribute{{Name: "A", Values: []string{"a"}}}, nil},
	}
	for _, c := range cases {
		if _, err := NewSchema(c.attrs, c.labels); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestSchemaLookups(t *testing.T) {
	s := testSchema(t)
	if s.NumFeatures() != 2 {
		t.Fatalf("NumFeatures = %d", s.NumFeatures())
	}
	if s.AttrIndex("Size") != 1 || s.AttrIndex("nope") != -1 {
		t.Fatal("AttrIndex wrong")
	}
	if s.Attrs[0].ValueCode("blue") != 2 || s.Attrs[0].ValueCode("cyan") != -1 {
		t.Fatal("ValueCode wrong")
	}
	if s.LabelCode("yes") != 1 || s.LabelCode("maybe") != -1 {
		t.Fatal("LabelCode wrong")
	}
	if s.SpaceSize() != 12 {
		t.Fatalf("SpaceSize = %v, want 12", s.SpaceSize())
	}
}

func TestValidate(t *testing.T) {
	s := testSchema(t)
	if err := s.Validate(Instance{0, 3}); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	if err := s.Validate(Instance{0}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if err := s.Validate(Instance{3, 0}); err == nil {
		t.Fatal("out-of-domain value accepted")
	}
	if err := s.Validate(Instance{-1, 0}); err == nil {
		t.Fatal("negative value accepted")
	}
}

func TestInstanceOps(t *testing.T) {
	x := Instance{1, 2, 3}
	y := x.Clone()
	y[0] = 9
	if x[0] != 1 {
		t.Fatal("Clone aliases memory")
	}
	if !x.Equal(Instance{1, 2, 3}) || x.Equal(y) || x.Equal(Instance{1, 2}) {
		t.Fatal("Equal wrong")
	}
	if !x.AgreesOn(y, []int{1, 2}) || x.AgreesOn(y, []int{0}) {
		t.Fatal("AgreesOn wrong")
	}
	if !x.AgreesOn(y, nil) {
		t.Fatal("AgreesOn(∅) must be true")
	}
}

func TestRender(t *testing.T) {
	s := testSchema(t)
	got := Render(s, Instance{2, 1})
	if got != "Color=blue, Size=M" {
		t.Fatalf("Render = %q", got)
	}
	if !strings.Contains(Instance{2, 1}.String(), "2,1") {
		t.Fatalf("String = %q", Instance{2, 1}.String())
	}
}

func TestBucketerBasics(t *testing.T) {
	b, err := NewBucketer(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[float64]Value{-5: 0, 0: 0, 1.9: 0, 2: 1, 9.9: 4, 10: 4, 100: 4}
	for v, want := range cases {
		if got := b.Bucket(v); got != want {
			t.Errorf("Bucket(%v) = %d, want %d", v, got, want)
		}
	}
	if len(b.Labels()) != 5 {
		t.Fatal("Labels count")
	}
	attr := b.Attribute("Amount")
	if attr.Name != "Amount" || attr.Cardinality() != 5 {
		t.Fatal("Attribute wrong")
	}
}

func TestBucketerDegenerate(t *testing.T) {
	b, err := NewBucketer(3, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Bucket(3) != 0 || b.Bucket(100) != 0 {
		t.Fatal("degenerate range must map to bucket 0")
	}
	if _, err := NewBucketer(0, 1, 0); err == nil {
		t.Fatal("zero buckets accepted")
	}
	if _, err := NewBucketer(2, 1, 3); err == nil {
		t.Fatal("inverted range accepted")
	}
}

// Property: bucket codes are always in range, monotone in the input value.
func TestQuickBucketMonotone(t *testing.T) {
	b, _ := NewBucketer(-100, 100, 13)
	f := func(a, c float64) bool {
		if a > c {
			a, c = c, a
		}
		ba, bc := b.Bucket(a), b.Bucket(c)
		return ba >= 0 && int(bc) < b.K && ba <= bc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
