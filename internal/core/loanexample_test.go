package core

import (
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

// loanSchema and loanContext reproduce the running example of the paper
// (Fig. 2): 7 loan applications over Gender, Income, Credit, Dependent.
const (
	attrGender = iota
	attrIncome
	attrCredit
	attrDependent
)

func loanSchema(t testing.TB) *feature.Schema {
	t.Helper()
	return feature.MustSchema([]feature.Attribute{
		{Name: "Gender", Values: []string{"Male", "Female"}},
		{Name: "Income", Values: []string{"1-2K", "3-4K", "5-6K"}},
		{Name: "Credit", Values: []string{"poor", "good"}},
		{Name: "Dependent", Values: []string{"0", "1", "2"}},
	}, []string{"Denied", "Approved"})
}

// loanInstances returns the 7 instances of Fig. 2 in order x0..x6.
func loanInstances(t testing.TB, s *feature.Schema) []feature.Labeled {
	t.Helper()
	mk := func(gender, income, credit, dep, pred string) feature.Labeled {
		x := feature.Instance{
			s.Attrs[attrGender].ValueCode(gender),
			s.Attrs[attrIncome].ValueCode(income),
			s.Attrs[attrCredit].ValueCode(credit),
			s.Attrs[attrDependent].ValueCode(dep),
		}
		if err := s.Validate(x); err != nil {
			t.Fatalf("bad fixture: %v", err)
		}
		return feature.Labeled{X: x, Y: s.LabelCode(pred)}
	}
	return []feature.Labeled{
		mk("Male", "3-4K", "poor", "1", "Denied"),   // x0
		mk("Male", "5-6K", "poor", "1", "Approved"), // x1
		mk("Female", "3-4K", "poor", "2", "Denied"), // x2
		mk("Male", "3-4K", "poor", "1", "Denied"),   // x3
		mk("Male", "1-2K", "poor", "1", "Denied"),   // x4
		mk("Male", "3-4K", "good", "0", "Approved"), // x5
		mk("Male", "3-4K", "good", "1", "Approved"), // x6
	}
}

func loanContext(t testing.TB) (*Context, feature.Instance, feature.Label) {
	t.Helper()
	s := loanSchema(t)
	items := loanInstances(t, s)
	c, err := NewContext(s, items)
	if err != nil {
		t.Fatal(err)
	}
	return c, items[0].X, items[0].Y
}

// TestExample3 reproduces Example 3: the key for x0 relative to I0 is
// {Income, Credit}.
func TestExample3(t *testing.T) {
	c, x0, y0 := loanContext(t)
	key, err := SRK(c, x0, y0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	want := NewKey(attrIncome, attrCredit)
	if !key.Equal(want) {
		t.Fatalf("SRK = %v, want %v", key.Render(c.Schema), want.Render(c.Schema))
	}
	if !IsAlphaKey(c, x0, y0, key, 1.0) {
		t.Fatal("key is not 1-conformant")
	}
	if !IsMinimal(c, x0, y0, key, 1.0) {
		t.Fatal("key is not minimal")
	}
}

// TestExample4 reproduces Example 4: a 6/7-conformant key for x0 is {Credit}.
func TestExample4(t *testing.T) {
	c, x0, y0 := loanContext(t)
	key, err := SRK(c, x0, y0, 6.0/7.0)
	if err != nil {
		t.Fatal(err)
	}
	want := NewKey(attrCredit)
	if !key.Equal(want) {
		t.Fatalf("SRK(6/7) = %v, want %v", key.Render(c.Schema), want.Render(c.Schema))
	}
}

// TestExample6Trace verifies the greedy trace of Example 6: Credit is picked
// before Income.
func TestExample6Trace(t *testing.T) {
	c, x0, y0 := loanContext(t)
	// After E = {Credit}, exactly one violator (x1) remains.
	if v := Violations(c, x0, y0, NewKey(attrCredit)); v != 1 {
		t.Fatalf("Violations({Credit}) = %d, want 1", v)
	}
	if v := Violations(c, x0, y0, NewKey(attrIncome, attrCredit)); v != 0 {
		t.Fatalf("Violations({Income,Credit}) = %d, want 0", v)
	}
	// Credit alone excludes more violators than any other single feature.
	for a, want := range map[int]int{attrGender: 3, attrIncome: 2, attrCredit: 1, attrDependent: 2} {
		if v := Violations(c, x0, y0, NewKey(a)); v != want {
			t.Fatalf("Violations({%s}) = %d, want %d", c.Schema.Attrs[a].Name, v, want)
		}
	}
}

// TestExample7Stream replays the online stream of Example 7 through OSRK and
// checks conformity and coherence at every step (the exact features picked
// are randomized, so only the invariants are asserted).
func TestExample7Stream(t *testing.T) {
	s := loanSchema(t)
	items := loanInstances(t, s)
	x0, y0 := items[0].X, items[0].Y
	extra := []feature.Labeled{
		{X: feature.Instance{1, 1, 0, 2}, Y: 0}, // x7: Female,3-4K,poor,2 → Denied
		{X: feature.Instance{0, 1, 1, 1}, Y: 1}, // x8: Male,3-4K,good,1 → Approved
		{X: feature.Instance{0, 1, 0, 0}, Y: 1}, // x9: Male,3-4K,poor,0 → Approved
	}
	o, err := NewOSRK(s, x0, y0, 1.0, 99)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewContext(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := Key{}
	for _, li := range append(items, extra...) {
		key, err := o.Observe(li)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Add(li); err != nil {
			t.Fatal(err)
		}
		if !prev.IsSubset(key) {
			t.Fatalf("coherence violated: %v ⊄ %v", prev, key)
		}
		if !IsAlphaKey(ref, x0, y0, key, 1.0) {
			t.Fatalf("key %v not conformant after %d arrivals", key, o.Len())
		}
		prev = key
	}
	// x9 disagrees with x0 only on Dependent among non-picked features, so
	// the final key must separate it: x9 must not agree with x0 on the key.
	final := o.Key()
	if extra[2].X.AgreesOn(x0, final) {
		t.Fatalf("final key %v does not exclude x9", final.Render(s))
	}
}
