package core

import (
	"math/rand"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

func randomLoanRow(rng *rand.Rand) feature.Labeled {
	x := feature.Instance{
		feature.Value(rng.Intn(2)),
		feature.Value(rng.Intn(3)),
		feature.Value(rng.Intn(2)),
		feature.Value(rng.Intn(3)),
	}
	return feature.Labeled{X: x, Y: feature.Label(rng.Intn(2))}
}

func TestRemoveClearsIndex(t *testing.T) {
	c, _, _ := loanContext(t)
	n := c.Len()
	victim := c.Item(2)
	if err := c.Remove(2); err != nil {
		t.Fatal(err)
	}
	if c.Len() != n-1 {
		t.Fatalf("Len = %d, want %d", c.Len(), n-1)
	}
	if c.Alive(2) {
		t.Fatal("removed slot still alive")
	}
	for a, v := range victim.X {
		if c.Posting(a, v).Contains(2) {
			t.Fatalf("posting[%d][%d] still holds removed slot", a, v)
		}
	}
	if c.LabelSet(victim.Y).Contains(2) {
		t.Fatal("label set still holds removed slot")
	}
	if c.Disagreeing(1 - victim.Y).Contains(2) {
		t.Fatal("Disagreeing still holds removed slot")
	}
	// Double remove and out-of-range removes error.
	if err := c.Remove(2); err == nil {
		t.Fatal("double remove accepted")
	}
	if err := c.Remove(-1); err == nil || c.Remove(99) == nil {
		t.Fatal("out-of-range remove accepted")
	}
}

func TestSlotReuse(t *testing.T) {
	s := loanSchema(t)
	c, err := NewContextSized(s, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	// Fill 8 slots, then cycle remove-oldest/add 1000 times: the physical
	// slot count must never exceed the occupancy high-water mark.
	var slots []int
	for i := 0; i < 8; i++ {
		slot, err := c.AddSlot(randomLoanRow(rng))
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, slot)
	}
	for i := 0; i < 1000; i++ {
		if err := c.Remove(slots[0]); err != nil {
			t.Fatal(err)
		}
		slots = slots[1:]
		slot, err := c.AddSlot(randomLoanRow(rng))
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, slot)
	}
	if c.Len() != 8 {
		t.Fatalf("Len = %d, want 8", c.Len())
	}
	if c.NumSlots() > 8 {
		t.Fatalf("NumSlots = %d after steady-state churn, want ≤ 8", c.NumSlots())
	}
	if len(c.LiveItems()) != 8 {
		t.Fatalf("LiveItems = %d, want 8", len(c.LiveItems()))
	}
}

// TestIncrementalMatchesRebuilt is the context-level differential oracle: a
// context maintained by interleaved AddSlot/Remove must be observationally
// identical (postings, label sets, Disagreeing, SRK keys) to one built fresh
// from the surviving rows.
func TestIncrementalMatchesRebuilt(t *testing.T) {
	s := loanSchema(t)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		inc, err := NewContextSized(s, nil, 16)
		if err != nil {
			t.Fatal(err)
		}
		type liveRow struct {
			slot int
			li   feature.Labeled
		}
		var live []liveRow
		ops := 200 + rng.Intn(200)
		for op := 0; op < ops; op++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				if err := inc.Remove(live[k].slot); err != nil {
					t.Fatal(err)
				}
				live = append(live[:k], live[k+1:]...)
			} else {
				li := randomLoanRow(rng)
				slot, err := inc.AddSlot(li)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, liveRow{slot, li})
			}
		}
		rows := make([]feature.Labeled, len(live))
		for i, lr := range live {
			rows[i] = lr.li
		}
		fresh, err := NewContext(s, rows)
		if err != nil {
			t.Fatal(err)
		}
		if inc.Len() != fresh.Len() {
			t.Fatalf("trial %d: Len %d vs %d", trial, inc.Len(), fresh.Len())
		}
		// Aggregate index counts match.
		for a := range s.Attrs {
			for v := 0; v < s.Attrs[a].Cardinality(); v++ {
				if inc.Posting(a, feature.Value(v)).Count() != fresh.Posting(a, feature.Value(v)).Count() {
					t.Fatalf("trial %d: posting[%d][%d] count mismatch", trial, a, v)
				}
			}
		}
		for y := range s.Labels {
			if inc.LabelSet(feature.Label(y)).Count() != fresh.LabelSet(feature.Label(y)).Count() {
				t.Fatalf("trial %d: label set %d count mismatch", trial, y)
			}
			if inc.Disagreeing(feature.Label(y)).Count() != fresh.Disagreeing(feature.Label(y)).Count() {
				t.Fatalf("trial %d: Disagreeing(%d) count mismatch", trial, y)
			}
		}
		// SRK must produce byte-identical keys on both (greedy choices and
		// frequency tie-breaks depend only on live rows).
		for probe := 0; probe < 10 && len(rows) > 0; probe++ {
			q := rows[rng.Intn(len(rows))]
			alpha := []float64{1.0, 0.9, 0.8}[rng.Intn(3)]
			kInc, errInc := SRK(inc, q.X, q.Y, alpha)
			kFresh, errFresh := SRK(fresh, q.X, q.Y, alpha)
			if (errInc == nil) != (errFresh == nil) {
				t.Fatalf("trial %d: SRK errors diverge: %v vs %v", trial, errInc, errFresh)
			}
			if errInc == nil && !kInc.Equal(kFresh) {
				t.Fatalf("trial %d: keys diverge: %v vs %v", trial, kInc, kFresh)
			}
			if vInc, vFresh := Violations(inc, q.X, q.Y, kInc), Violations(fresh, q.X, q.Y, kFresh); vInc != vFresh {
				t.Fatalf("trial %d: violations diverge: %d vs %d", trial, vInc, vFresh)
			}
		}
	}
}

func TestDisagreeingInto(t *testing.T) {
	c, _, _ := loanContext(t)
	want := c.Disagreeing(1)
	got := getDisagreeing(c, 1)
	defer putScratch(got)
	if !got.Equal(want) {
		t.Fatalf("pooled Disagreeing differs: %v vs %v", got.Slice(), want.Slice())
	}
	// Out-of-range labels disagree with every live row.
	if c.Disagreeing(-1).Count() != c.Len() || c.Disagreeing(99).Count() != c.Len() {
		t.Fatal("out-of-range label must disagree with all live rows")
	}
}

// TestBudgetScaleAware pins ⌊(1−α)·n⌋ across nine orders of magnitude of n:
// the tolerance must absorb the float error of the product (which grows with
// n) without ever over-budgeting an honestly fractional product. The oracle
// uses exact integer arithmetic on α expressed as a percentage.
func TestBudgetScaleAware(t *testing.T) {
	alphas := []int{60, 70, 75, 80, 90, 95, 99} // percent
	ns := []int{10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000}
	for _, a := range alphas {
		alpha := float64(a) / 100
		for _, n := range ns {
			want := int(int64(n) * int64(100-a) / 100) // exact ⌊(1−α)·n⌋
			if got := Budget(alpha, n); got != want {
				t.Errorf("Budget(%d%%, %d) = %d, want %d", a, n, got, want)
			}
		}
	}
	// The regression the fix targets: α=0.7, n=10⁸. (1−0.7)·10⁸ evaluates
	// to 29999999.999999999 in float64; the old absolute 1e-9 epsilon
	// truncated it to 29999999.
	if got := Budget(0.7, 100_000_000); got != 30_000_000 {
		t.Errorf("Budget(0.7, 1e8) = %d, want 30000000", got)
	}
	// Honest fractional products must still truncate.
	if got := Budget(0.85, 9); got != 1 { // 1.3499... → 1
		t.Errorf("Budget(0.85, 9) = %d, want 1", got)
	}
}

// TestReadRowsAreCopies: a row read out with Item, Items or LiveItems keeps
// its values after its slot is retired and reused, whose row the context
// overwrites in place.
func TestReadRowsAreCopies(t *testing.T) {
	c, _, _ := loanContext(t)
	item, items, live := c.Item(2), c.Items(), c.LiveItems()
	want := item.X.Clone()
	if err := c.Remove(2); err != nil {
		t.Fatal(err)
	}
	other := feature.Labeled{X: feature.Instance{1 - want[0], (want[1] + 1) % 3, 1 - want[2], (want[3] + 1) % 3}, Y: 1 - item.Y}
	slot, err := c.AddSlot(other)
	if err != nil {
		t.Fatal(err)
	}
	if slot != 2 {
		t.Fatalf("the arrival took slot %d, not the retired slot 2", slot)
	}
	if got := c.Item(2); !got.X.Equal(other.X) || got.Y != other.Y {
		t.Fatalf("slot 2 holds %v, want the arrival %v", got, other)
	}
	for name, got := range map[string]feature.Labeled{"Item": item, "Items": items[2], "LiveItems": live[2]} {
		if !got.X.Equal(want) || got.Y != 1-other.Y {
			t.Errorf("%s row read before the reuse changed to %v, want %v", name, got, want)
		}
	}
}
