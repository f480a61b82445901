package relativekeys_test

import (
	"errors"
	"testing"

	relativekeys "github.com/xai-db/relativekeys"
)

func loanFixture(t testing.TB) (*relativekeys.Schema, []relativekeys.Labeled) {
	t.Helper()
	schema, err := relativekeys.NewSchema([]relativekeys.Attribute{
		{Name: "Gender", Values: []string{"Male", "Female"}},
		{Name: "Income", Values: []string{"1-2K", "3-4K", "5-6K"}},
		{Name: "Credit", Values: []string{"poor", "good"}},
		{Name: "Dependent", Values: []string{"0", "1", "2"}},
	}, []string{"Denied", "Approved"})
	if err != nil {
		t.Fatal(err)
	}
	items := []relativekeys.Labeled{
		{X: relativekeys.Instance{0, 1, 0, 1}, Y: 0}, // x0
		{X: relativekeys.Instance{0, 2, 0, 1}, Y: 1},
		{X: relativekeys.Instance{1, 1, 0, 2}, Y: 0},
		{X: relativekeys.Instance{0, 1, 0, 1}, Y: 0},
		{X: relativekeys.Instance{0, 0, 0, 1}, Y: 0},
		{X: relativekeys.Instance{0, 1, 1, 0}, Y: 1},
		{X: relativekeys.Instance{0, 1, 1, 1}, Y: 1},
	}
	return schema, items
}

// TestPublicAPIRoundTrip exercises the facade end to end on the paper's
// running example.
func TestPublicAPIRoundTrip(t *testing.T) {
	schema, items := loanFixture(t)
	batch, err := relativekeys.NewBatch(schema, items, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	x0, y0 := items[0].X, items[0].Y
	key, err := batch.Explain(x0, y0)
	if err != nil {
		t.Fatal(err)
	}
	if !key.Equal(relativekeys.NewKey(1, 2)) {
		t.Fatalf("key = %v, want {Income, Credit}", key.Render(schema))
	}
	if !relativekeys.IsAlphaKey(batch.Ctx, x0, y0, key, 1.0) {
		t.Fatal("key not conformant")
	}
	if p := relativekeys.Precision(batch.Ctx, x0, y0, key); p != 1 {
		t.Fatalf("precision = %v", p)
	}
	rule := key.RenderRule(schema, x0, y0)
	want := "IF Income=3-4K ∧ Credit=poor THEN Denied"
	if rule != want {
		t.Fatalf("rule = %q, want %q", rule, want)
	}
}

func TestPublicSRKAndExact(t *testing.T) {
	schema, items := loanFixture(t)
	ctx, err := relativekeys.NewContext(schema, items)
	if err != nil {
		t.Fatal(err)
	}
	x0, y0 := items[0].X, items[0].Y
	greedy, err := relativekeys.SRK(ctx, x0, y0, 6.0/7.0)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := relativekeys.ExactMinKey(ctx, x0, y0, 6.0/7.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(greedy) != 1 || len(exact) != 1 {
		t.Fatalf("α=6/7 keys: greedy %v exact %v", greedy, exact)
	}
	min := relativekeys.Minimize(ctx, x0, y0, relativekeys.NewKey(0, 1, 2, 3), 1.0)
	if v := relativekeys.Violations(ctx, x0, y0, min); v != 0 {
		t.Fatalf("minimized key has %d violations", v)
	}
}

func TestPublicOnlineModes(t *testing.T) {
	schema, items := loanFixture(t)
	x0, y0 := items[0].X, items[0].Y

	online, err := relativekeys.NewOnline(schema, x0, y0, 1.0, 42)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := relativekeys.NewContext(schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range items {
		if _, err := online.Observe(li); err != nil {
			t.Fatal(err)
		}
		if err := ref.Add(li); err != nil {
			t.Fatal(err)
		}
	}
	if online.Len() != ref.Len() {
		t.Fatalf("online monitor counted %d arrivals, want %d", online.Len(), ref.Len())
	}
	if !relativekeys.IsAlphaKey(ref, x0, y0, online.Key(), 1.0) {
		t.Fatal("online key not conformant")
	}

	static, err := relativekeys.NewStatic(schema, items, x0, y0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for j := range items {
		if _, err := static.Observe(j); err != nil {
			t.Fatal(err)
		}
	}
	if !relativekeys.IsAlphaKey(static.Context(), x0, y0, static.Key(), 1.0) {
		t.Fatal("static key not conformant")
	}
}

func TestPublicWindowAndDrift(t *testing.T) {
	schema, items := loanFixture(t)
	w, err := relativekeys.NewWindow(schema, 5, 1, 1.0, relativekeys.LastWins)
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range items {
		if err := w.Observe(li); err != nil {
			t.Fatal(err)
		}
	}
	if w.Size() != 5 {
		t.Fatalf("window size %d, want 5", w.Size())
	}
	d, err := relativekeys.NewDriftMonitor(schema, 1.0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range items {
		if err := d.Observe(li); err != nil {
			t.Fatal(err)
		}
	}
	if d.Arrivals() != len(items) {
		t.Fatal("drift monitor arrivals wrong")
	}
}

func TestPublicErrNoKey(t *testing.T) {
	schema, _ := loanFixture(t)
	conflict := []relativekeys.Labeled{
		{X: relativekeys.Instance{0, 1, 0, 1}, Y: 0},
		{X: relativekeys.Instance{0, 1, 0, 1}, Y: 1},
	}
	ctx, err := relativekeys.NewContext(schema, conflict)
	if err != nil {
		t.Fatal(err)
	}
	_, err = relativekeys.SRK(ctx, conflict[0].X, 0, 1.0)
	if !errors.Is(err, relativekeys.ErrNoKey) {
		t.Fatalf("want ErrNoKey, got %v", err)
	}
}

func TestPublicBucketer(t *testing.T) {
	b, err := relativekeys.NewBucketer(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if b.Bucket(55) != 5 {
		t.Fatalf("Bucket(55) = %d", b.Bucket(55))
	}
}

func TestPublicShapleyAndOrdered(t *testing.T) {
	schema, items := loanFixture(t)
	ctx, err := relativekeys.NewContext(schema, items)
	if err != nil {
		t.Fatal(err)
	}
	x0, y0 := items[0].X, items[0].Y

	order, err := relativekeys.SRKOrdered(ctx, x0, y0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Example 6: Credit (index 2) is picked before Income (index 1).
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("pick order = %v, want [Credit Income]", order)
	}

	phi, err := relativekeys.ContextShapley(ctx, x0, y0, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(phi) != schema.NumFeatures() {
		t.Fatalf("got %d values", len(phi))
	}
	// Credit must be the most important feature.
	best := 0
	for i, v := range phi {
		if v > phi[best] {
			best = i
		}
	}
	if best != 2 {
		t.Fatalf("top feature = %s, want Credit (φ=%v)", schema.Attrs[best].Name, phi)
	}

	on, err := relativekeys.NewOnlineShapley(schema, x0, y0, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range items {
		if err := on.Observe(li); err != nil {
			t.Fatal(err)
		}
	}
	top, err := on.TopFeatures(2)
	if err != nil || len(top) != 2 {
		t.Fatalf("TopFeatures: %v %v", top, err)
	}
}
