package cce

import (
	"math/rand"
	"testing"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/feature"
)

func testSchema(t testing.TB) *feature.Schema {
	t.Helper()
	return feature.MustSchema([]feature.Attribute{
		{Name: "A", Values: []string{"a0", "a1", "a2"}},
		{Name: "B", Values: []string{"b0", "b1"}},
		{Name: "C", Values: []string{"c0", "c1", "c2"}},
		{Name: "D", Values: []string{"d0", "d1"}},
	}, []string{"neg", "pos"})
}

func randomStream(rng *rand.Rand, s *feature.Schema, n int) []feature.Labeled {
	out := make([]feature.Labeled, n)
	for i := range out {
		x := make(feature.Instance, s.NumFeatures())
		for a := range x {
			x[a] = feature.Value(rng.Intn(s.Attrs[a].Cardinality()))
		}
		y := feature.Label(0)
		if (x[0] == 1) != (x[2] == 2) {
			y = 1
		}
		if rng.Intn(20) == 0 {
			y = 1 - y
		}
		out[i] = feature.Labeled{X: x, Y: y}
	}
	return out
}

func TestBatchExplain(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(1))
	inference := randomStream(rng, s, 300)
	b, err := NewBatch(s, inference, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		key, err := b.ExplainRow(i)
		if err == core.ErrNoKey {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		li := b.Ctx.Item(i)
		if !core.IsAlphaKey(b.Ctx, li.X, li.Y, key, 1.0) {
			t.Fatalf("row %d: key not conformant", i)
		}
	}
	if _, err := b.ExplainRow(-1); err == nil {
		t.Fatal("negative row accepted")
	}
	if _, err := b.ExplainRow(10_000); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	if _, err := NewBatch(s, inference, 0); err == nil {
		t.Fatal("α=0 accepted")
	}
}

func TestBatchExplainerInterface(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(2))
	inference := randomStream(rng, s, 200)
	b, err := NewBatch(s, inference, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	ex := b.Explainer(b.ContextLookup())
	if ex.Name() != "CCE" {
		t.Fatal("Name wrong")
	}
	exp, err := ex.Explain(inference[0].X)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Scores != nil {
		t.Fatal("CCE must not produce importance scores")
	}
	// Unknown instance: lookup must fail, not query a model.
	unknown := feature.Instance{2, 1, 2, 1}
	found := false
	for _, li := range inference {
		if li.X.Equal(unknown) {
			found = true
			break
		}
	}
	if !found {
		if _, err := ex.Explain(unknown); err == nil {
			t.Fatal("lookup for unknown instance must fail")
		}
	}
}

func TestOnlineAndStaticConstructors(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(3))
	stream := randomStream(rng, s, 100)
	x0, y0 := stream[0].X, stream[0].Y

	o, err := NewOnline(s, x0, y0, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewContext(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range stream {
		if _, err := o.Observe(li); err != nil {
			t.Fatal(err)
		}
		if err := ref.Add(li); err != nil {
			t.Fatal(err)
		}
	}
	if o.Len() != ref.Len() {
		t.Fatalf("online monitor counted %d arrivals, want %d", o.Len(), ref.Len())
	}
	if !core.IsAlphaKey(ref, x0, y0, o.Key(), 1.0) && o.Conflicts() == 0 {
		t.Fatal("online key not conformant")
	}

	st, err := NewStatic(s, stream, x0, y0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for j := range stream {
		if _, err := st.Observe(j); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWindowPolicies(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(4))
	stream := randomStream(rng, s, 400)
	x0, y0 := stream[0].X, stream[0].Y

	for _, p := range []Policy{FirstWins, LastWins, UnionKey} {
		w, err := NewWindow(s, 100, 20, 1.0, p)
		if err != nil {
			t.Fatal(err)
		}
		var first, last core.Key
		var keys []core.Key
		for i, li := range stream {
			if err := w.Observe(li); err != nil {
				t.Fatal(err)
			}
			if i%50 == 49 && w.Size() > 0 {
				key, err := w.Explain(x0, y0)
				if err == core.ErrNoKey {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = key
				}
				last = key
				keys = append(keys, key)
			}
		}
		switch p {
		case FirstWins:
			for _, k := range keys {
				if !k.Equal(first) {
					t.Fatal("first-wins must never change the key")
				}
			}
		case UnionKey:
			// Union keys are monotone non-decreasing.
			for i := 1; i < len(keys); i++ {
				if !keys[i-1].IsSubset(keys[i]) {
					t.Fatal("union-key must be monotone")
				}
			}
		case LastWins:
			// The resolved key equals the freshest computation.
			fresh, err := core.SRK(w.ctx.Context(), x0, y0, 1.0)
			if err == nil && !last.Equal(fresh) {
				t.Fatal("last-wins must track the latest context")
			}
		}
	}
}

func TestWindowValidation(t *testing.T) {
	s := testSchema(t)
	if _, err := NewWindow(s, 0, 1, 1.0, LastWins); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewWindow(s, 10, 0, 1.0, LastWins); err == nil {
		t.Fatal("zero step accepted")
	}
	if _, err := NewWindow(s, 10, 11, 1.0, LastWins); err == nil {
		t.Fatal("step > capacity accepted")
	}
	if _, err := NewWindow(s, 10, 2, 0, LastWins); err == nil {
		t.Fatal("α=0 accepted")
	}
	w, err := NewWindow(s, 10, 2, 1.0, LastWins)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Observe(feature.Labeled{X: feature.Instance{0}, Y: 0}); err == nil {
		t.Fatal("invalid arrival accepted")
	}
	if Policy(99).String() == "" || LastWins.String() != "last-wins" {
		t.Fatal("Policy.String wrong")
	}
}

// TestWindowRefusesBadPrediction: an arrival whose prediction lies outside
// the label space is refused by Observe itself. Buffering it let the next
// advance retire a good row before the context refused the bad one, and the
// uncleared buffer then re-added its good rows on every later Observe.
func TestWindowRefusesBadPrediction(t *testing.T) {
	s := testSchema(t)
	stream := randomStream(rand.New(rand.NewSource(31)), s, 12)
	w, err := NewWindow(s, 4, 2, 1.0, LastWins)
	if err != nil {
		t.Fatal(err)
	}
	for i, li := range stream {
		if i == 5 {
			if err := w.Observe(feature.Labeled{X: li.X, Y: 7}); err == nil {
				t.Fatal("prediction outside the label space accepted")
			}
		}
		if err := w.Observe(li); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
	want := stream[len(stream)-4:]
	items := w.Items()
	if len(items) != len(want) {
		t.Fatalf("window holds %d rows, want %d", len(items), len(want))
	}
	for i := range want {
		if !items[i].X.Equal(want[i].X) || items[i].Y != want[i].Y {
			t.Fatalf("Items[%d] = %v, want %v", i, items[i], want[i])
		}
	}
}

func TestWindowEviction(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(5))
	stream := randomStream(rng, s, 300)
	w, err := NewWindow(s, 50, 10, 1.0, LastWins)
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range stream {
		if err := w.Observe(li); err != nil {
			t.Fatal(err)
		}
		if w.Size() > 50 {
			t.Fatalf("window overflow: %d", w.Size())
		}
	}
	if w.Version() != 30 {
		t.Fatalf("Version = %d, want 30", w.Version())
	}
	if w.ctx.Context().Len() != 50 {
		t.Fatalf("context size %d, want 50", w.ctx.Context().Len())
	}
}

func TestDriftMonitorDetectsNoise(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(6))
	clean := randomStream(rng, s, 600)
	// Noise phase: labels flipped at random — the concept dissolves.
	noisy := randomStream(rng, s, 400)
	for i := range noisy {
		if rng.Intn(2) == 0 {
			noisy[i].Y = 1 - noisy[i].Y
		}
	}

	base, err := NewDriftMonitor(s, 1.0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	drift, err := NewDriftMonitor(s, 1.0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range clean {
		if err := base.Observe(li); err != nil {
			t.Fatal(err)
		}
		if err := drift.Observe(li); err != nil {
			t.Fatal(err)
		}
	}
	for _, li := range clean[:400] { // base continues clean
		if err := base.Observe(li); err != nil {
			t.Fatal(err)
		}
	}
	for _, li := range noisy { // drift sees noise
		if err := drift.Observe(li); err != nil {
			t.Fatal(err)
		}
	}
	if drift.AvgSuccinctness() <= base.AvgSuccinctness() {
		t.Fatalf("noise did not raise succinctness: drift=%.2f base=%.2f",
			drift.AvgSuccinctness(), base.AvgSuccinctness())
	}
	if base.Arrivals() != 1000 || len(base.History()) != 1000 {
		t.Fatal("history bookkeeping wrong")
	}
	curve, err := drift.CurveAt([]float64{0.2, 0.4, 0.6, 0.8, 1.0})
	if err != nil || len(curve) != 5 {
		t.Fatalf("CurveAt: %v %v", curve, err)
	}
	if _, err := drift.CurveAt([]float64{0}); err == nil {
		t.Fatal("fraction 0 accepted")
	}
}

func TestDriftMonitorValidation(t *testing.T) {
	s := testSchema(t)
	if _, err := NewDriftMonitor(s, 0, 5, 1); err == nil {
		t.Fatal("α=0 accepted")
	}
	if _, err := NewDriftMonitor(s, 1, 0, 1); err == nil {
		t.Fatal("zero panel accepted")
	}
	d, err := NewDriftMonitor(s, 1, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Observe(feature.Labeled{X: feature.Instance{9, 9, 9, 9}, Y: 0}); err == nil {
		t.Fatal("invalid arrival accepted")
	}
	if _, err := d.CurveAt([]float64{0.5}); err == nil {
		t.Fatal("CurveAt before arrivals accepted")
	}
}

func TestWindowReset(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(9))
	stream := randomStream(rng, s, 100)
	w, err := NewWindow(s, 40, 10, 1.0, FirstWins)
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range stream {
		if err := w.Observe(li); err != nil {
			t.Fatal(err)
		}
	}
	x0, y0 := stream[0].X, stream[0].Y
	before, err := w.Explain(x0, y0)
	if err != nil && err != core.ErrNoKey {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.Size() != 0 || w.ctx.Context().Len() != 0 {
		t.Fatal("Reset did not clear the window")
	}
	// After reset the cache is gone: first-wins recomputes from scratch.
	for _, li := range stream[50:] {
		if err := w.Observe(li); err != nil {
			t.Fatal(err)
		}
	}
	after, err := w.Explain(x0, y0)
	if err != nil && err != core.ErrNoKey {
		t.Fatal(err)
	}
	_ = before
	_ = after // keys may coincide; the invariant is that no error occurs
}

func TestExplainAllMatchesSequential(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(12))
	inference := randomStream(rng, s, 400)
	b, err := NewBatch(s, inference, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	par, err := b.ExplainAll(inference[:100], 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, li := range inference[:100] {
		seq, err := b.Explain(li.X, li.Y)
		if err == core.ErrNoKey {
			if par[i] != nil {
				t.Fatalf("row %d: parallel produced a key for a conflict", i)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !par[i].Equal(seq) {
			t.Fatalf("row %d: parallel %v != sequential %v", i, par[i], seq)
		}
	}
	// Degenerate worker counts.
	if _, err := b.ExplainAll(inference[:3], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ExplainAll(nil, 4); err != nil {
		t.Fatal(err)
	}
}
