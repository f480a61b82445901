package cce

import (
	"fmt"
	"math"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

// assertSamePanel checks that two drift monitors are indistinguishable: the
// History bit for bit, Arrivals, AvgSuccinctness, and every member's key,
// arrival count and conflict count.
func assertSamePanel(t *testing.T, got, want *DriftMonitor) {
	t.Helper()
	gh, wh := got.History(), want.History()
	if len(gh) != len(wh) {
		t.Fatalf("history has %d points, want %d", len(gh), len(wh))
	}
	for i := range wh {
		if math.Float64bits(gh[i]) != math.Float64bits(wh[i]) {
			t.Fatalf("history[%d] = %v, want %v", i, gh[i], wh[i])
		}
	}
	if g, w := got.Arrivals(), want.Arrivals(); g != w {
		t.Fatalf("arrivals %d, want %d", g, w)
	}
	if g, w := got.AvgSuccinctness(), want.AvgSuccinctness(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("avg succinctness %v, want %v", g, w)
	}
	if len(got.monitors) != len(want.monitors) {
		t.Fatalf("panel has %d members, want %d", len(got.monitors), len(want.monitors))
	}
	for j, w := range want.monitors {
		g := got.monitors[j]
		if !g.Key().Equal(w.Key()) || g.Len() != w.Len() || g.Conflicts() != w.Conflicts() {
			t.Fatalf("member %d: key %v len %d conflicts %d, want key %v len %d conflicts %d",
				j, g.Key(), g.Len(), g.Conflicts(), w.Key(), w.Len(), w.Conflicts())
		}
	}
}

// observeEach feeds rows one at a time, as /observe does.
func observeEach(t *testing.T, d *DriftMonitor, rows []feature.Labeled) {
	t.Helper()
	for _, li := range rows {
		if err := d.Observe(li); err != nil {
			t.Fatal(err)
		}
	}
}

// TestObserveAllDifferential: a batch through ObserveAll leaves the panel
// bit-identical to the same rows fed one at a time, whether the panel is
// fresh, half filled or full when the batch arrives, and every member's RNG
// sits at the same draw: the two monitors stay identical over 2,000 further
// single arrivals. A batch holding an invalid row anywhere is refused whole.
func TestObserveAllDifferential(t *testing.T) {
	stream, schema := goldenStream(t, 6000)
	const panel = 10
	// Splice in, after the panel fills, each member's x₀ with the other
	// prediction: rows no key can exclude.
	var rows []feature.Labeled
	rows = append(rows, stream[:panel+20]...)
	for _, li := range stream[:panel] {
		rows = append(rows, feature.Labeled{X: li.X.Clone(), Y: (li.Y + 1) % feature.Label(len(schema.Labels))})
	}
	rows = append(rows, stream[panel+20:]...)

	cases := []struct {
		name     string
		split, n int // rows fed one at a time first; rows in the batch
	}{
		{"fresh", 0, 3000},
		{"half-filled", 3, 3000},
		{"full", panel, 3000},
		{"past-full", panel + 17, 3000},
		{"empty-batch", 3, 0},
		{"shorter-than-open-slots", 3, 4},
	}
	for _, alpha := range []float64{1, 0.9} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("alpha=%v/%s", alpha, tc.name), func(t *testing.T) {
				want, err := NewDriftMonitor(schema, alpha, panel, 1)
				if err != nil {
					t.Fatal(err)
				}
				got, err := NewDriftMonitor(schema, alpha, panel, 1)
				if err != nil {
					t.Fatal(err)
				}
				prefix, batch := rows[:tc.split], rows[tc.split:tc.split+tc.n]
				tail := rows[tc.split+tc.n : tc.split+tc.n+2000]
				observeEach(t, want, prefix)
				observeEach(t, want, batch)
				observeEach(t, got, prefix)
				if err := got.ObserveAll(batch); err != nil {
					t.Fatal(err)
				}
				assertSamePanel(t, got, want)
				if alpha == 1 && tc.n > panel+20 {
					conflicts := 0
					for _, m := range want.monitors {
						conflicts += m.Conflicts()
					}
					if conflicts == 0 {
						t.Fatal("no member met a conflicting row; the case exercised nothing")
					}
				}
				observeEach(t, want, tail)
				observeEach(t, got, tail)
				assertSamePanel(t, got, want)
			})
		}
	}

	t.Run("invalid-row", func(t *testing.T) {
		outOfDomain := rows[1].X.Clone()
		outOfDomain[0] = feature.Value(schema.Attrs[0].Cardinality())
		bad := []feature.Labeled{
			{X: rows[0].X, Y: feature.Label(len(schema.Labels))}, // label outside the label space
			{X: outOfDomain, Y: rows[1].Y},
		}
		for _, at := range []int{0, 250, 499} {
			for b, li := range bad {
				want, err := NewDriftMonitor(schema, 1, panel, 1)
				if err != nil {
					t.Fatal(err)
				}
				got, err := NewDriftMonitor(schema, 1, panel, 1)
				if err != nil {
					t.Fatal(err)
				}
				observeEach(t, want, rows[:3])
				observeEach(t, got, rows[:3])
				batch := append([]feature.Labeled{}, rows[3:503]...)
				batch[at] = li
				if err := got.ObserveAll(batch); err == nil {
					t.Fatalf("bad row %d at %d accepted", b, at)
				}
				assertSamePanel(t, got, want)
				observeEach(t, want, rows[3:503])
				observeEach(t, got, rows[3:503])
				assertSamePanel(t, got, want)
			}
		}
	})
}

// fuzzRow decodes one byte as a row over testSchema: its 3·2·3·2 feature
// vectors times 2 labels, so short inputs revisit rows and conflicts.
func fuzzRow(b byte) feature.Labeled {
	v := int(b) % 72
	return feature.Labeled{
		X: feature.Instance{feature.Value(v % 3), feature.Value(v / 3 % 2), feature.Value(v / 6 % 3), feature.Value(v / 18 % 2)},
		Y: feature.Label(v / 36),
	}
}

// FuzzObserveAll: for any panel size, α, split point and rows, one batch
// through ObserveAll after a per-row prefix equals per-row ObserveCtx all
// the way, and stays equal when both monitors then see the rows again one at
// a time.
func FuzzObserveAll(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 40, 41, 42, 43, 0, 36}, byte(3), byte(0), byte(2))
	f.Add([]byte{5, 41, 5, 41, 17, 53, 70, 34, 9, 45, 9, 45}, byte(1), byte(40), byte(0))
	f.Add([]byte{}, byte(2), byte(0), byte(0))
	f.Fuzz(func(t *testing.T, data []byte, panelB, alphaB, splitB byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		schema := testSchema(t)
		panel := 1 + int(panelB%6)
		alpha := 1 - float64(alphaB%200)/256
		rows := make([]feature.Labeled, len(data))
		for i, b := range data {
			rows[i] = fuzzRow(b)
		}
		split := int(splitB) % (len(rows) + 1)
		want, err := NewDriftMonitor(schema, alpha, panel, int64(panelB))
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewDriftMonitor(schema, alpha, panel, int64(panelB))
		if err != nil {
			t.Fatal(err)
		}
		observeEach(t, want, rows)
		observeEach(t, got, rows[:split])
		if err := got.ObserveAll(rows[split:]); err != nil {
			t.Fatal(err)
		}
		assertSamePanel(t, got, want)
		observeEach(t, want, rows)
		observeEach(t, got, rows)
		assertSamePanel(t, got, want)
	})
}
