package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

// bulkSchema has a first attribute of cardinality card, two narrow ones and
// labels labels: card 3, 300 and 70000 store values in 1, 2 and 4 bytes.
func bulkSchema(card, labels int) *feature.Schema {
	values := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprint(i)
		}
		return out
	}
	return feature.MustSchema([]feature.Attribute{
		{Name: "A", Values: values(card)},
		{Name: "B", Values: values(2)},
		{Name: "C", Values: values(5)},
	}, values(labels))
}

// tableOf packs rows into a table over s.
func tableOf(s *feature.Schema, rows []feature.Labeled) *feature.Rows {
	t := feature.NewRows(s, len(rows))
	for _, li := range rows {
		t.Append(li)
	}
	return t
}

// sameIndex asserts two contexts index the same rows identically: every
// posting list, label set and count-table entry, the live mask with its
// reserve, Len, Version, NumSlots and NumWords, and the rows themselves.
func sameIndex(t *testing.T, got, want *Context, when string) {
	t.Helper()
	if got.Len() != want.Len() || got.Version() != want.Version() || got.NumSlots() != want.NumSlots() {
		t.Fatalf("%s: Len %d Version %d NumSlots %d, want %d %d %d", when,
			got.Len(), got.Version(), got.NumSlots(), want.Len(), want.Version(), want.NumSlots())
	}
	if !got.live.Equal(want.live) || got.live.NumWords() != want.live.NumWords() || cap(got.live.Words()) != cap(want.live.Words()) {
		t.Fatalf("%s: live mask %v (%d words, cap %d), want %v (%d, cap %d)", when, got.live.Slice(), got.live.NumWords(),
			cap(got.live.Words()), want.live.Slice(), want.live.NumWords(), cap(want.live.Words()))
	}
	for a := range want.post {
		for v := range want.post[a] {
			g, w := got.post[a][v], want.post[a][v]
			if !g.Equal(w) || cap(g.Words()) != cap(w.Words()) {
				t.Fatalf("%s: posting (%d,%d) = %v (cap %d), want %v (cap %d)", when, a, v, g.Slice(), cap(g.Words()), w.Slice(), cap(w.Words()))
			}
		}
		for j, w := range want.labelCount[a] {
			if g := got.labelCount[a][j]; g != w {
				t.Fatalf("%s: count (%d, value %d, label %d) = %d, want %d", when, a, j/len(want.byLabel), j%len(want.byLabel), g, w)
			}
		}
	}
	for y := range want.byLabel {
		if !got.byLabel[y].Equal(want.byLabel[y]) || got.labelLive[y] != want.labelLive[y] {
			t.Fatalf("%s: label set %d = %v (%d live), want %v (%d)", when, y, got.byLabel[y].Slice(), got.labelLive[y],
				want.byLabel[y].Slice(), want.labelLive[y])
		}
	}
	for i := 0; i < want.NumSlots(); i++ {
		if g, w := got.Item(i), want.Item(i); !g.X.Equal(w.X) || g.Y != w.Y {
			t.Fatalf("%s: slot %d holds %v, want %v", when, i, g, w)
		}
	}
}

// TestBulkIndexDifferential: the column-at-a-time build behind ReplaceRows
// and NewContextRows leaves a context identical to one grown row by row by
// Add, at value widths 1, 2 and 4, with narrow and wide label spaces, for
// row counts around the word boundary and around splitBuildRows, where the
// build splits the attributes across goroutines, and with capacity at and
// above the row count, and the two stay identical through later adds and
// removals. A code outside its domain, or a label outside the label space,
// at the first, a middle or the last row is refused with
// feature.Rows.Validate's error, and ReplaceRows then leaves the context and
// its Version as they were; above splitBuildRows that includes a code of
// the last attribute, which the last goroutine builds. GOMAXPROCS is raised
// to at least 2 for the test, so the split runs on a one-CPU host too.
func TestBulkIndexDifferential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	schemas := []struct {
		card, labels int
	}{{3, 3}, {300, 3}, {70000, 3}, {3, 70}}
	for _, sc := range schemas {
		s := bulkSchema(sc.card, sc.labels)
		for _, n := range []int{0, 1, 63, 64, 65, 1000, splitBuildRows - 1, splitBuildRows + 1} {
			if sc.card > 1<<16 && n >= splitBuildRows-1 {
				// 70,000 postings of n/64 words in each context; the 4-byte
				// codes take the row-by-row path card 300 covers here.
				continue
			}
			for _, extra := range []int{0, 100} {
				name := fmt.Sprintf("card=%d/labels=%d/n=%d/capacity=n+%d", sc.card, sc.labels, n, extra)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(28400 + n + extra + sc.card)))
					rows := randomRows(rng, s, n)
					want, err := NewContextSized(s, nil, n+extra)
					if err != nil {
						t.Fatal(err)
					}
					for _, li := range rows {
						if err := want.Add(li); err != nil {
							t.Fatal(err)
						}
					}
					got, err := newContextRows(s, tableOf(s, rows), n+extra)
					if err != nil {
						t.Fatal(err)
					}
					sameIndex(t, got, want, "built")
					// Later mutations see the same index: a removal, a slot
					// reuse, and growth past the reserve.
					more := randomRows(rng, s, extra+70)
					if n > 0 {
						slot := rng.Intn(n)
						for _, c := range []*Context{got, want} {
							if err := c.Remove(slot); err != nil {
								t.Fatal(err)
							}
						}
					}
					for _, li := range more {
						for _, c := range []*Context{got, want} {
							if err := c.Add(li); err != nil {
								t.Fatal(err)
							}
						}
					}
					sameIndex(t, got, want, "after adds and a removal")
				})
			}
		}
	}

	s := bulkSchema(300, 3)
	bad := []struct {
		name string
		set  func(li *feature.Labeled)
	}{
		{"wide value", func(li *feature.Labeled) { li.X[0] = 300 }},
		{"narrow value", func(li *feature.Labeled) { li.X[1] = 2 }},
		{"last value", func(li *feature.Labeled) { li.X[2] = 5 }},
		{"label", func(li *feature.Labeled) { li.Y = 3 }},
	}
	for _, size := range []struct {
		prefix string
		rows   []feature.Labeled
		at     []int
	}{
		{"refuse", randomRows(rand.New(rand.NewSource(28401)), s, 1000), []int{0, 517, 999}},
		{"refuse-split", randomRows(rand.New(rand.NewSource(29301)), s, splitBuildRows+1), []int{0, splitBuildRows / 2, splitBuildRows}},
	} {
		rows := size.rows
		for _, at := range size.at {
			for _, b := range bad {
				t.Run(fmt.Sprintf("%s/%s/row=%d", size.prefix, b.name, at), func(t *testing.T) {
					corrupt := append([]feature.Labeled(nil), rows...)
					li := feature.Labeled{X: corrupt[at].X.Clone(), Y: corrupt[at].Y}
					b.set(&li)
					corrupt[at] = li
					// A second bad row later on: the error names the first.
					if at+1 < len(corrupt) {
						last := feature.Labeled{X: corrupt[len(corrupt)-1].X.Clone(), Y: 3}
						corrupt[len(corrupt)-1] = last
					}
					table := tableOf(s, corrupt)
					wantErr := table.Validate(s)
					if wantErr == nil {
						t.Fatal("Validate accepted the corrupt table")
					}
					if _, err := NewContextRows(s, table); err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("NewContextRows error %v, want %v", err, wantErr)
					}
					for _, limit := range []int{0, 100} {
						r, err := NewRetained(s, limit)
						if err != nil {
							t.Fatal(err)
						}
						for _, li := range rows[:150] {
							if err := r.Add(li); err != nil {
								t.Fatal(err)
							}
						}
						version, before := r.Version(), r.Items()
						err = r.ReplaceRows(table)
						if err == nil || err.Error() != "core: "+wantErr.Error() {
							t.Fatalf("limit %d: ReplaceRows error %v, want core: %v", limit, err, wantErr)
						}
						if r.Version() != version || r.Len() != len(before) {
							t.Fatalf("limit %d: refused ReplaceRows moved Version %d → %d, Len %d → %d", limit, version, r.Version(), len(before), r.Len())
						}
						for i, li := range r.Items() {
							if !li.X.Equal(before[i].X) || li.Y != before[i].Y {
								t.Fatalf("limit %d: refused ReplaceRows changed row %d", limit, i)
							}
						}
					}
				})
			}
		}
	}
}

// replayState is everything Replay must leave as per-row Observe does.
type replayState struct {
	n, p, conflicts int
	seeded          bool
	key             Key
	weights         []uint64
	violators       []feature.Instance
	nextDraw        float64
}

// stateOf reads o's state, consuming one RNG draw: equal draws mean equal
// RNG positions.
func stateOf(o *OSRK) replayState {
	st := replayState{n: o.n, p: o.p, conflicts: o.conflicts, seeded: o.seeded, key: o.Key(), violators: o.violators}
	for _, w := range o.weights {
		st.weights = append(st.weights, math.Float64bits(w))
	}
	st.nextDraw = o.rng.Float64()
	return st
}

func sameReplayState(t *testing.T, got, want replayState) {
	t.Helper()
	if got.n != want.n || got.p != want.p || got.conflicts != want.conflicts || got.seeded != want.seeded || !got.key.Equal(want.key) {
		t.Fatalf("replayed n=%d p=%d conflicts=%d seeded=%v key=%v; per-row n=%d p=%d conflicts=%d seeded=%v key=%v",
			got.n, got.p, got.conflicts, got.seeded, got.key, want.n, want.p, want.conflicts, want.seeded, want.key)
	}
	for i := range want.weights {
		if got.weights[i] != want.weights[i] {
			t.Fatalf("weight %d = %v, per-row %v", i, math.Float64frombits(got.weights[i]), math.Float64frombits(want.weights[i]))
		}
	}
	if len(got.violators) != len(want.violators) {
		t.Fatalf("%d violators, per-row %d", len(got.violators), len(want.violators))
	}
	for i := range want.violators {
		if !got.violators[i].Equal(want.violators[i]) {
			t.Fatalf("violator %d = %v, per-row %v", i, got.violators[i], want.violators[i])
		}
	}
	if math.Float64bits(got.nextDraw) != math.Float64bits(want.nextDraw) {
		t.Fatalf("next RNG draw %v, per-row %v", got.nextDraw, want.nextDraw)
	}
}

// TestOSRKReplayDifferential: Replay over an index, which jumps from one
// violator to the next, leaves a monitor exactly as per-row Observe does:
// the same |I_t|, p_t, key, weights, conflicts, violators and next RNG
// draw. The streams cover twins of x₀ under another label, which no key
// excludes; twins early in a stream at α < 1, which keep V_t over budget,
// while line 11's deterministic pick grows the key, until the budget
// catches up; replays that start mid-table after a per-row prefix; and a
// context with retired slots, whose live rows alone are fed.
func TestOSRKReplayDifferential(t *testing.T) {
	s := bulkSchema(7, 3)
	wide := feature.MustSchema([]feature.Attribute{
		{Name: "A", Values: []string{"0", "1", "2"}}, {Name: "B", Values: []string{"0", "1"}},
		{Name: "C", Values: []string{"0", "1", "2"}}, {Name: "D", Values: []string{"0", "1"}},
		{Name: "E", Values: []string{"0", "1", "2"}}, {Name: "F", Values: []string{"0", "1"}},
		{Name: "G", Values: []string{"0", "1", "2"}}, {Name: "H", Values: []string{"0", "1"}},
	}, []string{"no", "yes"})
	// twinsAt puts a twin of x₀ predicting another label at each position.
	twinsAt := func(rows []feature.Labeled, x0 feature.Labeled, at ...int) []feature.Labeled {
		out := append([]feature.Labeled(nil), rows...)
		for _, i := range at {
			out[i] = feature.Labeled{X: x0.X.Clone(), Y: (x0.Y + 1) % 2}
		}
		return out
	}
	type stream struct {
		name string
		s    *feature.Schema
		rows []feature.Labeled
		// overBudget asks the per-row monitor to stay over budget after
		// a key growth at some arrival: line 11's pick left V_t too big.
		overBudget bool
	}
	plain := randomRows(rand.New(rand.NewSource(28402)), s, 3000)
	wideRows := randomRows(rand.New(rand.NewSource(28403)), wide, 3000)
	streams := []stream{
		{name: "random", s: s, rows: plain},
		{name: "twins", s: s, rows: twinsAt(plain, plain[0], 40, 41, 900, 2500)},
		{name: "early-twins", s: wide, rows: twinsAt(wideRows, wideRows[0], 3, 4, 5, 6, 7, 8), overBudget: true},
	}
	for _, st := range streams {
		x0 := st.rows[0]
		for _, alpha := range []float64{1, 0.9, 0.5} {
			for _, from := range []int{0, 1, 37, 64, 1500} {
				t.Run(fmt.Sprintf("%s/alpha=%v/from=%d", st.name, alpha, from), func(t *testing.T) {
					replayed, err := NewOSRK(st.s, x0.X, x0.Y, alpha, 9)
					if err != nil {
						t.Fatal(err)
					}
					fed, err := NewOSRK(st.s, x0.X, x0.Y, alpha, 9)
					if err != nil {
						t.Fatal(err)
					}
					c, err := NewContextRows(st.s, tableOf(st.s, st.rows))
					if err != nil {
						t.Fatal(err)
					}
					for _, li := range st.rows[:from] {
						for _, o := range []*OSRK{replayed, fed} {
							if _, err := o.Observe(li); err != nil {
								t.Fatal(err)
							}
						}
					}
					var grewWant []int
					over, overGrowths := 0, 0 // arrivals leaving V_t over budget; those that grew the key
					for i, li := range st.rows[from:] {
						before := fed.Succinctness()
						if _, err := fed.Observe(li); err != nil {
							t.Fatal(err)
						}
						for k := before; k < fed.Succinctness(); k++ {
							grewWant = append(grewWant, from+i)
						}
						if len(fed.violators) > Budget(alpha, fed.n) {
							over++
							if fed.Succinctness() > before {
								overGrowths++
							}
						}
					}
					grew := replayed.Replay(c, from, nil)
					sameReplayState(t, stateOf(replayed), stateOf(fed))
					if fmt.Sprint(grew) != fmt.Sprint(grewWant) {
						t.Fatalf("key grew at rows %v, per-row at %v", grew, grewWant)
					}
					if st.overBudget && alpha == 0.9 && from == 0 && (over < 3 || overGrowths == 0) {
						t.Fatalf("%d arrivals left V_t over budget, %d of them after a key growth; the case exercised nothing", over, overGrowths)
					}
					if st.name != "random" && alpha == 1 && from == 0 && fed.Conflicts() == 0 {
						t.Fatal("no twin met the monitor as a conflict; the case exercised nothing")
					}
				})
			}
		}
	}

	t.Run("retired-slots", func(t *testing.T) {
		x0 := plain[0]
		for _, alpha := range []float64{1, 0.9, 0.5} {
			c, err := NewContextRows(s, tableOf(s, plain))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(28404))
			for i := 0; i < 400; i++ {
				if slot := rng.Intn(len(plain)); c.Alive(slot) {
					if err := c.Remove(slot); err != nil {
						t.Fatal(err)
					}
				}
			}
			replayed, err := NewOSRK(s, x0.X, x0.Y, alpha, 9)
			if err != nil {
				t.Fatal(err)
			}
			fed, err := NewOSRK(s, x0.X, x0.Y, alpha, 9)
			if err != nil {
				t.Fatal(err)
			}
			for _, li := range c.LiveItems() {
				if _, err := fed.Observe(li); err != nil {
					t.Fatal(err)
				}
			}
			replayed.Replay(c, 0, nil)
			sameReplayState(t, stateOf(replayed), stateOf(fed))
		}
	})
}
