package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

// buildAllPairs builds every pair-count table of c, whatever rent has been
// paid.
func buildAllPairs(c *Context) {
	for a := range c.Schema.Attrs {
		for v := 0; v < c.Schema.Attrs[a].Cardinality(); v++ {
			c.buildPairs(a, feature.Value(v))
		}
	}
}

// builtPairs counts c's built pair-count tables.
func builtPairs(c *Context) int {
	n := 0
	for i := range c.pairs.tables {
		if c.pairs.tables[i].Load() != nil {
			n++
		}
	}
	return n
}

// roundTwoPaths are the two ways the served engine makes its second pick:
// over the word list, on a fresh context whose tables are unbuilt, and from
// the first pick's pair-count table, with every table force-built. A fresh
// context pays rent on every scan, so its later solves may read tables too;
// its first solve never does, since one scan reads fewer words than any
// build.
var roundTwoPaths = []struct {
	name    string
	prepare func(*Context)
}{
	{"scan", func(*Context) {}},
	{"table", buildAllPairs},
}

// checkPairs asserts every cell of every built pair-count table of c is
// the index's own arithmetic: popcount(post(a,v) ∧ post(b,w) ∧ label(y)).
func checkPairs(t *testing.T, c *Context, when string) {
	t.Helper()
	s, nl := c.Schema, len(c.Schema.Labels)
	for a := range s.Attrs {
		for v := 0; v < s.Attrs[a].Cardinality(); v++ {
			tab := c.pairTable(a, feature.Value(v))
			if tab == nil {
				continue
			}
			for y := 0; y < nl; y++ {
				m := c.Posting(a, feature.Value(v)).Clone()
				m.And(c.LabelSet(feature.Label(y)))
				for b := range s.Attrs {
					for w := 0; w < s.Attrs[b].Cardinality(); w++ {
						want := m.AndCard(c.Posting(b, feature.Value(w)))
						if got := tab[(c.pairs.base[b]+w)*nl+y]; got != want {
							t.Fatalf("%s: table (%d,%d) cell (%d,%d,label %d) = %d, popcount %d", when, a, v, b, w, y, got, want)
						}
					}
				}
			}
		}
	}
}

// TestPostingCountPairsBulk: tables force-built on contexts built in bulk,
// on both sides of splitBuildRows, at narrow and wide label spaces, match
// the index, and keep matching through removals, slot reuse and growth.
func TestPostingCountPairsBulk(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	rng := rand.New(rand.NewSource(30401))
	for _, sc := range []struct{ card, labels int }{{3, 3}, {7, 2}, {3, 70}} {
		s := bulkSchema(sc.card, sc.labels)
		for _, n := range []int{0, 65, splitBuildRows - 1, splitBuildRows + 1} {
			t.Run(fmt.Sprintf("card=%d/labels=%d/n=%d", sc.card, sc.labels, n), func(t *testing.T) {
				c, err := newContextRows(s, tableOf(s, randomRows(rng, s, n)), n)
				if err != nil {
					t.Fatal(err)
				}
				buildAllPairs(c)
				if got, want := builtPairs(c), len(c.pairs.tables); got != want {
					t.Fatalf("built %d tables, want %d", got, want)
				}
				checkPairs(t, c, "built")
				for i := 0; i < n; i += 1 + rng.Intn(40) {
					if err := c.Remove(i); err != nil {
						t.Fatal(err)
					}
				}
				checkPairs(t, c, "after removals")
				for _, li := range randomRows(rng, s, n/20+100) {
					if err := c.Add(li); err != nil {
						t.Fatal(err)
					}
				}
				checkPairs(t, c, "after slot reuse and growth")
			})
		}
	}
}

// TestPostingCountPairsGrown: on a context grown by Add, with removals and
// slot reuse interleaved, tables force-built at the start and again midway
// match the index after every batch of mutations.
func TestPostingCountPairsGrown(t *testing.T) {
	rng := rand.New(rand.NewSource(30411))
	c := randomContext(t, rng, 0, 5, 3, 3)
	buildAllPairs(c)
	var live []int
	for step := 0; step < 1500; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(live))
			if err := c.Remove(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		} else {
			slot, err := c.AddSlot(randomRows(rng, c.Schema, 1)[0])
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, slot)
		}
		if step == 700 {
			// A fresh pass: builds over a holey context, then maintenance.
			c.pairs = newPairCounts(c.Schema)
			buildAllPairs(c)
		}
		if step%97 == 0 {
			checkPairs(t, c, fmt.Sprintf("step %d", step))
		}
	}
	checkPairs(t, c, "end")
}

// TestPostingCountPairsRetained: a Retained context sliding past its limit
// keeps its force-built tables equal to the index through every eviction,
// and explains as a rebuilt context does.
func TestPostingCountPairsRetained(t *testing.T) {
	rng := rand.New(rand.NewSource(30412))
	s := fuzzSchema()
	r, err := NewRetained(s, 200)
	if err != nil {
		t.Fatal(err)
	}
	buildAllPairs(r.Context())
	var rows []feature.Labeled
	for i := 0; i < 900; i++ {
		li := decodeInstance(byte(rng.Intn(256)))
		rows = append(rows, li)
		if err := r.Add(li); err != nil {
			t.Fatal(err)
		}
		if i%150 == 149 {
			checkPairs(t, r.Context(), fmt.Sprintf("after %d adds", i+1))
			sameKeys(t, r, lastN(rows, 200), rows[:20])
		}
	}
}

// TestPairRentOrBuy: a table stays unbuilt while the round-two words charged
// to its first pick are below its build cost, and is built by the solve whose
// scan reaches it. A rebuilt context starts with none.
func TestPairRentOrBuy(t *testing.T) {
	rng := rand.New(rand.NewSource(30413))
	rows := make([]feature.Labeled, 3000)
	for i := range rows {
		x := make(feature.Instance, 5)
		for a := range x {
			x[a] = feature.Value(rng.Intn(3))
		}
		// Label by two attributes with noise: every key needs two picks or more.
		y := feature.Label(0)
		if (x[0] == 0) != (x[1] == 0) || rng.Intn(10) == 0 {
			y = 1
		}
		rows[i] = feature.Labeled{X: x, Y: y}
	}
	s := randomContext(t, rng, 0, 5, 3, 2).Schema
	c, err := NewContext(s, rows)
	if err != nil {
		t.Fatal(err)
	}
	q := rows[0]
	order, err := SRKOrdered(c, q.X, q.Y, 0.99)
	if err != nil || len(order) < 2 {
		t.Fatalf("query needs two picks: order %v, err %v", order, err)
	}
	a, v := order[0], q.X[order[0]]
	e := c.pairs.base[a] + int(v)
	cost := int64(c.pairBuildWords(a, v))
	want, _ := SRK(c, q.X, q.Y, 0.99)
	for solve := 1; ; solve++ {
		before := c.pairs.rent[e].Load()
		if c.pairTable(a, v) != nil {
			t.Fatalf("solve %d: table built at rent %d of %d", solve, before, cost)
		}
		got, err := served(c, q.X, q.Y, 0.99)
		if err != nil || !got.Equal(want) {
			t.Fatalf("solve %d: key %v err %v, eager %v", solve, got, err, want)
		}
		after := c.pairs.rent[e].Load()
		if after <= before {
			t.Fatalf("solve %d: rent %d → %d, want a charge", solve, before, after)
		}
		if after >= cost {
			if c.pairTable(a, v) == nil {
				t.Fatalf("solve %d: rent %d reached cost %d, table unbuilt", solve, after, cost)
			}
			if solve < 2 {
				t.Fatalf("one scan (%d words) paid a %d-word build", after, cost)
			}
			break
		}
	}
	if n := builtPairs(c); n != 1 {
		t.Fatalf("%d tables built, want only the first pick's", n)
	}
	// The table serves from now on: no more rent.
	rent := c.pairs.rent[e].Load()
	if got, err := served(c, q.X, q.Y, 0.99); err != nil || !got.Equal(want) || c.pairs.rent[e].Load() != rent {
		t.Fatalf("table solve: key %v err %v rent %d → %d, eager %v", got, err, rent, c.pairs.rent[e].Load(), want)
	}
	checkPairs(t, c, "rented")

	r, err := NewRetained(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ReplaceRows(tableOf(s, rows)); err != nil {
		t.Fatal(err)
	}
	if n := builtPairs(r.Context()); n != 0 {
		t.Fatalf("a rebuilt context starts with %d tables", n)
	}
}

// TestPairTablesCapped: a schema whose full set of tables exceeds
// maxPairCells never builds one, and the served engine still returns the
// eager keys from scans alone.
func TestPairTablesCapped(t *testing.T) {
	s := bulkSchema(70000, 3)
	rng := rand.New(rand.NewSource(30414))
	// Few distinct wide values, so first picks repeat and rent piles up.
	rows := randomRows(rng, s, 2000)
	for i := range rows {
		rows[i].X[0] %= 4
	}
	c, err := NewContext(s, rows)
	if err != nil {
		t.Fatal(err)
	}
	if c.pairs != nil {
		t.Fatal("a 70,000-value schema got pair-count tables")
	}
	for i := 0; i < 400; i++ {
		q := rows[i%50]
		alpha := []float64{1, 0.99, 0.9}[i%3]
		want, wantErr := SRK(c, q.X, q.Y, alpha)
		got, gotDeg, gotErr := SRKAnytime(context.Background(), c, q.X, q.Y, alpha)
		if gotDeg || !errors.Is(gotErr, wantErr) || !got.Equal(want) {
			t.Fatalf("query %d α=%v: (%v, %v, %v), eager (%v, %v)", i, alpha, got, gotDeg, gotErr, want, wantErr)
		}
	}
	if c.pairs != nil {
		t.Fatal("solves built pair-count tables over the cap")
	}
}

// TestParallelPairBuildsRaceSolves: eight goroutines solve on one fresh
// 20k-row context while the rent of their first picks crosses its threshold,
// so tables are built while other solves scan and read them. Every key is
// the eager one. Under -race this checks the table publication.
func TestParallelPairBuildsRaceSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(30415))
	c := randomContext(t, rng, 20000, 6, 3, 2)
	type query struct {
		li    feature.Labeled
		alpha float64
		want  Key
		err   error
	}
	var qs []query
	for i := 0; i < 48; i++ {
		li := c.Item(rng.Intn(c.Len()))
		alpha := []float64{0.95, 0.9, 0.97}[i%3]
		want, err := SRK(c, li.X, li.Y, alpha)
		qs = append(qs, query{li, alpha, want, err})
	}
	if n := builtPairs(c); n != 0 {
		t.Fatalf("%d tables before the run", n)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 6; rep++ {
				for i := range qs {
					q := qs[(i+g*7)%len(qs)]
					got, deg, err := SRKAnytime(context.Background(), c, q.li.X, q.li.Y, q.alpha)
					if deg || !errors.Is(err, q.err) || !got.Equal(q.want) {
						errs <- fmt.Errorf("goroutine %d rep %d: key %v err %v, eager %v err %v", g, rep, got, err, q.want, q.err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if builtPairs(c) == 0 {
		t.Fatal("no table was built during the run")
	}
	checkPairs(t, c, "after the run")
}
