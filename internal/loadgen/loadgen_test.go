package loadgen

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		rank int // 1-based nearest rank ⌈p·n⌉, clamped to [1, n]
	}{
		{1, 0.5, 1}, {1, 0.99, 1},
		{3, 0.5, 2}, {3, 0.9, 3}, {3, 0.99, 3},
		{50, 0.5, 25}, {50, 0.9, 45}, {50, 0.99, 50},
		{100, 0.5, 50}, {100, 0.9, 90}, {100, 0.99, 99}, {100, 1, 100},
		{100, 0.07, 7}, {100, 0.14, 14}, // p·n lands a hair above the integer in float64
		{1000, 0.5, 500}, {1000, 0.9, 900}, {1000, 0.99, 990},
		{1000, 0, 1},
	} {
		sorted := make([]float64, c.n)
		for i := range sorted {
			sorted[i] = float64(i + 1)
		}
		if got := percentile(sorted, c.p); got != float64(c.rank) {
			t.Errorf("percentile(n=%d, p=%v) = %v, want rank %d", c.n, c.p, got, c.rank)
		}
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func testSchema() schemaDoc {
	var s schemaDoc
	for _, name := range []string{"Income", "Credit", "Area"} {
		s.Attributes = append(s.Attributes, struct {
			Name   string   `json:"name"`
			Values []string `json:"values"`
		}{name, []string{"a", "b", "c", "d"}})
	}
	s.Labels = []string{"Approved", "Denied"}
	return s
}

func TestBuildPoolDeterministic(t *testing.T) {
	cfg := Config{Pool: 64, HotSet: 8, Seed: 7, Alpha: 0.9}
	a, b := buildPool(testSchema(), cfg), buildPool(testSchema(), cfg)
	if len(a) != cfg.Pool {
		t.Fatalf("pool size %d, want %d", len(a), cfg.Pool)
	}
	for i := range a {
		if !bytes.Equal(a[i].explain, b[i].explain) || !bytes.Equal(a[i].observe, b[i].observe) {
			t.Fatalf("item %d differs across runs with one seed: %s vs %s", i, a[i].explain, b[i].explain)
		}
	}
	cfg.Seed = 8
	c := buildPool(testSchema(), cfg)
	same := true
	for i := range a {
		same = same && bytes.Equal(a[i].explain, c[i].explain)
	}
	if same {
		t.Fatal("seeds 7 and 8 built the same pool")
	}
}

func TestPickHotShareMatchesDupRate(t *testing.T) {
	pool := make([]item, 256)
	for i := range pool {
		pool[i].prediction = strconv.Itoa(i)
	}
	const draws = 20000
	for _, dup := range []float64{0, 0.5, 0.9, 1} {
		cfg := Config{DupRate: dup, HotSet: 16}
		rng := rand.New(rand.NewSource(1))
		hot := 0
		for i := 0; i < draws; i++ {
			idx, err := strconv.Atoi(pick(rng, cfg, pool).prediction)
			if err != nil {
				t.Fatal(err)
			}
			if idx < cfg.HotSet {
				hot++
			}
		}
		if share := float64(hot) / draws; share < dup-0.01 || share > dup+0.01 {
			t.Errorf("DupRate %v: hot-set share %v over %d draws", dup, share, draws)
		}
	}
}
