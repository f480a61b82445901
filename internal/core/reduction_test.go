package core

import (
	"math/rand"
	"testing"
)

func randomMSC(rng *rand.Rand) MSCInstance {
	m := 2 + rng.Intn(6)
	n := 2 + rng.Intn(5)
	ins := MSCInstance{M: m, Sets: make([][]int, n)}
	for j := 0; j < n; j++ {
		for e := 0; e < m; e++ {
			if rng.Intn(2) == 0 {
				ins.Sets[j] = append(ins.Sets[j], e)
			}
		}
	}
	// Guarantee coverage: spread uncovered elements over the sets.
	covered := make([]bool, m)
	for _, s := range ins.Sets {
		for _, e := range s {
			covered[e] = true
		}
	}
	for e, ok := range covered {
		if !ok {
			j := rng.Intn(n)
			ins.Sets[j] = append(ins.Sets[j], e)
		}
	}
	return ins
}

func TestMSCValidate(t *testing.T) {
	if err := (MSCInstance{M: 0}).Validate(); err == nil {
		t.Fatal("empty universe accepted")
	}
	if err := (MSCInstance{M: 2, Sets: [][]int{{0, 5}}}).Validate(); err == nil {
		t.Fatal("out-of-range element accepted")
	}
	if err := (MSCInstance{M: 2, Sets: [][]int{{0}}}).Validate(); err == nil {
		t.Fatal("uncovered element accepted")
	}
	if err := (MSCInstance{M: 2, Sets: [][]int{{0}, {1}}}).Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
}

// Theorem 1 round trip: min cover size equals min key size on the reduced
// context, and the mappings preserve validity in both directions.
func TestReductionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 40; trial++ {
		ins := randomMSC(rng)
		c, x0, y0, err := ReduceMSC(ins)
		if err != nil {
			t.Fatal(err)
		}
		if c.Len() != ins.M+1 {
			t.Fatalf("context size %d, want %d", c.Len(), ins.M+1)
		}
		minCover, err := ins.ExactMinCover()
		if err != nil {
			t.Fatal(err)
		}
		minKey, err := ExactMinKey(c, x0, y0, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if len(minCover) != len(minKey) {
			t.Fatalf("trial %d: |min cover| = %d but |min key| = %d", trial, len(minCover), len(minKey))
		}
		// Cover → key must be conformant.
		if !IsAlphaKey(c, x0, y0, CoverToKey(minCover), 1.0) {
			t.Fatalf("trial %d: cover does not map to a key", trial)
		}
		// Key → cover must cover.
		if !ins.IsCover(KeyToCover(minKey)) {
			t.Fatalf("trial %d: key does not map to a cover", trial)
		}
	}
}

// The greedy SRK run on the reduced instance mirrors greedy set cover: both
// achieve the ln(m) approximation, so sizes should track closely.
func TestReductionGreedyParity(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for trial := 0; trial < 30; trial++ {
		ins := randomMSC(rng)
		c, x0, y0, err := ReduceMSC(ins)
		if err != nil {
			t.Fatal(err)
		}
		gKey, err := SRK(c, x0, y0, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		gCover := ins.GreedyCover()
		if !ins.IsCover(KeyToCover(gKey)) {
			t.Fatalf("trial %d: greedy key is not a cover", trial)
		}
		if len(gKey) > len(gCover)+1 || len(gCover) > len(gKey)+1 {
			t.Fatalf("trial %d: greedy key size %d vs greedy cover size %d diverge",
				trial, len(gKey), len(gCover))
		}
	}
}

func TestGreedyCoverCoversAlways(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 50; trial++ {
		ins := randomMSC(rng)
		if !ins.IsCover(ins.GreedyCover()) {
			t.Fatalf("trial %d: greedy cover incomplete", trial)
		}
	}
}

func TestIsCoverRejectsBadIndices(t *testing.T) {
	ins := MSCInstance{M: 2, Sets: [][]int{{0}, {1}}}
	if ins.IsCover([]int{0, 7}) {
		t.Fatal("out-of-range subset index accepted")
	}
	if ins.IsCover([]int{0}) {
		t.Fatal("partial cover accepted")
	}
	if !ins.IsCover([]int{0, 1}) {
		t.Fatal("full cover rejected")
	}
}
