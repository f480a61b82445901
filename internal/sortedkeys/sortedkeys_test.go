package sortedkeys

import "testing"

func TestOf(t *testing.T) {
	m := map[int]string{3: "c", 1: "a", 2: "b"}
	got := Of(m)
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Of returned %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Of returned %v, want %v", got, want)
		}
	}
	if keys := Of(map[string]int{}); len(keys) != 0 {
		t.Fatalf("Of(empty) = %v, want empty", keys)
	}
}

func TestOfStableAcrossRuns(t *testing.T) {
	// Same map, many iterations: the order must never vary within a process
	// either (map order does).
	m := map[string]int{"x": 1, "q": 2, "a": 3, "m": 4}
	first := Of(m)
	for i := 0; i < 100; i++ {
		again := Of(m)
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("iteration %d gave %v, first gave %v", i, again, first)
			}
		}
	}
}
