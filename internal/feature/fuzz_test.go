package feature

import (
	"math"
	"testing"
)

// FuzzBucketer checks the discretizer's contract on arbitrary ranges and
// probes: every code lands in [0, K), bucketing is monotone, and the nominal
// center of a bucket maps back to that bucket (the round-trip that keeps
// rendered bucket labels truthful).
func FuzzBucketer(f *testing.F) {
	f.Add(0.0, 1.0, uint8(4), 0.25, 0.75)
	f.Add(-5.0, 5.0, uint8(10), -5.0, 5.0)
	f.Add(3.0, 3.0, uint8(2), 3.0, 4.0)
	f.Add(0.0, 1e300, uint8(7), 1e299, -1e299)
	f.Fuzz(func(t *testing.T, lo, hi float64, k uint8, v, w float64) {
		b, err := NewBucketer(lo, hi, int(k%16)+1)
		if err != nil {
			t.Skip("invalid range rejected up front")
		}
		cv := b.Bucket(v)
		if cv < 0 || int(cv) >= b.K {
			t.Fatalf("Bucket(%v) = %d outside [0,%d)", v, cv, b.K)
		}
		if !math.IsNaN(v) && !math.IsNaN(w) {
			x, y := v, w
			if x > y {
				x, y = y, x
			}
			if b.Bucket(x) > b.Bucket(y) {
				t.Fatalf("Bucket not monotone: Bucket(%v)=%d > Bucket(%v)=%d", x, b.Bucket(x), y, b.Bucket(y))
			}
		}
		// Round-trip is only meaningful when one bucket width is resolvable at
		// the magnitude of the endpoints (width above their ulp).
		width := (b.Hi - b.Lo) / float64(b.K)
		if !isFiniteF(width) || width <= 0 || b.Lo+width == b.Lo || b.Hi-width == b.Hi {
			return
		}
		for i := 0; i < b.K; i++ {
			// A bucket only ulps wide can have its computed center round onto
			// a computed bound, where Bucket rightly answers the neighbour;
			// the round-trip holds only for a center strictly inside.
			lower, upper := b.Lo+float64(i)*width, b.Lo+float64(i+1)*width
			center := b.Lo + (float64(i)+0.5)*width
			if !(lower < center && center < upper) {
				continue
			}
			if got := b.Bucket(center); int(got) != i {
				t.Fatalf("round-trip: center of bucket %d maps to %d (lo=%v hi=%v k=%d)", i, got, b.Lo, b.Hi, b.K)
			}
		}
	})
}

// isFiniteF reports whether f is neither NaN nor ±Inf.
func isFiniteF(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}
