package feature

import (
	"fmt"
	"math"
)

// Bucketer discretizes a numeric feature into k equal-width buckets over the
// observed range, as the paper does for numeric attributes (§7.3, "impact of
// numerical features"). The zero value is unusable; construct with
// NewBucketer.
type Bucketer struct {
	Lo, Hi float64
	K      int
}

// NewBucketer builds a bucketer over [lo, hi] with k buckets.
func NewBucketer(lo, hi float64, k int) (*Bucketer, error) {
	if k <= 0 {
		return nil, fmt.Errorf("feature: bucket count %d must be positive", k)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
		return nil, fmt.Errorf("feature: invalid bucket range [%v,%v]", lo, hi)
	}
	return &Bucketer{Lo: lo, Hi: hi, K: k}, nil
}

// Bucket maps a numeric value to its bucket code in [0, K). Values at or
// outside the fitted range clamp to the edge buckets, including ±Inf; NaN
// lands in bucket 0.
func (b *Bucketer) Bucket(v float64) Value {
	// A degenerate range collapses every value into bucket 0; the bounds are
	// stored, never computed, so exact comparison is the correct test.
	if b.Hi == b.Lo { //rkvet:ignore floateq stored bounds, degenerate-range sentinel
		return 0
	}
	// Clamp before the formula: int(±Inf) is implementation-specific, so an
	// infinite v must never reach the conversion below.
	if v <= b.Lo {
		return 0
	}
	if v >= b.Hi {
		return Value(b.K - 1)
	}
	idx := int(float64(b.K) * (v - b.Lo) / (b.Hi - b.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= b.K {
		idx = b.K - 1
	}
	return Value(idx)
}

// Labels returns human-readable bucket labels "[lo,hi)".
func (b *Bucketer) Labels() []string {
	out := make([]string, b.K)
	w := (b.Hi - b.Lo) / float64(b.K)
	for i := 0; i < b.K; i++ {
		out[i] = fmt.Sprintf("[%.4g,%.4g)", b.Lo+float64(i)*w, b.Lo+float64(i+1)*w)
	}
	return out
}

// Attribute builds a discrete attribute for this bucketer.
func (b *Bucketer) Attribute(name string) Attribute {
	return Attribute{Name: name, Values: b.Labels()}
}
