package core

import (
	"errors"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

// fuzzSchema is a small fixed space: 2×3×2 instances, two labels. Small
// enough that the fuzzer reaches duplicate rows, identical-but-differently-
// labeled rows, and total removal quickly.
func fuzzSchema() *feature.Schema {
	return feature.MustSchema([]feature.Attribute{
		{Name: "a", Values: []string{"0", "1"}},
		{Name: "b", Values: []string{"0", "1", "2"}},
		{Name: "c", Values: []string{"0", "1"}},
	}, []string{"neg", "pos"})
}

// decodeInstance maps one byte onto the fuzz schema.
func decodeInstance(b byte) feature.Labeled {
	return feature.Labeled{
		X: feature.Instance{feature.Value(b & 1), feature.Value((b >> 1) % 3), feature.Value((b >> 3) & 1)},
		Y: feature.Label((b >> 4) & 1),
	}
}

// FuzzContextRemoveAdd is the streaming-determinism oracle: a context
// mutated by an arbitrary interleaving of AddSlot and Remove must be
// indistinguishable — SRK and SRKAnytime key bytes, violation counts,
// disagreeing-set cardinality — from a context rebuilt from scratch over its
// live rows. This is the invariant the sliding window (cce.Window) and the
// service retention path stand on. SRKAnytime is the check on the count tables
// and the pair-count tables, every one force-built on both contexts (on the
// incremental one before its first mutation, so each add and removal keeps
// them), and each cell is held to the index: the eager SRK reads neither, so
// a missed decrement in Remove shows only in the served engine's picks.
func FuzzContextRemoveAdd(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, byte(0))
	f.Add([]byte{10, 20, 3, 30, 7, 40, 11}, byte(17))
	f.Add([]byte{255, 254, 253, 3, 3, 3, 7, 7, 1}, byte(31))
	f.Fuzz(func(t *testing.T, data []byte, tb byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		schema := fuzzSchema()
		ctx, err := NewContext(schema, nil)
		if err != nil {
			t.Fatalf("NewContext: %v", err)
		}
		buildAllPairs(ctx)
		var live []int
		for _, b := range data {
			if b%4 == 3 && len(live) > 0 {
				// Remove a pseudo-arbitrary live slot.
				i := int(b/4) % len(live)
				if err := ctx.Remove(live[i]); err != nil {
					t.Fatalf("Remove(%d): %v", live[i], err)
				}
				live = append(live[:i], live[i+1:]...)
				continue
			}
			slot, err := ctx.AddSlot(decodeInstance(b))
			if err != nil {
				t.Fatalf("AddSlot: %v", err)
			}
			live = append(live, slot)
		}
		if ctx.Len() != len(live) {
			t.Fatalf("Len = %d after %d net adds", ctx.Len(), len(live))
		}

		rebuilt, err := NewContext(schema, ctx.LiveItems())
		if err != nil {
			t.Fatalf("rebuilding context: %v", err)
		}
		buildAllPairs(rebuilt)
		checkPairs(t, ctx, "incremental")

		target := decodeInstance(tb)
		for _, alpha := range []float64{1.0, 0.7} {
			k1, err1 := SRK(ctx, target.X, target.Y, alpha)
			k2, err2 := SRK(rebuilt, target.X, target.Y, alpha)
			if errors.Is(err1, ErrNoKey) != errors.Is(err2, ErrNoKey) || (err1 == nil) != (err2 == nil) {
				t.Fatalf("α=%v: SRK errors diverge: incremental %v, rebuilt %v", alpha, err1, err2)
			}
			for i, c := range []*Context{ctx, rebuilt} {
				name := []string{"incremental", "rebuilt"}[i]
				k, err := served(c, target.X, target.Y, alpha)
				if errors.Is(err, ErrNoKey) != errors.Is(err1, ErrNoKey) || (err == nil) != (err1 == nil) {
					t.Fatalf("α=%v: SRKAnytime on %s errs %v, SRK %v", alpha, name, err, err1)
				}
				if err == nil && !k.Equal(k1) {
					t.Fatalf("α=%v: SRKAnytime on %s = %v, SRK %v", alpha, name, k, k1)
				}
			}
			if err1 != nil {
				continue
			}
			if !k1.Equal(k2) {
				t.Fatalf("α=%v: SRK keys diverge: incremental %v, rebuilt %v", alpha, k1, k2)
			}
			if v1, v2 := Violations(ctx, target.X, target.Y, k1), Violations(rebuilt, target.X, target.Y, k2); v1 != v2 {
				t.Fatalf("α=%v: violations diverge: incremental %d, rebuilt %d", alpha, v1, v2)
			}
			if c1, c2 := Coverage(ctx, target.X, target.Y, k1), Coverage(rebuilt, target.X, target.Y, k2); c1 != c2 {
				t.Fatalf("α=%v: coverage diverges: incremental %d, rebuilt %d", alpha, c1, c2)
			}
		}
		if d1, d2 := ctx.Disagreeing(target.Y).Count(), rebuilt.Disagreeing(target.Y).Count(); d1 != d2 {
			t.Fatalf("disagreeing cardinality diverges: incremental %d, rebuilt %d", d1, d2)
		}
	})
}
