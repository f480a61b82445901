package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"slices"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

// restamp returns a copy of the v3 snapshot b with patch applied and its
// CRC recomputed, so the decoder's structural checks, not the checksum,
// must refuse it.
func restamp(b []byte, patch func([]byte)) []byte {
	out := append([]byte(nil), b...)
	patch(out)
	body := out[:len(out)-4]
	binary.LittleEndian.PutUint32(out[len(body):], crc32.ChecksumIEEE(body))
	return out
}

// A CRC-valid snapshot that declares more rows than its bytes hold is
// refused before the decoder allocates for them, including a count whose
// byte size wraps around to exactly the bytes present.
func TestSnapshotRefusesOversizedRowCount(t *testing.T) {
	three := feature.MustSchema([]feature.Attribute{
		{Name: "A", Values: []string{"a0", "a1"}},
		{Name: "B", Values: []string{"b0", "b1"}},
		{Name: "C", Values: []string{"c0", "c1"}},
	}, []string{"neg", "pos"})
	for _, tc := range []struct {
		name   string
		schema *feature.Schema
		items  []feature.Labeled
		rows   uint64
	}{
		{"2^40 rows", crashSchema(t), goldenRows, 1 << 40},
		// Four bytes a row: 2^62+2 rows times 4 wraps to the 8 bytes of 2.
		{"wrapping count", three, []feature.Labeled{
			{X: feature.Instance{0, 1, 0}, Y: 1},
			{X: feature.Instance{1, 0, 1}, Y: 0},
		}, 1<<62 + 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := EncodeSnapshot(&buf, tc.schema, tc.items, 17); err != nil {
				t.Fatal(err)
			}
			b := buf.Bytes()
			off := snapshotRowsOffset(t, b) - 10
			mut := restamp(b, func(m []byte) { binary.LittleEndian.PutUint64(m[off:], tc.rows) })
			if _, _, _, err := DecodeSnapshot(bytes.NewReader(mut)); !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("%d declared rows: want ErrCorruptSnapshot, got %v", tc.rows, err)
			}
		})
	}
}

// FuzzDecodeSnapshot fuzzes the follower catch-up boundary: DecodeSnapshot
// parses the /snapshot body straight off the network, so no input may panic
// it, every refusal is ErrCorruptSnapshot or a version mismatch, and an
// accepted input re-encodes (as v3) to bytes that decode to the same schema,
// rows and seq. The input is decoded as DecodeSnapshot decodes what it read,
// from a buffer with spare capacity as io.ReadAll returns it, and one row is
// appended to the table, which adopts that buffer: the input bytes must not
// change. The seeds are both goldens (the v2 one must be refused: that
// format is no longer read), v3 cut at three offsets, v3 with its CRC
// flipped, v3 whose schema length runs past the end, and nothing.
func FuzzDecodeSnapshot(f *testing.F) {
	v3 := readGolden(f, "context.v3.snap")
	f.Add(v3)
	f.Add(readGolden(f, "context.snap"))
	for _, cut := range []int{snapshotMinLen - 1, len(v3) / 2, len(v3) - 1} {
		f.Add(v3[:cut])
	}
	f.Add(append(v3[:len(v3)-1:len(v3)-1], v3[len(v3)-1]^0x80))
	f.Add(restamp(v3, func(m []byte) { binary.LittleEndian.PutUint32(m[16:], uint32(len(v3))) }))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		in := append(make([]byte, 0, len(b)+64), b...)
		schema, rows, seq, err := decodeSnapshotBytes(in)
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) && !errors.Is(err, errSnapshotVersion) {
				t.Fatalf("refusal of %q is neither corruption nor a version mismatch: %v", b, err)
			}
			return
		}
		var again bytes.Buffer
		if err := EncodeSnapshotRows(&again, schema, rows, seq); err != nil {
			t.Fatalf("re-encode of accepted %q: %v", b, err)
		}
		schema2, rows2, seq2, err := DecodeSnapshot(&again)
		if err != nil {
			t.Fatalf("re-encoded %q of accepted %q rejected: %v", again.Bytes(), b, err)
		}
		if seq2 != seq || !reflect.DeepEqual(schema2.Attrs, schema.Attrs) || !reflect.DeepEqual(schema2.Labels, schema.Labels) {
			t.Fatalf("round trip of %q changed seq %d→%d or the schema", b, seq, seq2)
		}
		items, items2 := rows.Labeled(), rows2.Labeled()
		if len(items2) != len(items) {
			t.Fatalf("round trip of %q: %d rows, want %d", b, len(items2), len(items))
		}
		for i := range items {
			if items2[i].Y != items[i].Y || !slices.Equal(items2[i].X, items[i].X) {
				t.Fatalf("round trip of %q: row %d = %v, want %v", b, i, items2[i], items[i])
			}
		}
		// Every code 0 is inside its domain: schemas have no empty domain.
		rows.Append(feature.Labeled{X: make(feature.Instance, schema.NumFeatures())})
		if !bytes.Equal(in, b) {
			t.Fatalf("appending a row to the table decoded from %q wrote into the input: %q", b, in)
		}
	})
}
