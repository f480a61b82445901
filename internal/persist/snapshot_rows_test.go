package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

// referenceV3 encodes items code by code as the v3 layout states it, from a
// []feature.Labeled: the model the table encoder must match byte for byte.
func referenceV3(t *testing.T, schema *feature.Schema, items []feature.Labeled, seq uint64) []byte {
	t.Helper()
	sj, err := json.Marshal(schemaJSON{Attrs: schema.Attrs, Labels: schema.Labels})
	if err != nil {
		t.Fatal(err)
	}
	maxCard := 0
	for _, a := range schema.Attrs {
		maxCard = max(maxCard, len(a.Values))
	}
	width := func(n int) int {
		if n <= 256 {
			return 1
		}
		if n <= 65536 {
			return 2
		}
		return 4
	}
	vw, lw := width(maxCard), width(len(schema.Labels))
	code := func(b []byte, v int32, w int) []byte {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		return append(b, buf[:w]...)
	}
	b := []byte(snapshotMagic)
	b = binary.LittleEndian.AppendUint32(b, 3)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sj)))
	b = append(b, sj...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(items)))
	b = append(b, byte(vw), byte(lw))
	for _, li := range items {
		for _, v := range li.X {
			b = code(b, v, vw)
		}
	}
	for _, li := range items {
		b = code(b, li.Y, lw)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestSnapshotRowsMatchLabeledEncoder: at each value width, the snapshot a
// table encodes — grown by appends and by rewrites of reused rows — is the
// reference encoding of the same rows as a []feature.Labeled, SaveSnapshot
// writes the same bytes, and LoadSnapshot reads the rows back.
func TestSnapshotRowsMatchLabeledEncoder(t *testing.T) {
	for _, tc := range []struct{ card, width int }{{3, 1}, {300, 2}, {70000, 4}} {
		t.Run(fmt.Sprintf("width%d", tc.width), func(t *testing.T) {
			values := make([]string, tc.card)
			for i := range values {
				values[i] = fmt.Sprint(i)
			}
			schema := feature.MustSchema([]feature.Attribute{
				{Name: "Wide", Values: values},
				{Name: "Credit", Values: []string{"poor", "good"}},
			}, []string{"Denied", "Approved", "Review"})
			rng := rand.New(rand.NewSource(int64(tc.width)))
			rows := feature.NewRows(schema, 0)
			var items []feature.Labeled
			for i := 0; i < 300; i++ {
				li := feature.Labeled{
					X: feature.Instance{feature.Value(rng.Intn(tc.card)), feature.Value(rng.Intn(2))},
					Y: feature.Label(rng.Intn(3)),
				}
				if i%7 == 0 {
					li.X[0] = feature.Value(tc.card - 1)
				}
				if len(items) > 0 && i%4 == 0 {
					j := rng.Intn(len(items))
					rows.Set(j, li)
					items[j] = li
					continue
				}
				rows.Append(li)
				items = append(items, li)
			}
			want := referenceV3(t, schema, items, 23)
			var got bytes.Buffer
			if err := EncodeSnapshotRows(&got, schema, rows, 23); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("table encoding differs from the reference (%d vs %d bytes)", got.Len(), len(want))
			}
			got.Reset()
			if err := EncodeSnapshot(&got, schema, items, 23); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatal("[]Labeled encoding differs from the reference")
			}
			path := filepath.Join(t.TempDir(), "ctx.snap")
			if err := SaveSnapshotRows(path, schema, rows, 23); err != nil {
				t.Fatal(err)
			}
			_, back, seq, err := LoadSnapshot(path)
			if err != nil || seq != 23 {
				t.Fatalf("LoadSnapshot: seq %d, %v", seq, err)
			}
			for i, li := range items {
				if r := back.Row(i); !r.X.Equal(li.X) || r.Y != li.Y {
					t.Fatalf("loaded row %d = %v, want %v", i, r, li)
				}
			}
		})
	}
}

// TestSnapshotRowsRefusesMisfits: the table encoders refuse rows outside
// the schema, and rows at widths other than the schema's, rather than write
// a snapshot that would decode to other codes.
func TestSnapshotRowsRefusesMisfits(t *testing.T) {
	schema := crashSchema(t)
	rows := feature.NewRows(schema, 0)
	rows.Append(feature.Labeled{X: feature.Instance{0, 1}, Y: 1})
	rows.Append(feature.Labeled{X: feature.Instance{5, 0}, Y: 0}) // outside Income's domain
	var buf bytes.Buffer
	if err := EncodeSnapshotRows(&buf, schema, rows, 1); err == nil || buf.Len() != 0 {
		t.Fatalf("encoded an out-of-domain row: %v, %d bytes", err, buf.Len())
	}
	if err := SaveSnapshotRows(filepath.Join(t.TempDir(), "x.snap"), schema, rows, 1); err == nil {
		t.Fatal("saved an out-of-domain row")
	}
	values := make([]string, 300)
	for i := range values {
		values[i] = fmt.Sprint(i)
	}
	wide := feature.MustSchema([]feature.Attribute{
		{Name: "Income", Values: values},
		{Name: "Credit", Values: []string{"poor", "good"}},
	}, schema.Labels)
	wideRows := feature.NewRows(wide, 0)
	wideRows.Append(feature.Labeled{X: feature.Instance{0, 1}, Y: 1})
	if err := EncodeSnapshotRows(&buf, schema, wideRows, 1); err == nil || buf.Len() != 0 {
		t.Fatalf("encoded 2-byte codes under a 1-byte schema: %v", err)
	}
}
