package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

// The golden files pin the on-disk (and, for WAL records, on-wire) bytes of
// every persisted format: a change to the encoders that moves a single byte
// breaks existing state directories and mixed-version replication, so it
// must fail here first.
var (
	goldenWAL     = feature.Labeled{X: feature.Instance{3, 0, 1}, Y: 1}
	goldenJobBody = []byte(`{"index":7,"explanation":{"features":["Credit=poor"],"rule":"IF Credit=poor THEN Denied","precision":1,"coverage":0.25,"context_size":4}}`)
	goldenRows    = []feature.Labeled{
		{X: feature.Instance{0, 1}, Y: 1},
		{X: feature.Instance{2, 0}, Y: 0},
	}
)

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGoldenBytes(t *testing.T) {
	t.Run("wal record", func(t *testing.T) {
		want := readGolden(t, "observations.wal")
		got, err := EncodeWALRecord(42, goldenWAL)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoded WAL record\n%q\nwant golden\n%q", got, want)
		}
		seq, li, err := DecodeWALRecord(want)
		if err != nil {
			t.Fatal(err)
		}
		if seq != 42 || li.Y != goldenWAL.Y || !slices.Equal(li.X, goldenWAL.X) {
			t.Fatalf("golden WAL record decoded to seq=%d %v", seq, li)
		}
	})
	t.Run("job checkpoint", func(t *testing.T) {
		want := readGolden(t, "job.results")
		got, err := EncodeJobResult(7, goldenJobBody)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoded job checkpoint\n%q\nwant golden\n%q", got, want)
		}
		idx, body, err := decodeJob(want)
		if err != nil {
			t.Fatal(err)
		}
		if idx != 7 || !bytes.Equal(body, goldenJobBody) {
			t.Fatalf("golden job checkpoint decoded to (%d, %q)", idx, body)
		}
	})
	t.Run("snapshot", func(t *testing.T) {
		want := readGolden(t, "context.v3.snap")
		var got bytes.Buffer
		if err := EncodeSnapshot(&got, crashSchema(t), goldenRows, 17); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("encoded snapshot\n%q\nwant golden\n%q", got.Bytes(), want)
		}
		assertGoldenSnapshot(t, "context.v3.snap")
	})
	// v2 is read-only: nothing writes it any more, but state directories
	// and primaries from before v3 still hold it.
	t.Run("snapshot v2", func(t *testing.T) {
		assertGoldenSnapshot(t, "context.snap")
	})
}

// assertGoldenSnapshot checks that the named golden snapshot loads to
// goldenRows at seq 17.
func assertGoldenSnapshot(t *testing.T, name string) {
	t.Helper()
	schema, rows, seq, err := LoadSnapshot(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	items := rows.Labeled()
	if seq != 17 || schema.NumFeatures() != 2 || len(items) != len(goldenRows) {
		t.Fatalf("golden snapshot decoded to seq=%d, %d features, %d rows", seq, schema.NumFeatures(), len(items))
	}
	for i, li := range items {
		if li.Y != goldenRows[i].Y || !slices.Equal(li.X, goldenRows[i].X) {
			t.Fatalf("golden snapshot row %d = %v, want %v", i, li, goldenRows[i])
		}
	}
}
