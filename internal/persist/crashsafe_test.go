package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

func crashSchema(t *testing.T) *feature.Schema {
	t.Helper()
	return feature.MustSchema([]feature.Attribute{
		{Name: "A", Values: []string{"a0", "a1", "a2"}},
		{Name: "B", Values: []string{"b0", "b1"}},
	}, []string{"neg", "pos"})
}

func crashItems() []feature.Labeled {
	return []feature.Labeled{
		{X: feature.Instance{0, 0}, Y: 0},
		{X: feature.Instance{1, 1}, Y: 1},
		{X: feature.Instance{2, 0}, Y: 1},
		{X: feature.Instance{0, 1}, Y: 0},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := crashSchema(t)
	path := filepath.Join(t.TempDir(), "ctx.snap")
	if err := SaveSnapshot(path, s, crashItems(), 17); err != nil {
		t.Fatal(err)
	}
	schema, gotRows, seq, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	gotItems := gotRows.Labeled()
	if seq != 17 {
		t.Fatalf("seq = %d, want 17", seq)
	}
	if schema.NumFeatures() != s.NumFeatures() || len(schema.Labels) != len(s.Labels) {
		t.Fatalf("schema differs: %+v", schema)
	}
	want := crashItems()
	if len(want) != len(gotItems) {
		t.Fatalf("rows %d, want %d", len(gotItems), len(want))
	}
	for i := range want {
		if !want[i].X.Equal(gotItems[i].X) || want[i].Y != gotItems[i].Y {
			t.Fatalf("row %d differs: %v vs %v", i, gotItems[i], want[i])
		}
	}
}

func TestSnapshotRejectsTruncated(t *testing.T) {
	s := crashSchema(t)
	path := filepath.Join(t.TempDir(), "ctx.snap")
	if err := SaveSnapshot(path, s, crashItems(), 4); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(b) / 2, len(b) - 3, 1} {
		if err := os.WriteFile(path, b[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := LoadSnapshot(path); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("truncated at %d: want ErrCorruptSnapshot, got %v", cut, err)
		}
	}
}

func TestSnapshotRejectsBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctx.snap")
	assertRejected := func(t *testing.T, mut []byte) {
		t.Helper()
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := LoadSnapshot(path); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("bit flip: want ErrCorruptSnapshot, got %v", err)
		}
	}
	t.Run("v3", func(t *testing.T) {
		if err := SaveSnapshot(path, crashSchema(t), crashItems(), 4); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Flip a bit of the first row's first value: still in its domain,
		// wrong content.
		mut := append([]byte(nil), b...)
		mut[snapshotRowsOffset(t, b)] ^= 1
		assertRejected(t, mut)
	})
	t.Run("v2", func(t *testing.T) {
		b := readGolden(t, "context.snap")
		// Flip a digit inside the rows payload: still valid JSON, wrong
		// content.
		i := bytes.Index(b, []byte(`"rows":[[`))
		if i < 0 {
			t.Fatal("rows marker not found")
		}
		mut := append([]byte(nil), b...)
		pos := i + len(`"rows":[[`)
		if mut[pos] == '0' {
			mut[pos] = '1'
		} else {
			mut[pos] = '0'
		}
		assertRejected(t, mut)
	})
}

// snapshotRowsOffset is the offset of the first row value in the v3
// snapshot b: the fixed header, the schema section, the row count and both
// widths precede it.
func snapshotRowsOffset(t *testing.T, b []byte) int {
	t.Helper()
	if !bytes.HasPrefix(b, []byte(snapshotMagic)) {
		t.Fatalf("not a v3 snapshot: %q", b)
	}
	return 20 + int(binary.LittleEndian.Uint32(b[16:])) + 10
}

func TestSnapshotMissingFileIsNotExist(t *testing.T) {
	_, _, _, err := LoadSnapshot(filepath.Join(t.TempDir(), "absent.snap"))
	if !os.IsNotExist(err) {
		t.Fatalf("want not-exist, got %v", err)
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	items := crashItems()
	for i, li := range items {
		if err := w.Append(uint64(i+1), li); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []feature.Labeled
	var seqs []uint64
	res, err := RecoverWAL(path, 0, func(seq uint64, li feature.Labeled) error {
		seqs = append(seqs, seq)
		got = append(got, li)
		return nil
	})
	n, torn := res.Applied, res.Torn
	if err != nil || torn {
		t.Fatalf("replay: n=%d torn=%v err=%v", n, torn, err)
	}
	if n != len(items) {
		t.Fatalf("replayed %d, want %d", n, len(items))
	}
	for i := range items {
		if seqs[i] != uint64(i+1) || !got[i].X.Equal(items[i].X) || got[i].Y != items[i].Y {
			t.Fatalf("record %d differs: seq=%d %v", i, seqs[i], got[i])
		}
	}
}

func TestWALReplayStopsAtTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	items := crashItems()
	for i, li := range items {
		if err := w.Append(uint64(i+1), li); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-way through the final record, as a kill -9 during the last
	// write would.
	if err := os.WriteFile(path, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := RecoverWAL(path, 0, func(uint64, feature.Labeled) error { return nil })
	n, torn := res.Applied, res.Torn
	if err != nil {
		t.Fatal(err)
	}
	if !torn {
		t.Fatal("torn tail not reported")
	}
	if n != len(items)-1 {
		t.Fatalf("replayed %d, want %d (all but the torn record)", n, len(items)-1)
	}
}

func TestWALMissingFileReplaysEmpty(t *testing.T) {
	res, err := RecoverWAL(filepath.Join(t.TempDir(), "absent.wal"), 0, func(uint64, feature.Labeled) error { return nil })
	n, torn := res.Applied, res.Torn
	if n != 0 || torn || err != nil {
		t.Fatalf("missing wal: n=%d torn=%v err=%v", n, torn, err)
	}
}

func TestWriteFileAtomicKeepsPrevious(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("v1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// A failing writer must leave the previous content untouched and no temp
	// litter behind.
	wantErr := errors.New("boom")
	if err := WriteFileAtomic(path, func(io.Writer) error {
		return wantErr
	}); !errors.Is(err, wantErr) {
		t.Fatalf("want boom, got %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "v1" {
		t.Fatalf("previous content lost: %q %v", b, err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter left behind: %v", entries)
	}
}
