package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

// walItem is the i-th test observation, logged under seq i+1.
func walItem(i int) (uint64, feature.Labeled) {
	return uint64(i + 1), feature.Labeled{X: feature.Instance{int32(i), int32(i % 2)}, Y: int32(i % 2)}
}

// walLines encodes n sequential records (seq 1..n) and returns them
// individually so tests can splice damage at exact byte offsets.
func walLines(t *testing.T, n int) [][]byte {
	t.Helper()
	lines := make([][]byte, n)
	for i := range lines {
		b, err := EncodeWALRecord(walItem(i))
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = b
	}
	return lines
}

func TestReplayWALFromTable(t *testing.T) {
	lines := walLines(t, 5)
	clean := bytes.Join(lines, nil)
	prefix3 := bytes.Join(lines[:3], nil)

	torn := append(append([]byte(nil), prefix3...), lines[3][:len(lines[3])/2]...)
	tornWithNL := append(append([]byte(nil), prefix3...), []byte("{\"seq\":9,\"garbage\n")...)
	midDamage := append(append([]byte(nil), prefix3...), []byte("{torn}\n")...)
	midDamage = append(midDamage, lines[4]...)
	noFinalNL := clean[:len(clean)-1]
	withBlank := append(append([]byte(nil), prefix3...), '\n')
	withBlank = append(withBlank, lines[3]...)

	cases := []struct {
		name    string
		input   []byte
		from    uint64
		applied int
		lastSeq uint64
		offset  int64
		torn    bool
		wantErr error
	}{
		{name: "clean EOF", input: clean, applied: 5, lastSeq: 5, offset: int64(len(clean))},
		{name: "cursor skips applied prefix", input: clean, from: 3, applied: 2, lastSeq: 5, offset: int64(len(clean))},
		{name: "cursor past end applies nothing", input: clean, from: 99, applied: 0, lastSeq: 5, offset: int64(len(clean))},
		{name: "torn tail mid-record", input: torn, applied: 3, lastSeq: 3, offset: int64(len(prefix3)), torn: true},
		{name: "damaged final line with newline", input: tornWithNL, applied: 3, lastSeq: 3, offset: int64(len(prefix3)), torn: true},
		{name: "mid-file damage is corruption, not a tail", input: midDamage, applied: 3, lastSeq: 3, offset: int64(len(prefix3)), wantErr: ErrCorruptLog},
		{name: "final line without newline still counts", input: noFinalNL, applied: 5, lastSeq: 5, offset: int64(len(noFinalNL))},
		{name: "blank line between records", input: withBlank, applied: 4, lastSeq: 4, offset: int64(len(withBlank))},
		{name: "empty log", input: nil, applied: 0, lastSeq: 0, offset: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var seqs []uint64
			res, err := ReplayWALFrom(bytes.NewReader(tc.input), tc.from, func(seq uint64, li feature.Labeled) error {
				seqs = append(seqs, seq)
				return nil
			})
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			if res.Applied != tc.applied || res.LastSeq != tc.lastSeq || res.Offset != tc.offset || res.Torn != tc.torn {
				t.Fatalf("result %+v, want applied=%d lastSeq=%d offset=%d torn=%v",
					res, tc.applied, tc.lastSeq, tc.offset, tc.torn)
			}
			if len(seqs) != tc.applied {
				t.Fatalf("fn saw %d records, want %d", len(seqs), tc.applied)
			}
			for i := 1; i < len(seqs); i++ {
				if seqs[i] != seqs[i-1]+1 {
					t.Fatalf("fn saw non-consecutive seqs %v", seqs)
				}
			}
			if tc.applied > 0 && seqs[0] != tc.from+1 {
				t.Fatalf("fn started at seq %d, want %d", seqs[0], tc.from+1)
			}
		})
	}
}

// TestReplayWALFromOffsetTruncateRoundTrip exercises the double-crash fix:
// recovery truncates a torn log at Offset, so fresh appends yield a log whose
// later replay sees every record — the torn garbage never shadows appends
// that land after it.
func TestReplayWALFromOffsetTruncateRoundTrip(t *testing.T) {
	lines := walLines(t, 4)
	path := filepath.Join(t.TempDir(), "obs.wal")
	torn := append(bytes.Join(lines[:3], nil), lines[3][:8]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := RecoverWAL(path, 0, func(uint64, feature.Labeled) error { return nil })
	if err != nil || !res.Torn {
		t.Fatalf("res=%+v err=%v, want a torn tail", res, err)
	}
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	li := feature.Labeled{X: feature.Instance{7, 1}, Y: 1}
	if err := w.Append(res.LastSeq+1, li); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res2, err := RecoverWAL(path, 0, func(uint64, feature.Labeled) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res2.Torn || res2.Applied != 4 || res2.LastSeq != 4 {
		t.Fatalf("after truncate+append: %+v, want 4 clean records", res2)
	}
}

func TestReplayWALFromFnErrorAborts(t *testing.T) {
	lines := walLines(t, 3)
	boom := errors.New("boom")
	res, err := ReplayWALFrom(bytes.NewReader(bytes.Join(lines, nil)), 0, func(seq uint64, li feature.Labeled) error {
		if seq == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the fn error", err)
	}
	if res.Applied != 1 {
		t.Fatalf("applied %d before abort, want 1", res.Applied)
	}
}

func TestWALTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	li := feature.Labeled{X: feature.Instance{1, 0}, Y: 0}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := w.Append(seq, li); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	// O_APPEND writes continue from the new (zero) end of file.
	if err := w.Append(4, li); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := RecoverWAL(path, 0, func(uint64, feature.Labeled) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 || res.LastSeq != 4 || res.Torn {
		t.Fatalf("post-truncate replay %+v, want only seq 4", res)
	}
}

func TestWALTruncateUnsupportedSink(t *testing.T) {
	var sink nopSyncWriter
	w := NewWAL(&sink)
	if err := w.Truncate(); !errors.Is(err, ErrNotTruncatable) {
		t.Fatalf("Truncate on a pipe sink = %v, want ErrNotTruncatable", err)
	}
}

type nopSyncWriter struct{ strings.Builder }

func (*nopSyncWriter) Sync() error { return nil }

func TestEncodeDecodeWALRecordRoundTrip(t *testing.T) {
	li := feature.Labeled{X: feature.Instance{3, 1, 4}, Y: 1}
	b, err := EncodeWALRecord(42, li)
	if err != nil {
		t.Fatal(err)
	}
	seq, got, err := DecodeWALRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 || got.Y != li.Y || len(got.X) != len(li.X) {
		t.Fatalf("round trip gave seq=%d li=%+v", seq, got)
	}
	// Any flipped byte inside the payload must fail the CRC.
	mut := append([]byte(nil), b...)
	mut[bytes.IndexByte(mut, '[')+1] ^= 1
	if _, _, err := DecodeWALRecord(mut); err == nil {
		t.Fatal("decode accepted a corrupted record")
	}
}

func TestEncodeDecodeSnapshotRoundTrip(t *testing.T) {
	schema := crashSchema(t)
	items := []feature.Labeled{
		{X: feature.Instance{0, 1}, Y: 1},
		{X: feature.Instance{2, 0}, Y: 0},
	}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, schema, items, 17); err != nil {
		t.Fatal(err)
	}
	gotSchema, gotItems, seq, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 17 || gotItems.Len() != 2 || len(gotSchema.Attrs) != len(schema.Attrs) {
		t.Fatalf("decode gave seq=%d items=%d", seq, gotItems.Len())
	}
	// Follower catch-up refuses a damaged stream the same way LoadSnapshot
	// refuses a damaged file: here the seq field, bytes 8–15 of v3.
	mut := append([]byte(nil), buf.Bytes()...)
	if binary.LittleEndian.Uint64(mut[8:]) != 17 {
		t.Fatalf("seq 17 not at offset 8 of %q", mut)
	}
	binary.LittleEndian.PutUint64(mut[8:], 18)
	if _, _, _, err := DecodeSnapshot(bytes.NewReader(mut)); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("decode of tampered snapshot = %v, want ErrCorruptSnapshot", err)
	}
	// A v2 stream, from a primary not yet upgraded, decodes and is refused
	// the same way.
	v2 := readGolden(t, "context.snap")
	if _, got, seq, err := DecodeSnapshot(bytes.NewReader(v2)); err != nil || seq != 17 || got.Len() != 2 {
		t.Fatalf("decode of v2 snapshot: seq=%d rows=%d err=%v", seq, got.Len(), err)
	}
	mut = bytes.Replace(v2, []byte(`"seq":17`), []byte(`"seq":18`), 1)
	if _, _, _, err := DecodeSnapshot(bytes.NewReader(mut)); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("decode of tampered v2 snapshot = %v, want ErrCorruptSnapshot", err)
	}
}
