package persist

import (
	"bytes"
	"slices"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

// FuzzDecodeWALRecord fuzzes the replication receive path: DecodeWALRecord
// parses bytes straight off a follower's network stream, so no input may
// panic it, and any line it accepts must survive a round trip — re-encoding
// the decoded record through EncodeWALRecord yields a line that decodes to
// the same (seq, X, Y). The committed corpus (testdata/fuzz) holds a valid
// line, a torn line, a CRC mismatch, and a line with reordered fields.
func FuzzDecodeWALRecord(f *testing.F) {
	line, err := EncodeWALRecord(42, feature.Labeled{X: feature.Instance{3, 0, 1}, Y: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(line)
	f.Add(bytes.TrimSuffix(line, []byte("\n")))
	f.Fuzz(func(t *testing.T, line []byte) {
		seq, li, err := DecodeWALRecord(line)
		if err != nil {
			return
		}
		again, err := EncodeWALRecord(seq, li)
		if err != nil {
			t.Fatalf("re-encode of accepted %q: %v", line, err)
		}
		seq2, li2, err := DecodeWALRecord(again)
		if err != nil {
			t.Fatalf("re-encoded %q of accepted %q rejected: %v", again, line, err)
		}
		if seq2 != seq || li2.Y != li.Y || !slices.Equal(li2.X, li.X) {
			t.Fatalf("round trip of %q: (%d, %v, %d), want (%d, %v, %d)", line, seq2, li2.X, li2.Y, seq, li.X, li.Y)
		}
	})
}
