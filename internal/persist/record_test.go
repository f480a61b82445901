package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

// logKind is one record kind behind the shared record discipline, so a test
// can run the same table over the observation WAL and the job checkpoints.
type logKind struct {
	name string
	// lines encodes records 0..n-1 one line each.
	lines func(t *testing.T, n int) [][]byte
	// write appends records 0..n-1 to path through the kind's log type.
	write func(t *testing.T, path string, n int)
	// recover runs file recovery and returns each delivered record
	// re-encoded, in delivery order.
	recover func(path string) (ReplayResult, [][]byte, error)
}

// jobItem is the i-th test checkpoint.
func jobItem(i int) (int, []byte) {
	return i, []byte(`{"index":` + strconv.Itoa(i) + `,"marker":"r"}`)
}

// jobLines is walLines for job checkpoints.
func jobLines(t *testing.T, n int) [][]byte {
	t.Helper()
	lines := make([][]byte, n)
	for i := range lines {
		b, err := EncodeJobResult(jobItem(i))
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = b
	}
	return lines
}

var logKinds = []logKind{
	{
		name:  "wal",
		lines: walLines,
		write: func(t *testing.T, path string, n int) {
			w, err := OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := w.Append(walItem(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		},
		recover: func(path string) (ReplayResult, [][]byte, error) {
			var got [][]byte
			res, err := RecoverWAL(path, 0, func(seq uint64, li feature.Labeled) error {
				b, err := EncodeWALRecord(seq, li)
				got = append(got, b)
				return err
			})
			return res, got, err
		},
	},
	{
		name:  "job",
		lines: jobLines,
		write: func(t *testing.T, path string, n int) {
			l, err := OpenJobLog(path)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := l.Append(jobItem(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		},
		recover: func(path string) (ReplayResult, [][]byte, error) {
			var got [][]byte
			res, err := RecoverJobLog(path, func(index int, body []byte) error {
				b, err := EncodeJobResult(index, body)
				got = append(got, b)
				return err
			})
			return res, got, err
		},
	},
}

// TestLogRecovery runs file recovery over both record kinds: a clean log
// replays whole and untouched (and is exactly the appender's bytes), a
// missing file is first boot, a torn final line is dropped and truncated
// from the file, and mid-file damage is ErrCorruptLog with the file left as
// it was.
func TestLogRecovery(t *testing.T) {
	for _, kind := range logKinds {
		t.Run(kind.name, func(t *testing.T) {
			lines := kind.lines(t, 3)
			clean := bytes.Join(lines, nil)
			prefix2 := bytes.Join(lines[:2], nil)
			torn := append(append([]byte(nil), prefix2...), lines[2][:len(lines[2])/2]...)
			midDamage := append(append([]byte(nil), lines[0]...), "XX"...)
			midDamage = append(append(midDamage, lines[1][2:]...), lines[2]...)

			cases := []struct {
				name     string
				appended bool   // the kind's appender writes the three records
				input    []byte // else these bytes are the file; nil = no file
				applied  int
				torn     bool
				wantErr  error
				wantFile []byte // the file after recovery; nil = still absent
			}{
				{name: "clean", appended: true, applied: 3, wantFile: clean},
				{name: "missing file"},
				{name: "torn tail", input: torn, applied: 2, torn: true, wantFile: prefix2},
				{name: "mid-file damage", input: midDamage, applied: 1, wantErr: ErrCorruptLog, wantFile: midDamage},
			}
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "log")
					if tc.appended {
						kind.write(t, path, 3)
					} else if tc.input != nil {
						if err := os.WriteFile(path, tc.input, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					res, got, err := kind.recover(path)
					if !errors.Is(err, tc.wantErr) {
						t.Fatalf("err = %v, want %v", err, tc.wantErr)
					}
					if res.Applied != tc.applied || res.Torn != tc.torn || len(got) != tc.applied {
						t.Fatalf("result %+v (delivered %d), want applied=%d torn=%v", res, len(got), tc.applied, tc.torn)
					}
					if want := int64(len(bytes.Join(lines[:tc.applied], nil))); res.Offset != want {
						t.Fatalf("offset = %d, want %d", res.Offset, want)
					}
					for i := range got {
						if !bytes.Equal(got[i], lines[i]) {
							t.Fatalf("record %d delivered as %q, want %q", i, got[i], lines[i])
						}
					}
					after, err := os.ReadFile(path)
					if tc.wantFile == nil {
						if !os.IsNotExist(err) {
							t.Fatalf("recovery of a missing log created it (err %v)", err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(after, tc.wantFile) {
						t.Fatalf("file after recovery\n%q\nwant\n%q", after, tc.wantFile)
					}
				})
			}
		})
	}
}

// TestRecoverWALCountsTornRecovery pins what the recovery counters count:
// recovering a torn file moves both, while a plain read of the same bytes —
// the replication hub's history scan — moves neither.
func TestRecoverWALCountsTornRecovery(t *testing.T) {
	lines := walLines(t, 3)
	torn := append(bytes.Join(lines[:2], nil), lines[2][:5]...)
	nop := func(uint64, feature.Labeled) error { return nil }
	records, tornTotal := walReplayRecords.Value(), walReplayTorn.Value()

	if _, err := ReplayWALFrom(bytes.NewReader(torn), 0, nop); err != nil {
		t.Fatal(err)
	}
	if d1, d2 := walReplayRecords.Value()-records, walReplayTorn.Value()-tornTotal; d1 != 0 || d2 != 0 {
		t.Fatalf("a plain read moved the recovery counters by %d records, %d torn", d1, d2)
	}

	path := filepath.Join(t.TempDir(), "obs.wal")
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverWAL(path, 0, nop); err != nil {
		t.Fatal(err)
	}
	if d1, d2 := walReplayRecords.Value()-records, walReplayTorn.Value()-tornTotal; d1 != 2 || d2 != 1 {
		t.Fatalf("recovery moved the counters by %d records, %d torn; want 2 and 1", d1, d2)
	}
}

// replayAll scans data as a log of R records, applying every intact one.
func replayAll[R any, P interface {
	*R
	record
}](data []byte) (ReplayResult, error) {
	return replayLog(bytes.NewReader(data), func(P) (bool, error) { return true, nil })
}

// FuzzReplayLog feeds arbitrary bytes through the shared replay scanner, once
// as WAL records and once as job checkpoints. The scanner must not panic,
// its Offset must lie within the input, a clean result must consume the whole
// input, and after a torn tail or ErrCorruptLog the clean prefix input[:Offset]
// must replay clean to the same Applied and Offset — the prefix recovery
// truncates to is itself a valid log. The committed corpus
// (testdata/fuzz/FuzzReplayLog) holds valid WAL and job logs, a torn tail,
// mid-file damage and bare newlines.
func FuzzReplayLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, scan := range []struct {
			kind string
			fn   func([]byte) (ReplayResult, error)
		}{
			{"wal", replayAll[walRecord]},
			{"job", replayAll[jobRecord]},
		} {
			res, err := scan.fn(data)
			if err != nil && !errors.Is(err, ErrCorruptLog) {
				t.Fatalf("%s: unexpected error %v", scan.kind, err)
			}
			if res.Offset < 0 || res.Offset > int64(len(data)) {
				t.Fatalf("%s: offset %d outside [0, %d]", scan.kind, res.Offset, len(data))
			}
			if err == nil && !res.Torn {
				if res.Offset != int64(len(data)) {
					t.Fatalf("%s: clean replay stopped at %d of %d bytes", scan.kind, res.Offset, len(data))
				}
				continue
			}
			again, err := scan.fn(data[:res.Offset])
			if err != nil || again.Torn || again.Applied != res.Applied || again.Offset != res.Offset {
				t.Fatalf("%s: prefix replay = %+v, %v; want clean with applied=%d offset=%d", scan.kind, again, err, res.Applied, res.Offset)
			}
		}
	})
}
