package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/xai-db/relativekeys/internal/feature"
)

// snapshotVersion marks the checksummed, sequence-stamped snapshot format
// used by the crash-safe service state (DESIGN.md §9).
const snapshotVersion = 2

// ErrCorruptSnapshot marks a snapshot file that is truncated, fails its
// checksum, or is otherwise undecodable. Callers treat it as "damaged state"
// and refuse to start from it rather than silently recovering a wrong
// context.
var ErrCorruptSnapshot = errors.New("persist: snapshot truncated or corrupt")

// snapshotFile is the on-disk layout: the retained rows in arrival order
// (order matters — retention evicts oldest-first after recovery), the
// observation sequence number the snapshot covers (the WAL replay watermark),
// and the log records' checksum (record.go) over everything else.
type snapshotFile struct {
	Version int        `json:"version"`
	Seq     uint64     `json:"seq"`
	Schema  schemaJSON `json:"schema"`
	Rows    [][]int32  `json:"rows"`
	Labels  []int32    `json:"labels"`
	CRC     uint32     `json:"crc"`
}

func (f *snapshotFile) crc() *uint32 { return &f.CRC }

// EncodeSnapshot writes the checksummed snapshot encoding of the retained
// observations (in arrival order) plus the sequence watermark seq to w. It is
// the wire/disk-agnostic half of SaveSnapshot: the replication primary
// streams exactly these bytes from /snapshot so a follower's catch-up file is
// bit-compatible with a local snapshot.
func EncodeSnapshot(w io.Writer, schema *feature.Schema, items []feature.Labeled, seq uint64) error {
	f := snapshotFile{
		Version: snapshotVersion,
		Seq:     seq,
		Schema:  schemaJSON{Attrs: schema.Attrs, Labels: schema.Labels},
	}
	for _, li := range items {
		f.Rows = append(f.Rows, append([]int32(nil), li.X...))
		f.Labels = append(f.Labels, li.Y)
	}
	crc, err := checksum(&f)
	if err != nil {
		return err
	}
	f.CRC = crc
	return json.NewEncoder(w).Encode(&f)
}

// SaveSnapshot atomically writes the retained observations (in arrival
// order) plus the observation sequence watermark seq: temp file, fsync,
// rename, directory fsync. A crash mid-save leaves the previous snapshot
// intact.
func SaveSnapshot(path string, schema *feature.Schema, items []feature.Labeled, seq uint64) error {
	start := time.Now()
	var written int64
	err := WriteFileAtomic(path, func(w io.Writer) error {
		cw := &countingWriter{w: w}
		err := EncodeSnapshot(cw, schema, items, seq)
		written = cw.n
		return err
	})
	if err != nil {
		return err
	}
	snapshotBytes.Add(written)
	snapshotSaveSeconds.ObserveSince(start)
	return nil
}

// countingWriter tallies bytes passed through to w.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// LoadSnapshot reads a snapshot written by SaveSnapshot, verifying version,
// row/label arity, and checksum. Truncation and corruption both surface as
// ErrCorruptSnapshot; a missing file surfaces as the underlying
// fs.ErrNotExist so callers can distinguish "first boot" from "damaged
// state".
func LoadSnapshot(path string) (*feature.Schema, []feature.Labeled, uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, err
	}
	return decodeSnapshotBytes(b)
}

// DecodeSnapshot reads one snapshot encoding from r — the receive side of
// EncodeSnapshot, used by a follower ingesting /snapshot. Damage surfaces as
// ErrCorruptSnapshot exactly as in LoadSnapshot.
func DecodeSnapshot(r io.Reader) (*feature.Schema, []feature.Labeled, uint64, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	return decodeSnapshotBytes(b)
}

func decodeSnapshotBytes(b []byte) (*feature.Schema, []feature.Labeled, uint64, error) {
	var f snapshotFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, nil, 0, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	if f.Version != snapshotVersion {
		return nil, nil, 0, fmt.Errorf("persist: snapshot format version %d, want %d", f.Version, snapshotVersion)
	}
	if len(f.Rows) != len(f.Labels) {
		return nil, nil, 0, fmt.Errorf("%w: %d rows but %d labels", ErrCorruptSnapshot, len(f.Rows), len(f.Labels))
	}
	want := f.CRC
	got, err := checksum(&f)
	if err != nil {
		return nil, nil, 0, err
	}
	if got != want {
		return nil, nil, 0, fmt.Errorf("%w: checksum %08x, stored %08x", ErrCorruptSnapshot, got, want)
	}
	schema, err := feature.NewSchema(f.Schema.Attrs, f.Schema.Labels)
	if err != nil {
		return nil, nil, 0, err
	}
	items := make([]feature.Labeled, len(f.Rows))
	for i := range f.Rows {
		items[i] = feature.Labeled{X: feature.Instance(f.Rows[i]), Y: f.Labels[i]}
	}
	return schema, items, f.Seq, nil
}
