package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"time"

	"github.com/xai-db/relativekeys/internal/feature"
)

// The snapshot format (DESIGN.md §9), v3, is a binary layout,
// little-endian throughout,
//
//	"RKSN" | u32 version | u64 seq | u32 len | schema JSON (len bytes)
//	| u64 rows | u8 value width | u8 label width
//	| rows×attrs values in row order | rows labels | u32 CRC32-IEEE
//
// where each width is 1, 2 or 4 bytes, the narrowest that holds the largest
// attribute cardinality (values) or the label count (labels), and the CRC
// covers every byte before it. It is the only format read: input without
// the magic, such as a v2 JSON snapshot from before v3, is refused as
// corrupt.
const (
	snapshotMagic   = "RKSN"
	snapshotVersion = 3
	// snapshotMinLen is the length of a v3 snapshot with an empty schema
	// section and no rows: the fixed fields plus the trailing CRC.
	snapshotMinLen = len(snapshotMagic) + 4 + 8 + 4 + 8 + 1 + 1 + 4
)

// errSnapshotVersion marks a well-formed snapshot of a format version this
// build does not read.
var errSnapshotVersion = errors.New("persist: snapshot format version")

// ErrCorruptSnapshot marks a snapshot file that is truncated, fails its
// checksum, or is otherwise undecodable. Callers treat it as "damaged state"
// and refuse to start from it rather than silently recovering a wrong
// context.
var ErrCorruptSnapshot = errors.New("persist: snapshot truncated or corrupt")

// encodeSnapshot renders the v3 encoding of rows (in arrival order) and the
// watermark seq into one buffer of exactly its size. rows must be valid for
// schema (Rows.Validate); a width never truncates a code, so rows at other
// widths than schema's are an error.
func encodeSnapshot(schema *feature.Schema, rows *feature.Rows, seq uint64) ([]byte, error) {
	sj, err := json.Marshal(schemaJSON{Attrs: schema.Attrs, Labels: schema.Labels})
	if err != nil {
		return nil, err
	}
	if uint64(len(sj)) > math.MaxUint32 {
		return nil, fmt.Errorf("persist: snapshot schema of %d bytes exceeds the format", len(sj))
	}
	vw, lw := feature.Widths(schema)
	if gotV, gotL := rows.Widths(); gotV != vw || gotL != lw {
		return nil, fmt.Errorf("persist: snapshot rows at code widths %d/%d, schema implies %d/%d", gotV, gotL, vw, lw)
	}
	size := snapshotMinLen + len(sj) + rows.Len()*(schema.NumFeatures()*vw+lw)
	b := make([]byte, 0, size)
	b = append(b, snapshotMagic...)
	b = binary.LittleEndian.AppendUint32(b, snapshotVersion)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sj)))
	b = append(b, sj...)
	b = binary.LittleEndian.AppendUint64(b, uint64(rows.Len()))
	b = append(b, byte(vw), byte(lw))
	b = rows.AppendSections(b)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b)), nil
}

// validRows checks rows against schema for the encoders.
func validRows(schema *feature.Schema, rows *feature.Rows) error {
	if err := rows.Validate(schema); err != nil {
		return fmt.Errorf("persist: snapshot %w", err)
	}
	return nil
}

// rowsOf builds the table of items for the []feature.Labeled encoders,
// refusing a row whose arity, value or label lies outside schema.
func rowsOf(schema *feature.Schema, items []feature.Labeled) (*feature.Rows, error) {
	rows := feature.NewRows(schema, len(items))
	for r, li := range items {
		if err := schema.Validate(li.X); err != nil {
			return nil, fmt.Errorf("persist: snapshot row %d: %w", r, err)
		}
		if li.Y < 0 || int(li.Y) >= len(schema.Labels) {
			return nil, fmt.Errorf("persist: snapshot row %d: label %d outside the %d labels", r, li.Y, len(schema.Labels))
		}
		rows.Append(li)
	}
	return rows, nil
}

// EncodeSnapshotRows writes the snapshot encoding of the retained rows (in
// arrival order) plus the sequence watermark seq to w, in one Write. It is
// the wire/disk-agnostic half of SaveSnapshotRows: the replication primary
// streams exactly these bytes from /snapshot so a follower's catch-up file
// is bit-compatible with a local snapshot. A row outside schema is an error.
func EncodeSnapshotRows(w io.Writer, schema *feature.Schema, rows *feature.Rows, seq uint64) error {
	if err := validRows(schema, rows); err != nil {
		return err
	}
	b, err := encodeSnapshot(schema, rows, seq)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// EncodeSnapshot is EncodeSnapshotRows over a slice of rows.
func EncodeSnapshot(w io.Writer, schema *feature.Schema, items []feature.Labeled, seq uint64) error {
	rows, err := rowsOf(schema, items)
	if err != nil {
		return err
	}
	b, err := encodeSnapshot(schema, rows, seq)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// SaveSnapshotRows atomically writes the retained rows (in arrival order)
// plus the observation sequence watermark seq: temp file, fsync, rename,
// directory fsync. A crash mid-save leaves the previous snapshot intact. A
// row outside schema is an error.
func SaveSnapshotRows(path string, schema *feature.Schema, rows *feature.Rows, seq uint64) error {
	if err := validRows(schema, rows); err != nil {
		return err
	}
	return saveSnapshot(path, schema, rows, seq)
}

// SaveSnapshot is SaveSnapshotRows over a slice of rows.
func SaveSnapshot(path string, schema *feature.Schema, items []feature.Labeled, seq uint64) error {
	rows, err := rowsOf(schema, items)
	if err != nil {
		return err
	}
	return saveSnapshot(path, schema, rows, seq)
}

// saveSnapshot is SaveSnapshotRows after validation.
func saveSnapshot(path string, schema *feature.Schema, rows *feature.Rows, seq uint64) error {
	start := time.Now()
	b, err := encodeSnapshot(schema, rows, seq)
	if err != nil {
		return err
	}
	err = WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
	if err != nil {
		return err
	}
	snapshotBytes.Add(int64(len(b)))
	snapshotSaveSeconds.ObserveSince(start)
	return nil
}

// LoadSnapshot reads a snapshot written by SaveSnapshotRows, verifying its
// checksum, its version and every row against its schema, into a table at
// the schema's code widths. Truncation, corruption and the retired v2 JSON
// format all surface as ErrCorruptSnapshot; a missing file surfaces as the
// underlying fs.ErrNotExist so callers can distinguish "first boot" from
// "damaged state".
func LoadSnapshot(path string) (*feature.Schema, *feature.Rows, uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, err
	}
	return decodeSnapshotBytes(b)
}

// DecodeSnapshot reads one snapshot encoding from r — the receive side of
// EncodeSnapshot, used by a follower ingesting /snapshot. Damage surfaces as
// ErrCorruptSnapshot exactly as in LoadSnapshot.
func DecodeSnapshot(r io.Reader) (*feature.Schema, *feature.Rows, uint64, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	return decodeSnapshotBytes(b)
}

// corrupt wraps a decode failure as ErrCorruptSnapshot.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorruptSnapshot}, args...)...)
}

// decodeSnapshotBytes checks everything the layout declares before it
// reads the rows: the magic, the checksum, the version, the schema, both
// widths against the schema, and the declared row count against the bytes
// present. The row sections then become one table in place
// (feature.ReadRows), which validates every code and adopts b as its
// storage, each section capped at its length: b is the decoder's own
// buffer, and an append to the table reallocates rather than writing over
// the label section or the CRC.
func decodeSnapshotBytes(b []byte) (*feature.Schema, *feature.Rows, uint64, error) {
	if !bytes.HasPrefix(b, []byte(snapshotMagic)) {
		return nil, nil, 0, corrupt("no %q magic: not a v3 snapshot (the v2 JSON format is no longer read)", snapshotMagic)
	}
	if len(b) < snapshotMinLen {
		return nil, nil, 0, corrupt("%d bytes is shorter than the %d-byte header", len(b), snapshotMinLen)
	}
	body := b[:len(b)-4]
	if got, stored := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(b[len(body):]); got != stored {
		return nil, nil, 0, corrupt("checksum %08x, stored %08x", got, stored)
	}
	p := body[len(snapshotMagic):]
	if v := binary.LittleEndian.Uint32(p); v != snapshotVersion {
		return nil, nil, 0, fmt.Errorf("%w %d, want %d", errSnapshotVersion, v, snapshotVersion)
	}
	seq := binary.LittleEndian.Uint64(p[4:])
	schemaLen := uint64(binary.LittleEndian.Uint32(p[12:]))
	p = p[16:]
	// The fixed fields after the schema: row count and both widths.
	if schemaLen > uint64(len(p)-10) {
		return nil, nil, 0, corrupt("schema of %d bytes overruns the snapshot", schemaLen)
	}
	var sj schemaJSON
	if err := json.Unmarshal(p[:schemaLen], &sj); err != nil {
		return nil, nil, 0, corrupt("schema: %v", err)
	}
	schema, err := feature.NewSchema(sj.Attrs, sj.Labels)
	if err != nil {
		return nil, nil, 0, corrupt("schema: %v", err)
	}
	p = p[schemaLen:]
	n := binary.LittleEndian.Uint64(p)
	rows, err := feature.ReadRows(schema, n, int(p[8]), int(p[9]), p[10:])
	if err != nil {
		return nil, nil, 0, corrupt("%v", err)
	}
	return schema, rows, seq, nil
}
