package persist

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/xai-db/relativekeys/internal/feature"
)

// walRecord is one observation in the log: its sequence number, instance and
// prediction, framed by the package's record discipline (record.go).
type walRecord struct {
	Seq uint64  `json:"seq"`
	X   []int32 `json:"x"`
	Y   int32   `json:"y"`
	CRC uint32  `json:"crc"`
}

func (r *walRecord) crc() *uint32 { return &r.CRC }

func (r *walRecord) labeled() feature.Labeled {
	return feature.Labeled{X: feature.Instance(r.X), Y: r.Y}
}

// EncodeWALRecord renders one observation as a checksummed, newline-terminated
// WAL line — the exact bytes Append writes, exposed so the replication hub can
// ship records over the wire in the on-disk framing (DESIGN.md §14).
func EncodeWALRecord(seq uint64, li feature.Labeled) ([]byte, error) {
	// The copy keeps an empty instance encoding as null, as it always has.
	return encodeRecord(&walRecord{Seq: seq, X: append([]int32(nil), li.X...), Y: li.Y})
}

// DecodeWALRecord parses and CRC-validates one WAL line (with or without its
// trailing newline). This is the receive-side validation a replication
// follower runs on every streamed record before applying it.
func DecodeWALRecord(line []byte) (uint64, feature.Labeled, error) {
	var rec walRecord
	if err := decodeRecord(line, &rec); err != nil {
		return 0, feature.Labeled{}, fmt.Errorf("persist: wal record: %w", err)
	}
	return rec.Seq, rec.labeled(), nil
}

// WAL is an append-only observation log. Appends are buffered only by the
// kernel: each Append issues one write; durability is the caller's Sync
// policy (the service syncs every N appends, N=1 by default). WAL is safe
// for concurrent use.
type WAL struct{ *appendLog }

// OpenWAL opens (creating if needed) an append-only log at path.
func OpenWAL(path string) (*WAL, error) {
	l, err := openAppendLog(path)
	if err != nil {
		return nil, err
	}
	return &WAL{l}, nil
}

// NewWAL wraps an arbitrary sink — the seam the fault-injection harness uses
// to interpose torn writes between the service and the filesystem.
func NewWAL(w WriteSyncer) *WAL { return &WAL{&appendLog{w: w}} }

// Append logs one observation under sequence number seq as EncodeWALRecord's
// bytes, in a single Write so a crash tears at most this record, not earlier
// ones. Append does not sync; pair it with Sync per the caller's durability
// policy.
func (w *WAL) Append(seq uint64, li feature.Labeled) error {
	start := time.Now()
	b, err := EncodeWALRecord(seq, li)
	if err != nil {
		return err
	}
	if err := w.write(b); err != nil {
		walAppendErrors.Inc()
		return fmt.Errorf("persist: wal append: %w", err)
	}
	walAppendBytes.Add(int64(len(b)))
	walAppendSeconds.ObserveSince(start)
	return nil
}

// Sync flushes appended records to stable storage.
func (w *WAL) Sync() error {
	start := time.Now()
	if err := w.appendLog.Sync(); err != nil {
		walFsyncErrors.Inc()
		return err
	}
	walFsyncSeconds.ObserveSince(start)
	return nil
}

// ErrNotTruncatable reports a WAL whose sink cannot be truncated — only
// file-backed logs (or test sinks implementing Truncate(int64) error) support
// compaction.
var ErrNotTruncatable = errors.New("persist: wal sink does not support truncation")

// Truncate discards every record in the log. The service calls this after a
// successful snapshot when WAL compaction is on: the snapshot's seq watermark
// becomes the replication base, and O_APPEND writes continue from offset 0.
func (w *WAL) Truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.file != nil {
		return w.file.Truncate(0)
	}
	if t, ok := w.w.(interface{ Truncate(int64) error }); ok {
		return t.Truncate(0)
	}
	return ErrNotTruncatable
}

// ReplayWALFrom reads records in append order, calling fn for each intact
// one with seq > from; records with seq ≤ from are scanned (they still count
// toward the clean prefix) but not delivered. It stops at a torn final line
// with Torn=true and surfaces damage anywhere else as ErrCorruptLog. It is a
// pure read: the replication hub streams history through it, so it neither
// truncates nor counts as a recovery. fn errors abort the replay.
func ReplayWALFrom(r io.Reader, from uint64, fn func(seq uint64, li feature.Labeled) error) (ReplayResult, error) {
	var last uint64
	res, err := replayLog(r, func(rec *walRecord) (bool, error) {
		last = rec.Seq
		if rec.Seq <= from {
			return false, nil
		}
		if err := fn(rec.Seq, rec.labeled()); err != nil {
			return false, fmt.Errorf("persist: wal replay at seq %d: %w", rec.Seq, err)
		}
		return true, nil
	})
	res.LastSeq = last
	return res, err
}

// RecoverWAL is boot recovery: it replays the log at path from the cursor
// (ReplayWALFrom), truncates a torn tail from the file, and counts the
// records applied and the torn tail in the recovery counters. A missing file
// is an empty result (first boot).
func RecoverWAL(path string, from uint64, fn func(seq uint64, li feature.Labeled) error) (ReplayResult, error) {
	res, err := recoverLog(path, func(r io.Reader) (ReplayResult, error) {
		return ReplayWALFrom(r, from, fn)
	})
	walReplayRecords.Add(int64(res.Applied))
	if res.Torn {
		walReplayTorn.Inc()
	}
	return res, err
}
