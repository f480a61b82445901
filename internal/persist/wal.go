package persist

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"github.com/xai-db/relativekeys/internal/feature"
)

// WriteSyncer is the sink a WAL appends to. *os.File satisfies it; the
// fault-injection harness wraps one to simulate torn writes and sync
// failures.
type WriteSyncer interface {
	io.Writer
	Sync() error
}

// walRecord is one observation: newline-delimited JSON with a CRC32 over the
// record's canonical encoding (CRC field zeroed), so replay can tell a torn
// tail from a complete record without trusting line boundaries alone.
type walRecord struct {
	Seq uint64  `json:"seq"`
	X   []int32 `json:"x"`
	Y   int32   `json:"y"`
	CRC uint32  `json:"crc"`
}

func recordChecksum(rec *walRecord) (uint32, error) {
	c := *rec
	c.CRC = 0
	b, err := json.Marshal(&c)
	if err != nil {
		return 0, err
	}
	return crc32.ChecksumIEEE(b), nil
}

// EncodeWALRecord renders one observation as a checksummed, newline-terminated
// WAL line — the exact bytes Append writes, exposed so the replication hub can
// ship records over the wire in the on-disk framing (DESIGN.md §14).
func EncodeWALRecord(seq uint64, li feature.Labeled) ([]byte, error) {
	rec := walRecord{Seq: seq, X: append([]int32(nil), li.X...), Y: li.Y}
	crc, err := recordChecksum(&rec)
	if err != nil {
		return nil, err
	}
	rec.CRC = crc
	b, err := json.Marshal(&rec)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeWALRecord parses and CRC-validates one WAL line (with or without its
// trailing newline). This is the receive-side validation a replication
// follower runs on every streamed record before applying it.
func DecodeWALRecord(line []byte) (uint64, feature.Labeled, error) {
	var rec walRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return 0, feature.Labeled{}, fmt.Errorf("persist: wal record: %w", err)
	}
	want := rec.CRC
	got, err := recordChecksum(&rec)
	if err != nil {
		return 0, feature.Labeled{}, err
	}
	if got != want {
		return 0, feature.Labeled{}, fmt.Errorf("persist: wal record seq %d: checksum %08x, stored %08x", rec.Seq, got, want)
	}
	return rec.Seq, feature.Labeled{X: feature.Instance(rec.X), Y: rec.Y}, nil
}

// WAL is an append-only observation log. Appends are buffered only by the
// kernel: each Append issues one write; durability is the caller's Sync
// policy (the service syncs every N appends, N=1 by default). WAL is safe
// for concurrent use.
type WAL struct {
	mu   sync.Mutex
	w    WriteSyncer // guarded by mu
	file *os.File    // guarded by mu; non-nil when opened by path, closed by Close
}

// OpenWAL opens (creating if needed) an append-only log at path.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &WAL{w: f, file: f}, nil
}

// NewWAL wraps an arbitrary sink — the seam the fault-injection harness uses
// to interpose torn writes between the service and the filesystem.
func NewWAL(w WriteSyncer) *WAL { return &WAL{w: w} }

// Append logs one observation under sequence number seq. The record is
// written with a single Write call so a crash tears at most this record, not
// earlier ones. Append does not sync; pair it with Sync per the caller's
// durability policy.
func (w *WAL) Append(seq uint64, li feature.Labeled) error {
	start := time.Now()
	rec := walRecord{Seq: seq, X: append([]int32(nil), li.X...), Y: li.Y}
	crc, err := recordChecksum(&rec)
	if err != nil {
		return err
	}
	rec.CRC = crc
	b, err := json.Marshal(&rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.w.Write(b); err != nil {
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
	w.mu.Lock()
	err := w.w.Sync()
	w.mu.Unlock()
	if err != nil {
		walFsyncErrors.Inc()
		return err
	}
	walFsyncSeconds.ObserveSince(start)
	return nil
}

// Close syncs and, when the WAL owns its file, closes it.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.w.Sync()
	if w.file != nil {
		if cerr := w.file.Close(); err == nil {
			err = cerr
		}
		w.file = nil
	}
	return err
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

// ErrCorruptWAL marks a log whose damage is NOT the kill -9 signature: a
// record that fails decoding or its checksum with more intact records after
// it. A crash tears only the final line, so mid-file damage means lost or
// tampered data — callers must refuse to recover from it silently rather
// than dropping acknowledged observations.
var ErrCorruptWAL = errors.New("persist: wal damaged mid-file (not a crash tail)")

// ReplayResult reports where a WAL scan ended, so callers can resume, truncate
// a torn tail, or tell a clean EOF from a crash boundary without re-deriving
// any of it.
type ReplayResult struct {
	Applied int    // records delivered to fn (seq > the replay cursor)
	LastSeq uint64 // sequence number of the final intact record scanned; 0 when none
	Offset  int64  // bytes of clean prefix: the offset just past the final intact line
	Torn    bool   // a damaged final line (the kill -9 signature) was dropped
}

// ReplayWALFrom reads records in append order, calling fn for each intact
// one with seq > from; records with seq ≤ from are scanned (they still count
// toward the clean prefix) but not delivered. Replay stops at a torn final
// line — the kill -9 boundary — reporting Torn=true; damage anywhere else
// surfaces as ErrCorruptWAL, so a mid-file corruption cannot masquerade as a
// benign crash tail. It instruments the recovery counters; fn errors abort
// the replay as-is.
func ReplayWALFrom(r io.Reader, from uint64, fn func(seq uint64, li feature.Labeled) error) (ReplayResult, error) {
	res, err := replayWALFrom(r, from, fn)
	walReplayRecords.Add(int64(res.Applied))
	if res.Torn {
		walReplayTorn.Inc()
	}
	return res, err
}

// replayWALFrom is the uninstrumented scan behind ReplayWALFrom. It reads
// raw lines (not a Scanner) so Offset is byte-exact: truncating the log at
// Offset when Torn removes precisely the damaged tail, nothing else.
func replayWALFrom(r io.Reader, from uint64, fn func(seq uint64, li feature.Labeled) error) (ReplayResult, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	var res ReplayResult
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return res, rerr
		}
		body := line
		if n := len(body); n > 0 && body[n-1] == '\n' {
			body = body[:n-1]
		}
		if len(body) > 0 {
			seq, li, derr := DecodeWALRecord(body)
			if derr != nil {
				// A damaged record is the crash boundary only when nothing
				// follows it; otherwise the middle of the log is gone and
				// recovery must not pretend it was a clean tail.
				atEOF := rerr == io.EOF
				if !atEOF {
					if _, perr := br.Peek(1); perr == io.EOF {
						atEOF = true
					} else if perr != nil {
						return res, perr
					}
				}
				if !atEOF {
					return res, fmt.Errorf("%w: damaged record at offset %d", ErrCorruptWAL, res.Offset)
				}
				res.Torn = true
				return res, nil
			}
			res.Offset += int64(len(line))
			res.LastSeq = seq
			if seq > from {
				if err := fn(seq, li); err != nil {
					return res, fmt.Errorf("persist: wal replay at seq %d: %w", seq, err)
				}
				res.Applied++
			}
		} else {
			res.Offset += int64(len(line)) // bare newline between records
		}
		if rerr == io.EOF {
			return res, nil
		}
	}
}

// ReplayWALFileFrom replays the log at path from the given cursor; a missing
// file is an empty result, not an error (first boot).
func ReplayWALFileFrom(path string, from uint64, fn func(seq uint64, li feature.Labeled) error) (ReplayResult, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return ReplayResult{}, nil
	}
	if err != nil {
		return ReplayResult{}, err
	}
	defer f.Close() //rkvet:ignore dropperr read-side close; nothing to recover
	return ReplayWALFrom(f, from, fn)
}
