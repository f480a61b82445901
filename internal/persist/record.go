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
)

// The record discipline every log in this package follows (DESIGN.md §9):
// newline-delimited JSON, one record per line, each carrying a CRC32 over
// its own encoding, each written with a single Write so a crash tears at
// most the final line. Replay drops a torn final line and refuses damage
// anywhere else.

// record is one log line's payload: a JSON object whose crc field checksums
// the rest of it.
type record interface{ crc() *uint32 }

// checksum is the CRC32 of r's JSON encoding with its crc field zeroed, so
// the stored and the recomputed sum cover identical bytes. r is left as
// found.
func checksum(r record) (uint32, error) {
	crc := r.crc()
	stored := *crc
	*crc = 0
	b, err := json.Marshal(r)
	*crc = stored
	if err != nil {
		return 0, err
	}
	return crc32.ChecksumIEEE(b), nil
}

// encodeRecord stamps r's checksum and renders it as one newline-terminated
// log line: the exact bytes an append writes.
func encodeRecord(r record) ([]byte, error) {
	sum, err := checksum(r)
	if err != nil {
		return nil, err
	}
	*r.crc() = sum
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// decodeRecord parses one log line (with or without its newline) into r and
// verifies its checksum.
func decodeRecord(line []byte, r record) error {
	if err := json.Unmarshal(line, r); err != nil {
		return err
	}
	sum, err := checksum(r)
	if err != nil {
		return err
	}
	if stored := *r.crc(); sum != stored {
		return fmt.Errorf("checksum %08x, stored %08x", sum, stored)
	}
	return nil
}

// ErrCorruptLog marks a log whose damage is NOT the kill -9 signature: a
// record that fails decoding or its checksum with more intact records after
// it. A crash tears only the final line, so mid-file damage means lost or
// tampered data. The WAL refuses to recover from it; a job log is derived
// data, so its caller discards the log and reruns the batch.
var ErrCorruptLog = errors.New("persist: log damaged mid-file (not a crash tail)")

// ReplayResult reports where a log scan ended, so callers can resume, or
// tell a clean EOF from a crash boundary, without re-deriving any of it.
type ReplayResult struct {
	Applied int    // records the caller applied
	LastSeq uint64 // WAL only: seq of the final intact record scanned; 0 when none
	Offset  int64  // bytes of clean prefix: the offset just past the final intact line
	Torn    bool   // a damaged final line (the kill -9 signature) was dropped
}

// replayLog scans the records of r in append order, handing each intact one
// to fn, which reports whether it applied it. It reads raw lines (not a
// Scanner) so Offset is byte-exact: truncating at Offset when Torn removes
// precisely the damaged tail. A damaged final line stops the scan with
// Torn=true; damage anywhere else is ErrCorruptLog. fn errors abort the
// scan as-is.
func replayLog[R any, P interface {
	*R
	record
}](r io.Reader, fn func(P) (bool, error)) (ReplayResult, error) {
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
			rec := P(new(R))
			if derr := decodeRecord(body, rec); derr != nil {
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
					return res, fmt.Errorf("%w: damaged record at offset %d: %v", ErrCorruptLog, res.Offset, derr)
				}
				res.Torn = true
				return res, nil
			}
			res.Offset += int64(len(line))
			applied, err := fn(rec)
			if err != nil {
				return res, err
			}
			if applied {
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

// recoverLog replays the log file at path through scan and, when the scan
// ends at a torn final line, truncates the file there. Without that, the
// log reopened O_APPEND would strand the next record behind the garbage
// line and the following recovery would stop short of it, losing an
// acknowledged record on the second crash. A missing file is an empty
// result (first boot).
func recoverLog(path string, scan func(io.Reader) (ReplayResult, error)) (ReplayResult, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return ReplayResult{}, nil
	}
	if err != nil {
		return ReplayResult{}, err
	}
	res, err := scan(f)
	f.Close() //rkvet:ignore dropperr read-side close; nothing to recover
	if err == nil && res.Torn {
		if terr := os.Truncate(path, res.Offset); terr != nil {
			return res, fmt.Errorf("persist: dropping torn tail of %s: %w", path, terr)
		}
	}
	return res, err
}

// WriteSyncer is the sink a log appends to. *os.File satisfies it; the
// fault-injection harness wraps one to simulate torn writes and sync
// failures.
type WriteSyncer interface {
	io.Writer
	Sync() error
}

// appendLog is the write side WAL and JobLog share. Each record goes out in
// one Write under the mutex, so a crash tears at most the final record;
// durability is the caller's Sync policy. It is safe for concurrent use.
type appendLog struct {
	mu   sync.Mutex
	w    WriteSyncer // guarded by mu
	file *os.File    // guarded by mu; non-nil when opened by path, closed by Close
}

// openAppendLog opens (creating if needed) an append-only log at path.
func openAppendLog(path string) (*appendLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &appendLog{w: f, file: f}, nil
}

// write appends one encoded record.
func (l *appendLog) write(b []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err := l.w.Write(b)
	return err
}

// Sync flushes appended records to stable storage.
func (l *appendLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Sync()
}

// Close syncs and, when the log owns its file, closes it.
func (l *appendLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.w.Sync()
	if l.file != nil {
		if cerr := l.file.Close(); err == nil {
			err = cerr
		}
		l.file = nil
	}
	return err
}
