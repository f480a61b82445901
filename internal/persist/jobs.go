package persist

import (
	"encoding/json"
	"fmt"
	"io"
)

// Async-job result checkpoints (DESIGN.md §15). A large ExplainAll batch runs
// for minutes; the job runner appends each item's rendered result to a
// per-job log so a restart resumes from the last completed item instead of
// re-solving the whole batch. The log follows the observation WAL's record
// discipline (record.go). Unlike observations, job results are derived data
// recomputable from the job spec, so on ErrCorruptLog the caller may discard
// the log and start the batch over rather than refusing to boot.

// jobRecord is one checkpointed batch item. Body is the rendered result
// exactly as it will be served, so a resumed job re-serves byte-identical
// bytes for the already-completed prefix.
type jobRecord struct {
	Index int             `json:"i"`
	Body  json.RawMessage `json:"body"`
	CRC   uint32          `json:"crc"`
}

func (r *jobRecord) crc() *uint32 { return &r.CRC }

// EncodeJobResult renders one checkpoint as a checksummed, newline-terminated
// log line — the exact bytes Append writes.
func EncodeJobResult(index int, body []byte) ([]byte, error) {
	return encodeRecord(&jobRecord{Index: index, Body: body})
}

// RecoverJobLog replays the checkpoints in the log at path in append order,
// calling fn for each intact record, and truncates a torn final line from
// the file. A missing file is an empty result (first run); damage before the
// final line is ErrCorruptLog.
func RecoverJobLog(path string, fn func(index int, body []byte) error) (ReplayResult, error) {
	return recoverLog(path, func(r io.Reader) (ReplayResult, error) {
		return replayLog(r, func(rec *jobRecord) (bool, error) {
			if err := fn(rec.Index, rec.Body); err != nil {
				return false, fmt.Errorf("persist: job log replay at record %d: %w", rec.Index, err)
			}
			return true, nil
		})
	})
}

// JobLog is an append-only checkpoint log for one batch job. Appends are
// written in a single Write call each so a crash tears at most the final
// record. JobLog is safe for concurrent use.
type JobLog struct{ *appendLog }

// OpenJobLog opens (creating if needed) the append-only log at path.
func OpenJobLog(path string) (*JobLog, error) {
	l, err := openAppendLog(path)
	if err != nil {
		return nil, err
	}
	return &JobLog{l}, nil
}

// Append checkpoints one completed batch item.
func (l *JobLog) Append(index int, body []byte) error {
	b, err := EncodeJobResult(index, body)
	if err != nil {
		return err
	}
	if err := l.write(b); err != nil {
		return fmt.Errorf("persist: job log append: %w", err)
	}
	return nil
}
