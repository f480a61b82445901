package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Level is a log severity; records below the logger's level are dropped
// before any formatting work happens.
type Level int8

// Log levels, ascending severity.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String names the level as it appears in the JSON records.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return fmt.Sprintf("level(%d)", int8(l))
}

// ParseLevel maps the flag spellings to a Level (unknown → info).
func ParseLevel(s string) Level {
	switch s {
	case "debug":
		return LevelDebug
	case "warn", "warning":
		return LevelWarn
	case "error":
		return LevelError
	}
	return LevelInfo
}

// Logger writes leveled, structured records as one JSON object per line:
//
//	{"ts":"2026-08-05T10:15:00.123Z","level":"info","msg":"listening","addr":":8080"}
//
// Fields are key-value pairs appended in call order (never from a map, so
// records are deterministic for a given call). A nil *Logger discards
// everything, which is how library code logs optionally. Logger is safe for
// concurrent use, and so is every logger With derives from it: they all
// write through one shared sink.
type Logger struct {
	level  Level
	fields []byte   // pre-rendered `,"k":v` pairs bound by With
	sink   *logSink // shared with every logger derived by With
}

// logSink is the writer a root logger and its derived loggers share: one
// mutex serializes every Write on it, so a writer that is not safe for
// concurrent use (a bytes.Buffer, a bufio.Writer) is safe behind it, and one
// counter records the records lost to its write failures.
type logSink struct {
	mu        sync.Mutex
	w         io.Writer // set once at construction; mu serializes Write calls on it
	writeErrs atomic.Int64
}

// NewLogger writes records at or above level to w.
func NewLogger(w io.Writer, level Level) *Logger {
	return &Logger{level: level, sink: &logSink{w: w}}
}

// With returns a logger that prepends the given key-value pairs to every
// record — the handle a subsystem binds its identity into once. It writes
// through l's sink.
func (l *Logger) With(kv ...any) *Logger {
	if l == nil {
		return nil
	}
	var buf bytes.Buffer
	appendPairs(&buf, kv)
	return &Logger{level: l.level, sink: l.sink, fields: append(append([]byte(nil), l.fields...), buf.Bytes()...)}
}

// Debug logs at debug level. kv alternates keys (strings) and values.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info logs at info level.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs at error level.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

// WriteErrors reports records lost to sink write failures, counted across
// every logger that shares l's sink.
func (l *Logger) WriteErrors() int64 {
	if l == nil {
		return 0
	}
	return l.sink.writeErrs.Load()
}

func (l *Logger) log(level Level, msg string, kv []any) {
	if l == nil || level < l.level {
		return
	}
	var buf bytes.Buffer
	buf.WriteString(`{"ts":"`)
	buf.WriteString(time.Now().UTC().Format(time.RFC3339Nano))
	buf.WriteString(`","level":"`)
	buf.WriteString(level.String())
	buf.WriteString(`","msg":`)
	writeJSONValue(&buf, msg)
	buf.Write(l.fields)
	appendPairs(&buf, kv)
	buf.WriteString("}\n")
	s := l.sink
	s.mu.Lock()
	_, err := s.w.Write(buf.Bytes())
	s.mu.Unlock()
	if err != nil {
		// The sink failed (disk full, closed pipe); the record is lost and
		// there is nowhere better to report it than a counter.
		s.writeErrs.Add(1)
	}
}

// appendPairs renders `,"k":v` for each key-value pair. A trailing odd value
// is recorded under "!missing-key" rather than dropped, so a miscounted call
// site is visible in the output instead of silently lossy.
func appendPairs(buf *bytes.Buffer, kv []any) {
	for i := 0; i+1 < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		buf.WriteByte(',')
		writeJSONValue(buf, key)
		buf.WriteByte(':')
		writeJSONValue(buf, kv[i+1])
	}
	if len(kv)%2 == 1 {
		buf.WriteString(`,"!missing-key":`)
		writeJSONValue(buf, kv[len(kv)-1])
	}
}

// writeJSONValue marshals v, falling back to its fmt rendering when v does
// not marshal (error values, channels): a log line must never fail.
func writeJSONValue(buf *bytes.Buffer, v any) {
	if err, ok := v.(error); ok && err != nil {
		v = err.Error()
	}
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(fmt.Sprint(v)) //rkvet:ignore dropperr marshaling a plain string cannot fail
	}
	buf.Write(b)
}
