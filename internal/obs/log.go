package obs

import (
	"context"
	"io"
	"log/slog"
	"strings"
	"time"
)

// NewLogger returns a log/slog logger that writes records at or above level
// to w as one JSON object per line:
//
//	{"ts":"2026-08-05T10:15:00.123Z","level":"info","msg":"listening","addr":":8080"}
//
// The time is keyed ts (RFC 3339, UTC) and the level is lower case; then
// come msg, the fields bound by With, and the call's own fields, in call
// order. Every logger With derives writes through the same handler, which
// serializes writes to w.
func NewLogger(w io.Writer, level slog.Leveler) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{
		Level: level,
		ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
			// ReplaceAttr also sees call fields: the kind checks keep a field
			// named time or level that holds no time or slog.Level (Value.Time
			// would panic on it) as the caller wrote it.
			switch {
			case a.Key == slog.TimeKey && a.Value.Kind() == slog.KindTime:
				return slog.String("ts", a.Value.Time().UTC().Format(time.RFC3339Nano))
			case a.Key == slog.LevelKey:
				if l, ok := a.Value.Any().(slog.Level); ok {
					return slog.String(slog.LevelKey, strings.ToLower(l.String()))
				}
			}
			return a
		},
	}))
}

// DiscardHandler drops every record: slog.New(DiscardHandler) is the logger
// a constructor substitutes for a nil one, so library code logs without a
// nil check. (slog.DiscardHandler arrives in Go 1.24, past go.mod's line.)
var DiscardHandler slog.Handler = discardHandler{}

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
