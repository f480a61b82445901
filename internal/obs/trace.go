package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer samples request traces: one trace per sampled request, carrying the
// spans recorded by every layer the request's context flows through (solver
// stages, WAL appends, snapshot writes). Completed traces sit in a bounded
// ring; DumpJSON and the /debug/traces handler render them as JSON.
//
// A nil *Tracer is disabled: Start returns nil, and a nil *Trace/*Span is a
// no-op everywhere, so call sites never branch on "is tracing on".
type Tracer struct {
	every int64 // sample 1 in every; <= 0 disables
	keep  int

	seq atomic.Int64 // requests seen, for the sampling decision

	mu     sync.Mutex
	ring   []*Trace   // guarded by mu; completed traces, oldest first
	idSeed *rand.Rand // guarded by mu; trace-ID entropy
}

// NewTracer samples one trace in every `every` Start calls (0 disables) and
// retains the most recent `keep` completed traces (0 = 32).
func NewTracer(every, keep int) *Tracer {
	if every <= 0 {
		return nil
	}
	if keep <= 0 {
		keep = 32
	}
	return &Tracer{
		every:  int64(every),
		keep:   keep,
		idSeed: rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Start begins a trace when this request is sampled, nil otherwise. The
// unsampled path is one atomic add.
func (t *Tracer) Start(name string) *Trace {
	if t == nil {
		return nil
	}
	n := t.seq.Add(1)
	if (n-1)%t.every != 0 {
		return nil
	}
	t.mu.Lock()
	id := fmt.Sprintf("%08x%08x", t.idSeed.Uint32(), t.idSeed.Uint32())
	t.mu.Unlock()
	return &Trace{tracer: t, ID: id, Name: name, start: time.Now()}
}

// Trace is one sampled request. Spans may be recorded concurrently (batch
// explains fan out across workers).
type Trace struct {
	tracer *Tracer
	ID     string
	Name   string
	start  time.Time

	mu    sync.Mutex
	spans []SpanRecord // guarded by mu
	done  bool         // guarded by mu; Finish already ran
	durUS int64        // guarded by mu; total duration, set by Finish
}

// SpanRecord is one finished span, with times relative to the trace start.
type SpanRecord struct {
	Name       string `json:"name"`
	StartUS    int64  `json:"start_us"`
	DurationUS int64  `json:"duration_us"`
}

// traceJSON is the dump schema for one trace.
type traceJSON struct {
	ID         string       `json:"id"`
	Name       string       `json:"name"`
	Start      string       `json:"start"`
	DurationUS int64        `json:"duration_us"`
	Spans      []SpanRecord `json:"spans"`
}

// StartSpan opens a span under the trace; nil-safe.
func (tr *Trace) StartSpan(name string) *Span {
	if tr == nil {
		return nil
	}
	return &Span{trace: tr, name: name, start: time.Now()}
}

// Finish seals the trace and files it in the tracer's ring. Safe to call
// once; later spans are dropped.
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.done {
		tr.mu.Unlock()
		return
	}
	tr.done = true
	tr.durUS = time.Since(tr.start).Microseconds()
	tr.mu.Unlock()
	t := tr.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring = append(t.ring, tr)
	if len(t.ring) > t.keep {
		t.ring = append(t.ring[:0], t.ring[len(t.ring)-t.keep:]...)
	}
}

// Span is one timed region of a sampled request.
type Span struct {
	trace *Trace
	name  string
	start time.Time
}

// End records the span's duration into its trace; nil-safe, so the disabled
// path is a nil check.
func (s *Span) End() {
	if s == nil {
		return
	}
	tr := s.trace
	rec := SpanRecord{
		Name:       s.name,
		StartUS:    s.start.Sub(tr.start).Microseconds(),
		DurationUS: time.Since(s.start).Microseconds(),
	}
	tr.mu.Lock()
	if !tr.done {
		tr.spans = append(tr.spans, rec)
	}
	tr.mu.Unlock()
}

// traceCtxKey keys the active trace in a context.Context.
type traceCtxKey struct{}

// ContextWithTrace returns ctx carrying tr; a nil trace returns ctx as-is so
// the unsampled path allocates nothing.
func ContextWithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, tr)
}

// TraceFrom extracts the active trace, nil when the request is unsampled.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return tr
}

// StartSpan opens a span on the context's trace — the one-liner every
// instrumented stage uses:
//
//	sp := obs.StartSpan(ctx, "srk.greedy")
//	defer sp.End()
//
// When the request is unsampled this is a context lookup and two nil checks.
func StartSpan(ctx context.Context, name string) *Span {
	return TraceFrom(ctx).StartSpan(name)
}

// snapshotLocked renders the ring newest-first. Callers hold t.mu.
func (t *Tracer) snapshotLocked() []traceJSON {
	out := make([]traceJSON, 0, len(t.ring))
	for i := len(t.ring) - 1; i >= 0; i-- {
		tr := t.ring[i]
		tr.mu.Lock()
		spans := append([]SpanRecord(nil), tr.spans...)
		dur := tr.durUS
		tr.mu.Unlock()
		out = append(out, traceJSON{
			ID:         tr.ID,
			Name:       tr.Name,
			Start:      tr.start.UTC().Format(time.RFC3339Nano),
			DurationUS: dur,
			Spans:      spans,
		})
	}
	return out
}

// DumpJSON writes the retained traces, newest first, as one JSON document.
func (t *Tracer) DumpJSON(w io.Writer) error {
	if t == nil {
		return json.NewEncoder(w).Encode(map[string]any{"traces": []any{}})
	}
	t.mu.Lock()
	traces := t.snapshotLocked()
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"traces": traces})
}

// Handler serves the retained traces at GET /debug/traces.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := t.DumpJSON(w); err != nil {
			// Mid-body write failure: the client is gone; nothing to answer.
			Default.scrapeDrops.Add(1)
		}
	})
}
