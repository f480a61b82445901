package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDuplicateRegistrationPanics pins the init-time contract: a copy-pasted
// metric name must crash the process at startup, not split a series.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("rk_test_dup_total", "first registration")
	defer func() {
		if recover() == nil {
			t.Fatalf("second registration of the same name did not panic")
		}
	}()
	r.NewCounter("rk_test_dup_total", "second registration")
}

// TestDuplicateAcrossKindsPanics: the name space is shared across metric
// kinds — a histogram cannot shadow a counter.
func TestDuplicateAcrossKindsPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("rk_test_kind_total", "counter")
	defer func() {
		if recover() == nil {
			t.Fatalf("cross-kind duplicate registration did not panic")
		}
	}()
	r.NewHistogram("rk_test_kind_total", "histogram", nil)
}

// TestInvalidNamePanics rejects names outside the Prometheus grammar.
func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "2leading", "has-dash", "sp ace"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			r.NewCounter(bad, "bad")
		}()
	}
}

// TestNilMetricsAreNoOps: disabled instrumentation is a nil pointer; every
// method must be safe.
func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	var g *Gauge
	g.Add(3)
	g.Inc()
	g.Dec()
	if g.Value() != 0 {
		t.Fatalf("nil gauge value = %d", g.Value())
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil histogram observed something")
	}
	var cv *CounterVec
	cv.With("x").Inc()
	var hv *HistogramVec
	hv.With("x").Observe(1)
	var tr *Tracer
	sp := tr.Start("x").StartSpan("y")
	sp.End()
	tr.Start("x").Finish()
}

// TestHotPathConcurrency is the -race hot-path test the ISSUE asks for:
// N goroutines × M increments on one counter, one gauge, and one histogram,
// with exact final totals. Any lost update or data race fails.
func TestHotPathConcurrency(t *testing.T) {
	const goroutines = 16
	const perG = 4998 // divisible by 3: the 0,1,2 observation cycle below stays exact
	r := NewRegistry()
	c := r.NewCounter("rk_test_conc_total", "concurrent counter")
	g := r.NewGauge("rk_test_conc_inflight", "concurrent gauge")
	h := r.NewHistogram("rk_test_conc_seconds", "concurrent histogram", []float64{0.5, 1.5, 2.5})
	cv := r.NewCounterVec("rk_test_conc_vec_total", "concurrent vec", "worker")

	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := cv.With("w" + string(rune('a'+w%4)))
			for i := 0; i < perG; i++ {
				c.Inc()
				g.Inc()
				g.Dec()
				h.Observe(float64(i % 3)) // 0, 1, 2 spread across buckets
				child.Inc()
			}
		}(w)
	}
	wg.Wait()

	const total = goroutines * perG
	if got := c.Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0 after paired inc/dec", got)
	}
	if got := h.Count(); got != total {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
	// Each goroutine observes 0,1,2 repeating: perG/3 full cycles of sum 3,
	// so the total is exactly goroutines·perG — small integers are exact in
	// float64, so == is the right comparison here.
	wantSum := float64(goroutines * perG)
	if got := h.Sum(); got != wantSum {
		t.Errorf("histogram sum = %v, want %v", got, wantSum)
	}
	// Bucket boundaries: 0 ≤ 0.5; 1 ≤ 1.5; 2 ≤ 2.5 — one third each.
	var buf bytes.Buffer
	h.expose(&buf)
	if !strings.Contains(buf.String(), `le="0.5"} `+itoa(total/3)) {
		t.Errorf("first bucket wrong:\n%s", buf.String())
	}
	sum := int64(0)
	for _, k := range []string{"wa", "wb", "wc", "wd"} {
		sum += cv.With(k).Value()
	}
	if sum != total {
		t.Errorf("vec children sum = %d, want %d", sum, total)
	}
}

func itoa(n int) string {
	var b [20]byte
	i := len(b)
	if n == 0 {
		return "0"
	}
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestHistogramBucketEdges pins the `le` inclusivity: a value equal to a
// bound lands in that bound's bucket.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("rk_test_edges_seconds", "edges", []float64{1, 2})
	h.Observe(1)           // le="1"
	h.Observe(2)           // le="2"
	h.Observe(2.000001)    // +Inf
	h.Observe(-5)          // le="1" (cumulative from below)
	h.Observe(math.Inf(1)) // +Inf
	var buf bytes.Buffer
	h.expose(&buf)
	out := buf.String()
	for _, want := range []string{
		`rk_test_edges_seconds_bucket{le="1"} 2`,
		`rk_test_edges_seconds_bucket{le="2"} 3`,
		`rk_test_edges_seconds_bucket{le="+Inf"} 5`,
		`rk_test_edges_seconds_count 5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestExpositionGolden locks the exact exposition bytes for a registry with
// one of every metric kind — the contract a Prometheus scraper parses.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("rk_golden_requests_total", "Requests served.")
	c.Add(42)
	g := r.NewGauge("rk_golden_inflight", "In-flight requests.")
	g.Add(3)
	r.NewGaugeFunc("rk_golden_context_rows", "Live context rows.", func() float64 { return 1234 })
	cv := r.NewCounterVec("rk_golden_by_code_total", "Requests by endpoint and code.", "endpoint", "code")
	cv.With("/explain", "200").Add(7)
	cv.With("/explain", "429").Inc()
	cv.With("/observe", "200").Add(9)
	h := r.NewHistogram("rk_golden_latency_seconds", "Request latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	hv := r.NewHistogramVec("rk_golden_stage_seconds", "Stage latency.", []float64{0.001, 1}, "stage")
	hv.With("srk").Observe(0.0005)
	hv.With("exact").Observe(2)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("updating golden file: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file.\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// promLine is the shape every non-comment exposition line must match:
// name{labels} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[-+]?Inf|[-+]?[0-9].*)$`)

// TestExpositionWellFormed validates every line of a populated registry
// against the text-format grammar — the scraper-side sanity check.
func TestExpositionWellFormed(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("rk_wf_total", "c").Add(5)
	r.NewHistogramVec("rk_wf_seconds", "h", nil, "stage").With("greedy").Observe(0.25)
	r.NewGaugeFunc("rk_wf_rows", "g", func() float64 { return 0.5 })
	r.NewCounterVec("rk_wf_escaped_total", "c", "l").With("a\"b\\c\nd").Inc()
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	// The quote, backslash and newline are escaped once, so a scraper reads
	// the value back as written.
	if want := `rk_wf_escaped_total{l="a\"b\\c\nd"} 1` + "\n"; !strings.Contains(buf.String(), want) {
		t.Errorf("escaped label line missing; want %q in:\n%s", want, buf.String())
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 10 {
		t.Fatalf("suspiciously short exposition:\n%s", buf.String())
	}
	for _, line := range lines {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

// TestHandler serves /metrics over HTTP with the right content type.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("rk_handler_total", "c").Inc()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading body: %v", err)
	}
	if !strings.Contains(buf.String(), "rk_handler_total 1") {
		t.Fatalf("series missing from scrape:\n%s", buf.String())
	}
	resp2, err := srv.Client().Post(srv.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatalf("POST /metrics: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 405 {
		t.Fatalf("POST answered %d, want 405", resp2.StatusCode)
	}
}

// TestTracerSampling: 1-in-N sampling starts exactly ⌈calls/N⌉ traces, and
// spans recorded through a context land in the dump.
func TestTracerSampling(t *testing.T) {
	tr := NewTracer(4, 8)
	started := 0
	for i := 0; i < 16; i++ {
		trace := tr.Start("explain")
		if trace == nil {
			continue
		}
		started++
		ctx := ContextWithTrace(context.Background(), trace)
		sp := StartSpan(ctx, "srk.greedy")
		sp.End()
		StartSpan(ctx, "wal.append").End()
		trace.Finish()
	}
	if started != 4 {
		t.Fatalf("sampled %d of 16 at 1-in-4, want 4", started)
	}
	var buf bytes.Buffer
	if err := tr.DumpJSON(&buf); err != nil {
		t.Fatalf("DumpJSON: %v", err)
	}
	var doc struct {
		Traces []struct {
			ID    string `json:"id"`
			Name  string `json:"name"`
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Traces) != 4 {
		t.Fatalf("dump holds %d traces, want 4", len(doc.Traces))
	}
	for _, trace := range doc.Traces {
		if trace.ID == "" || trace.Name != "explain" || len(trace.Spans) != 2 {
			t.Errorf("bad trace in dump: %+v", trace)
		}
	}
}

// TestTracerRingBound: the ring retains only the newest `keep` traces.
func TestTracerRingBound(t *testing.T) {
	tr := NewTracer(1, 3)
	for i := 0; i < 10; i++ {
		tr.Start("t").Finish()
	}
	tr.mu.Lock()
	n := len(tr.ring)
	tr.mu.Unlock()
	if n != 3 {
		t.Fatalf("ring holds %d traces, want 3", n)
	}
}

// TestUnsampledPathAllocates0: the disabled/unsampled trace path must not
// allocate — it runs on every request.
func TestUnsampledPathAllocates0(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		sp := StartSpan(ctx, "x")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("unsampled StartSpan allocates %.1f times per call", allocs)
	}
}

// TestLogger pins the record shape cceserver writes: one JSON object per
// line keyed ts (RFC 3339, UTC), level (lower case) and msg, then the fields
// With bound, then the call's own fields, in call order; records below the
// level are dropped. slog.New(DiscardHandler) drops everything.
func TestLogger(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelInfo)
	lg.Debug("dropped below level")
	lg.Info("listening", "addr", ":8080", "alpha", 0.95)
	bound := lg.With("component", "wal")
	bound.Warn("fsync slow", "ms", 125)
	bound.Error("append failed", "err", errString("disk full"))
	lg.Info("clock", "time", "later") // a call field named time holds no time

	want := []string{
		`"level":"info","msg":"listening","addr":":8080","alpha":0.95}`,
		`"level":"warn","msg":"fsync slow","component":"wal","ms":125}`,
		`"level":"error","msg":"append failed","component":"wal","err":"disk full"}`,
		`"level":"info","msg":"clock","time":"later"}`,
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("got %d records, want %d:\n%s", len(lines), len(want), buf.String())
	}
	for i, line := range lines {
		rest, ok := strings.CutPrefix(line, `{"ts":"`)
		ts, rest, cut := strings.Cut(rest, `",`)
		if !ok || !cut {
			t.Fatalf("record does not open with ts: %s", line)
		}
		if _, err := time.Parse(time.RFC3339Nano, ts); err != nil || !strings.HasSuffix(ts, "Z") {
			t.Errorf("ts %q is not RFC 3339 in UTC (%v)", ts, err)
		}
		if rest != want[i] {
			t.Errorf("record %d after ts:\n got %s\nwant %s", i, rest, want[i])
		}
		if !json.Valid([]byte(line)) {
			t.Errorf("record is not valid JSON: %s", line)
		}
	}

	discard := slog.New(DiscardHandler)
	if discard.Enabled(context.Background(), slog.LevelError) {
		t.Error("DiscardHandler is enabled at error level")
	}
	discard.With("k", "v").WithGroup("g").Error("dropped", "err", errString("x"))
}

// TestLoggerWithSharesSink: a root logger and the loggers With derives from
// it write through one sink. Logging concurrently from all three into a
// bytes.Buffer, which is not safe for concurrent use, must neither race nor
// interleave records, and each record keeps its own logger's component.
func TestLoggerWithSharesSink(t *testing.T) {
	var buf bytes.Buffer
	root := NewLogger(&buf, slog.LevelInfo)
	loggers := []*slog.Logger{root, root.With("component", "a"), root.With("component", "b")}
	const perLogger = 200
	var wg sync.WaitGroup
	for _, l := range loggers {
		wg.Add(1)
		go func(l *slog.Logger) {
			defer wg.Done()
			for i := 0; i < perLogger; i++ {
				l.Info("record", "i", i)
			}
		}(l)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if want := len(loggers) * perLogger; len(lines) != want {
		t.Fatalf("got %d lines, want %d", len(lines), want)
	}
	perComponent := map[string]int{}
	for _, line := range lines {
		var rec struct {
			Level     string `json:"level"`
			Msg       string `json:"msg"`
			Component string `json:"component"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line is not one JSON record: %v\n%s", err, line)
		}
		if rec.Level != "info" || rec.Msg != "record" {
			t.Fatalf("interleaved record: %s", line)
		}
		perComponent[rec.Component]++
	}
	for _, c := range []string{"", "a", "b"} {
		if perComponent[c] != perLogger {
			t.Errorf("component %q wrote %d records, want %d", c, perComponent[c], perLogger)
		}
	}
}

// errString is a minimal error for logger tests.
type errString string

func (e errString) Error() string { return string(e) }

// TestHandlerSortsAcrossRegistries: one scrape of several registries is a
// single exposition sorted by family name across them. Every family of every
// registry is written, so a name present in two registries appears twice, in
// registry order — the handler neither merges nor drops a family.
func TestHandlerSortsAcrossRegistries(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.NewCounter("rk_sort_b_total", "b in a").Add(2)
	a.NewGauge("rk_sort_d", "d").Add(4)
	b.NewCounter("rk_sort_a_total", "a").Inc()
	b.NewGaugeFunc("rk_sort_c", "c", func() float64 { return 3 })
	b.NewCounter("rk_sort_b_total", "b in b").Add(5)
	srv := httptest.NewServer(Handler(a, b))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading body: %v", err)
	}
	want := `# HELP rk_sort_a_total a
# TYPE rk_sort_a_total counter
rk_sort_a_total 1
# HELP rk_sort_b_total b in a
# TYPE rk_sort_b_total counter
rk_sort_b_total 2
# HELP rk_sort_b_total b in b
# TYPE rk_sort_b_total counter
rk_sort_b_total 5
# HELP rk_sort_c c
# TYPE rk_sort_c gauge
rk_sort_c 3
# HELP rk_sort_d d
# TYPE rk_sort_d gauge
rk_sort_d 4
`
	if got := buf.String(); got != want {
		t.Fatalf("scrape of two registries:\n%s\nwant:\n%s", got, want)
	}
}

// failingWriter is a ResponseWriter whose body writes fail, as a client that
// hangs up mid-response leaves one.
type failingWriter struct{ h http.Header }

func (w *failingWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}
func (w *failingWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }
func (w *failingWriter) WriteHeader(int)           {}

// TestOpsWriteFailuresCounted: a /metrics scrape and a /debug/traces dump
// whose body write fails each count once in rk_ops_write_failures_total, a
// Default series every server's scrape serves.
func TestOpsWriteFailuresCounted(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("rk_write_failure_total", "c").Inc()
	tr := NewTracer(1, 4)
	tr.Start("explain").Finish()
	for _, tc := range []struct {
		path string
		h    http.Handler
	}{{"/metrics", Handler(r)}, {"/debug/traces", tr.Handler()}} {
		before := opsWriteFailures.Value()
		tc.h.ServeHTTP(&failingWriter{}, httptest.NewRequest(http.MethodGet, tc.path, nil))
		if got := opsWriteFailures.Value() - before; got != 1 {
			t.Fatalf("%s: a failed write moved rk_ops_write_failures_total by %d, want 1", tc.path, got)
		}
	}
	var buf bytes.Buffer
	if err := Default.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# TYPE rk_ops_write_failures_total counter") {
		t.Fatal("rk_ops_write_failures_total missing from Default's exposition")
	}
}
