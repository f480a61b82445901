package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/faultinject"
	"github.com/xai-db/relativekeys/internal/feature"
)

func robustSchema(t testing.TB) *feature.Schema {
	t.Helper()
	return feature.MustSchema([]feature.Attribute{
		{Name: "Income", Values: []string{"1-2K", "3-4K", "5-6K"}},
		{Name: "Credit", Values: []string{"poor", "good"}},
		{Name: "Area", Values: []string{"Urban", "Rural"}},
	}, []string{"Denied", "Approved"})
}

func robustSeed() []feature.Labeled {
	return []feature.Labeled{
		{X: feature.Instance{0, 0, 0}, Y: 0},
		{X: feature.Instance{1, 0, 0}, Y: 0},
		{X: feature.Instance{2, 0, 0}, Y: 1},
		{X: feature.Instance{1, 1, 1}, Y: 1},
		{X: feature.Instance{0, 1, 0}, Y: 0},
		{X: feature.Instance{2, 1, 1}, Y: 1},
	}
}

// tableOf copies rows into a table over schema, the form InstallSnapshot
// takes.
func tableOf(schema *feature.Schema, rows []feature.Labeled) *feature.Rows {
	t := feature.NewRows(schema, len(rows))
	for _, li := range rows {
		t.Append(li)
	}
	return t
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// keyFromFeatures maps response feature names back to attribute indices so
// the test can verify conformance against the server's own context.
func keyFromFeatures(t *testing.T, schema *feature.Schema, names []string) core.Key {
	t.Helper()
	var key core.Key
	for _, name := range names {
		found := -1
		for a, attr := range schema.Attrs {
			if attr.Name == name {
				found = a
				break
			}
		}
		if found < 0 {
			t.Fatalf("response names unknown attribute %q", name)
		}
		key = append(key, found)
	}
	return key
}

// The acceptance test for graceful degradation: a solver stalled far past
// the request deadline must still answer 200 with a valid (violations ≤
// budget) key marked degraded — never an error, never a hang.
func TestExplainDeadlineDegrades(t *testing.T) {
	schema := robustSchema(t)
	srv, err := NewServer(Config{
		Schema: schema,
		Alpha:  1.0,
		Solve: SolveFunc(faultinject.WrapSolve(core.SRKAnytime, faultinject.New(1), faultinject.SolveFaults{
			LatencyProb: 1,
			Latency:     time.Hour,
		})),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Warm(robustSeed()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	row := map[string]string{"Income": "5-6K", "Credit": "good", "Area": "Rural"}
	done := make(chan *ExplainResponse, 1)
	go func() {
		c := NewClient(ts.URL)
		resp, err := c.ExplainDeadline(row, "Approved", 0, 30*time.Millisecond)
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- resp
	}()
	var resp *ExplainResponse
	select {
	case resp = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadline explain hung")
	}
	if resp == nil {
		t.FailNow()
	}
	if !resp.Degraded {
		t.Fatal("hour-long stall under a 30ms deadline must degrade")
	}
	li, err := srv.decode(row, "Approved")
	if err != nil {
		t.Fatal(err)
	}
	key := keyFromFeatures(t, schema, resp.Features)
	if !core.IsAlphaKey(srv.ctx.Context(), li.X, li.Y, key, 1.0) {
		t.Fatalf("degraded key %v is not α-conformant", key)
	}
	stats, err := NewClient(ts.URL).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DegradedTotal == 0 {
		t.Fatal("degraded explain not counted in stats")
	}
}

// Deadlines below the configured floor shed immediately with 503 and a
// Retry-After hint rather than producing a useless everything-key.
func TestDeadlineFloorSheds(t *testing.T) {
	srv, err := NewServer(Config{Schema: robustSchema(t), Alpha: 1.0, MinDeadline: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Warm(robustSeed()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resp := postJSON(t, ts.URL+"/explain", ExplainRequest{
		Values:     map[string]string{"Income": "5-6K", "Credit": "good", "Area": "Rural"},
		Prediction: "Approved",
		DeadlineMS: 10,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// A deadline_ms that overflows a time.Duration (here it would wrap to
	// 448.384µs) is the client's error, not a floor shed.
	huge := postJSON(t, ts.URL+"/explain", ExplainRequest{
		Values:     map[string]string{"Income": "5-6K", "Credit": "good", "Area": "Rural"},
		Prediction: "Approved",
		DeadlineMS: 18446744073710,
	})
	defer huge.Body.Close()
	if huge.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflowing deadline_ms: status %d, want 400", huge.StatusCode)
	}
	// At or above the floor the request goes through.
	ok := postJSON(t, ts.URL+"/explain", ExplainRequest{
		Values:     map[string]string{"Income": "5-6K", "Credit": "good", "Area": "Rural"},
		Prediction: "Approved",
		DeadlineMS: 60,
	})
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("above-floor status %d, want 200", ok.StatusCode)
	}
}

// With the in-flight bound saturated by a deliberately stalled solve, the
// next explain is shed with 429 instead of queueing behind it.
func TestLoadShedding(t *testing.T) {
	schema := robustSchema(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	srv, err := NewServer(Config{
		Schema:      schema,
		Alpha:       1.0,
		MaxInFlight: 1,
		Solve: func(ctx context.Context, c *core.Context, x feature.Instance, y feature.Label, alpha float64) (core.Key, bool, error) {
			entered <- struct{}{}
			<-release
			return core.SRKAnytime(ctx, c, x, y, alpha)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Warm(robustSeed()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	req := ExplainRequest{
		Values:     map[string]string{"Income": "5-6K", "Credit": "good", "Area": "Rural"},
		Prediction: "Approved",
	}
	first := make(chan int, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/explain", req)
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-entered // the slot is now held mid-solve
	shed := postJSON(t, ts.URL+"/explain", req)
	defer shed.Body.Close()
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated explain got %d, want 429", shed.StatusCode)
	}
	if shed.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("held explain finished with %d, want 200", code)
	}
	stats, err := NewClient(ts.URL).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShedTotal != 1 {
		t.Fatalf("shed_total = %d, want 1", stats.ShedTotal)
	}
}

// A panicking solver must cost exactly one 500, not the process: later
// requests on the same server keep working.
func TestPanicRecovery(t *testing.T) {
	schema := robustSchema(t)
	var arm bool
	srv, err := NewServer(Config{
		Schema: schema,
		Alpha:  1.0,
		Solve: func(ctx context.Context, c *core.Context, x feature.Instance, y feature.Label, alpha float64) (core.Key, bool, error) {
			if arm {
				panic("poisoned request")
			}
			return core.SRKAnytime(ctx, c, x, y, alpha)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Warm(robustSeed()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	req := ExplainRequest{
		Values:     map[string]string{"Income": "5-6K", "Credit": "good", "Area": "Rural"},
		Prediction: "Approved",
	}
	arm = true
	resp := postJSON(t, ts.URL+"/explain", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500", resp.StatusCode)
	}
	arm = false
	again := postJSON(t, ts.URL+"/explain", req)
	defer again.Body.Close()
	if again.StatusCode != http.StatusOK {
		t.Fatalf("server did not survive the panic: %d", again.StatusCode)
	}
	stats, err := NewClient(ts.URL).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.PanicsRecovered != 1 {
		t.Fatalf("panics_recovered = %d, want 1", stats.PanicsRecovered)
	}
}

// After Close the server drains: both mutating and solving endpoints answer
// 503 so a load balancer fails over cleanly.
func TestClosedServerAnswers503(t *testing.T) {
	srv, err := NewServer(Config{Schema: robustSchema(t), Alpha: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Warm(robustSeed()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
	for _, path := range []string{"/observe", "/explain"} {
		resp := postJSON(t, ts.URL+path, ExplainRequest{
			Values:     map[string]string{"Income": "5-6K", "Credit": "good", "Area": "Rural"},
			Prediction: "Approved",
		})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s on closed server: %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s 503 without Retry-After", path)
		}
		body := make([]byte, 256)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if !strings.Contains(string(body[:n]), "shutting down") {
			t.Fatalf("%s: unhelpful drain message %q", path, body[:n])
		}
	}
}
