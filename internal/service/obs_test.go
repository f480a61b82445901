package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/obs"
)

func obsTestServer(t *testing.T) (*Server, *httptest.Server, *Client) {
	t.Helper()
	schema := feature.MustSchema([]feature.Attribute{
		{Name: "Income", Values: []string{"1-2K", "3-4K", "5-6K"}},
		{Name: "Credit", Values: []string{"poor", "good"}},
	}, []string{"Denied", "Approved"})
	srv, err := NewServer(Config{Schema: schema, Alpha: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, NewClient(ts.URL)
}

// TestHealthzReportsRollbacks: the observation-rollback counters must be
// visible in /healthz so an operator can see client-facing failures whose
// state was correctly undone.
func TestHealthzReportsRollbacks(t *testing.T) {
	srv, ts, client := obsTestServer(t)
	srv.monitor = &failingMonitor{allow: 1}

	row := map[string]string{"Income": "3-4K", "Credit": "poor"}
	if err := client.Observe(row, "Denied"); err != nil {
		t.Fatal(err)
	}
	if err := client.Observe(row, "Denied"); err == nil {
		t.Fatal("failing monitor not surfaced")
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("status %q, want ok", h.Status)
	}
	if h.ContextSize != 1 {
		t.Fatalf("context_size %d, want 1 (rollback undone)", h.ContextSize)
	}
	if h.RollbacksMonitor != 1 {
		t.Fatalf("observe_rollbacks_monitor = %d, want 1", h.RollbacksMonitor)
	}
	if h.RollbacksWAL != 0 {
		t.Fatalf("observe_rollbacks_wal = %d, want 0", h.RollbacksWAL)
	}

	// Stats carries the same counters.
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.RollbacksMonitor != 1 {
		t.Fatalf("stats rollbacks_monitor = %d, want 1", stats.RollbacksMonitor)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var h2 HealthResponse
	if err := json.NewDecoder(resp2.Body).Decode(&h2); err != nil {
		t.Fatal(err)
	}
	if h2.Status != "draining" {
		t.Fatalf("status after Close %q, want draining", h2.Status)
	}
}

// TestMetricsEndpoint: the service mux serves the process registry and the
// server's own in Prometheus text format, including the request series the
// middleware just recorded.
func TestMetricsEndpoint(t *testing.T) {
	_, ts, client := obsTestServer(t)
	row := map[string]string{"Income": "1-2K", "Credit": "good"}
	if err := client.Observe(row, "Approved"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Explain(row, "Approved", 0); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`rk_http_requests_total{endpoint="explain",code="200"}`,
		`rk_http_requests_total{endpoint="observe",code="200"}`,
		"rk_http_request_seconds_bucket",
		"rk_solver_stage_seconds_bucket",
		"rk_observe_rollbacks_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q\n%s", want, body)
		}
	}
}

// TestTracedExplainRecordsSolverSpans: a sampled explain carries its trace
// through the request context down to the solver stages.
func TestTracedExplainRecordsSolverSpans(t *testing.T) {
	schema := feature.MustSchema([]feature.Attribute{
		{Name: "Income", Values: []string{"1-2K", "3-4K"}},
		{Name: "Credit", Values: []string{"poor", "good"}},
	}, []string{"Denied", "Approved"})
	tracer := obs.NewTracer(1, 8)
	srv, err := NewServer(Config{Schema: schema, Alpha: 1.0, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)

	row := map[string]string{"Income": "1-2K", "Credit": "poor"}
	if err := client.Observe(row, "Denied"); err != nil {
		t.Fatal(err)
	}
	if err := client.Observe(map[string]string{"Income": "3-4K", "Credit": "good"}, "Approved"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Explain(row, "Denied", 0); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump struct {
		Traces []struct {
			Name  string `json:"name"`
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	foundSpan := false
	for _, tr := range dump.Traces {
		if tr.Name != "explain" {
			continue
		}
		for _, sp := range tr.Spans {
			if sp.Name == "srk.greedy" {
				foundSpan = true
			}
		}
	}
	if !foundSpan {
		t.Fatalf("no explain trace with an srk.greedy span in %+v", dump)
	}
}
