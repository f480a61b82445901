package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/feature"
)

// serverCounters is every counter series a server registers. A scrape must
// carry each one, reading 0 unless the server's own traffic moved it.
var serverCounters = []string{
	`rk_shed_total{reason="overload"}`,
	`rk_shed_total{reason="deadline_floor"}`,
	`rk_shed_total{reason="draining"}`,
	`rk_shed_total{reason="stale"}`,
	`rk_explain_degraded_total`,
	`rk_observe_rollbacks_total{cause="monitor"}`,
	`rk_observe_rollbacks_total{cause="wal"}`,
	`rk_panics_recovered_total`,
	`rk_wal_sync_failures_total`,
	`rk_snapshot_failures_total`,
	`rk_explain_cache_total{outcome="hit"}`,
	`rk_explain_cache_total{outcome="miss"}`,
	`rk_explain_cache_total{outcome="bypass"}`,
	`rk_explain_cache_evictions_total`,
	`rk_jobs_total{event="submitted"}`,
	`rk_jobs_total{event="completed"}`,
	`rk_jobs_total{event="failed"}`,
	`rk_jobs_total{event="resumed"}`,
	`rk_job_items_total`,
}

// scrape reads one /metrics exposition into series → value, failing the test
// when a family's # TYPE line appears more than once.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //rkvet:ignore dropperr test teardown
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]float64{}
	types := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, _, _ := strings.Cut(rest, " ")
			if types[family] {
				t.Fatalf("%s/metrics: # TYPE %s appears twice", base, family)
			}
			types[family] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("%s/metrics: bad line %q", base, line)
		}
		series[line[:i]] = v
	}
	return series
}

// checkSeries asserts a scrape against a server's expected traffic: every
// counter in serverCounters and every rk_http_requests_total series reads
// exactly its wanted value (0 when not listed), the request serving the
// scrape is the one in flight, and the context-row gauge reads rows.
func checkSeries(t *testing.T, name string, got, want map[string]float64, rows int) {
	t.Helper()
	check := map[string]bool{}
	for _, s := range serverCounters {
		if _, ok := got[s]; !ok {
			t.Fatalf("%s: /metrics lacks %s", name, s)
		}
		check[s] = true
	}
	for s := range got {
		if strings.HasPrefix(s, "rk_http_requests_total{") {
			check[s] = true
		}
	}
	for s := range want {
		check[s] = true
	}
	for s := range check {
		if got[s] != want[s] {
			t.Errorf("%s: %s = %v, want %v", name, s, got[s], want[s])
		}
	}
	if v := got["rk_http_inflight"]; v != 1 {
		t.Errorf("%s: rk_http_inflight = %v, want 1 (the scrape itself)", name, v)
	}
	if v, ok := got["rk_context_rows"]; !ok || v != float64(rows) {
		t.Errorf("%s: rk_context_rows = %v (present %v), want %d", name, v, ok, rows)
	}
}

// checkAgree asserts that /stats and /healthz report the same counts as the
// server's /metrics scrape m.
func checkAgree(t *testing.T, name, base string, m map[string]float64) {
	t.Helper()
	var st StatsResponse
	var h HealthResponse
	for path, into := range map[string]any{"/stats": &st, "/healthz": &h} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(into)
		resp.Body.Close() //rkvet:ignore dropperr test teardown
		if err != nil {
			t.Fatal(err)
		}
	}
	n := func(s string) int64 { return int64(m[s]) }
	for _, c := range []struct {
		field     string
		got, want int64
	}{
		{"stats shed_total", st.ShedTotal, n(`rk_shed_total{reason="overload"}`) + n(`rk_shed_total{reason="stale"}`)},
		{"stats degraded_total", st.DegradedTotal, n(`rk_explain_degraded_total`)},
		{"stats cache_hits", st.CacheHits, n(`rk_explain_cache_total{outcome="hit"}`)},
		{"stats cache_misses", st.CacheMisses, n(`rk_explain_cache_total{outcome="miss"}`)},
		{"stats cache_bypassed", st.CacheBypassed, n(`rk_explain_cache_total{outcome="bypass"}`)},
		{"stats context_size", int64(st.ContextSize), n(`rk_context_rows`)},
		{"stats observe_rollbacks_monitor", st.RollbacksMonitor, n(`rk_observe_rollbacks_total{cause="monitor"}`)},
		{"stats observe_rollbacks_wal", st.RollbacksWAL, n(`rk_observe_rollbacks_total{cause="wal"}`)},
		{"stats panics_recovered", st.PanicsRecovered, n(`rk_panics_recovered_total`)},
		{"stats wal_sync_failures", st.SyncFailures, n(`rk_wal_sync_failures_total`)},
		{"stats snapshot_failures", st.SnapshotFailures, n(`rk_snapshot_failures_total`)},
		{"healthz observe_rollbacks_monitor", h.RollbacksMonitor, n(`rk_observe_rollbacks_total{cause="monitor"}`)},
		{"healthz observe_rollbacks_wal", h.RollbacksWAL, n(`rk_observe_rollbacks_total{cause="wal"}`)},
		{"healthz panics_recovered", h.PanicsRecovered, n(`rk_panics_recovered_total`)},
		{"healthz wal_sync_failures", h.SyncFailures, n(`rk_wal_sync_failures_total`)},
		{"healthz snapshot_failures", h.SnapshotFailures, n(`rk_snapshot_failures_total`)},
		{"healthz context_size", int64(h.ContextSize), n(`rk_context_rows`)},
	} {
		if c.got != c.want {
			t.Errorf("%s: %s = %d, /metrics says %d", name, c.field, c.got, c.want)
		}
	}
	if st.Jobs != nil {
		t.Errorf("%s: stats jobs = %+v, want none", name, st.Jobs)
	}
}

// TestShedAndCacheSeriesArePerServer: three servers in one process — a
// primary A taking one of each shed, refusal and cache outcome, a follower F
// taking one stale shed, and an idle B — each serve their own series on
// /metrics, and those agree with their /stats and /healthz. No server reads
// another's traffic, each carries its own context-row gauge, and only the
// follower carries the replica lag gauges.
func TestShedAndCacheSeriesArePerServer(t *testing.T) {
	schema := robustSchema(t)
	seed := robustSeed()

	// A's first solve blocks until released, so a second explain meets a
	// full in-flight bound.
	entered, release := make(chan struct{}), make(chan struct{})
	var solves atomic.Int32
	a, err := NewServer(Config{
		Schema: schema, Alpha: 1.0,
		Monitor:     &failingMonitor{allow: 2},
		MaxInFlight: 1,
		MinDeadline: 50 * time.Millisecond,
		Solve: func(ctx context.Context, c *core.Context, x feature.Instance, y feature.Label, alpha float64) (core.Key, bool, error) {
			if solves.Add(1) == 1 {
				close(entered)
				<-release
			}
			return core.SRKAnytime(ctx, c, x, y, alpha)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewServer(Config{Schema: schema, Alpha: 1.0, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewServer(Config{Schema: schema, Alpha: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Warm(seed[:3]); err != nil {
		t.Fatal(err)
	}
	tsA, tsF, tsB := httptest.NewServer(a.Handler()), httptest.NewServer(f.Handler()), httptest.NewServer(b.Handler())
	t.Cleanup(tsA.Close)
	t.Cleanup(tsF.Close)
	t.Cleanup(tsB.Close)
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock) // runs first: a failed step must not strand the blocked solve

	observe := func(li feature.Labeled, want int) {
		t.Helper()
		resp := postJSON(t, tsA.URL+"/observe", ObserveRequest{Values: valuesOf(schema, li.X), Prediction: schema.Labels[li.Y]})
		resp.Body.Close() //rkvet:ignore dropperr test teardown
		if resp.StatusCode != want {
			t.Fatalf("observe answered %d, want %d", resp.StatusCode, want)
		}
	}
	explain := func(ts *httptest.Server, req ExplainRequest, want int, wantSource string) {
		t.Helper()
		code, body, src := explainRaw(t, ts.URL, req)
		if code != want || src != wantSource {
			t.Fatalf("explain answered %d %q (%s), want %d %q", code, src, body, want, wantSource)
		}
	}
	req := func(li feature.Labeled) ExplainRequest {
		return ExplainRequest{Values: valuesOf(schema, li.X), Prediction: schema.Labels[li.Y]}
	}

	observe(seed[0], http.StatusOK)
	observe(seed[1], http.StatusOK)
	observe(seed[2], http.StatusInternalServerError) // the monitor refuses it

	missed := make(chan struct{})
	go func() {
		defer close(missed)
		code, _, src := explainRawErr(tsA.URL, req(seed[0]))
		if code != http.StatusOK || src != "miss" {
			t.Errorf("blocked explain answered %d %q, want 200 miss", code, src)
		}
	}()
	select {
	case <-entered:
	case <-missed:
		t.Fatal("the first explain returned before its solve started")
	}
	explain(tsA, req(seed[1]), http.StatusTooManyRequests, "")
	floor := req(seed[1])
	floor.DeadlineMS = 1
	explain(tsA, floor, http.StatusServiceUnavailable, "")
	unblock()
	<-missed
	explain(tsA, req(seed[0]), http.StatusOK, "hit")
	bypass := req(seed[0])
	bypass.NoCache = true
	explain(tsA, bypass, http.StatusOK, "bypass")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	explain(tsA, req(seed[0]), http.StatusServiceUnavailable, "")

	stale := req(seed[0])
	stale.MaxStalenessMS = 1000
	explain(tsF, stale, http.StatusServiceUnavailable, "") // never synced

	mA, mF, mB := scrape(t, tsA.URL), scrape(t, tsF.URL), scrape(t, tsB.URL)
	checkSeries(t, "A", mA, map[string]float64{
		`rk_shed_total{reason="overload"}`:                      1,
		`rk_shed_total{reason="deadline_floor"}`:                1,
		`rk_shed_total{reason="draining"}`:                      1,
		`rk_observe_rollbacks_total{cause="monitor"}`:           1,
		`rk_explain_cache_total{outcome="hit"}`:                 1,
		`rk_explain_cache_total{outcome="miss"}`:                1,
		`rk_explain_cache_total{outcome="bypass"}`:              1,
		`rk_http_requests_total{endpoint="observe",code="200"}`: 2,
		`rk_http_requests_total{endpoint="observe",code="500"}`: 1,
		`rk_http_requests_total{endpoint="explain",code="200"}`: 3,
		`rk_http_requests_total{endpoint="explain",code="429"}`: 1,
		`rk_http_requests_total{endpoint="explain",code="503"}`: 2,
	}, 2)
	checkSeries(t, "F", mF, map[string]float64{
		`rk_shed_total{reason="stale"}`:                         1,
		`rk_http_requests_total{endpoint="explain",code="503"}`: 1,
	}, 0)
	checkSeries(t, "B", mB, nil, 3)

	checkAgree(t, "A", tsA.URL, mA)
	checkAgree(t, "F", tsF.URL, mF)
	checkAgree(t, "B", tsB.URL, mB)
	for name, base := range map[string]string{"A": tsA.URL, "F": tsF.URL, "B": tsB.URL} {
		st, err := NewClient(base).Stats()
		if err != nil {
			t.Fatal(err)
		}
		if want := map[string]int64{"A": 1, "F": 1, "B": 0}[name]; st.ShedTotal != want {
			t.Errorf("%s: stats shed_total = %d, want %d", name, st.ShedTotal, want)
		}
	}

	for name, m := range map[string]map[string]float64{"A": mA, "F": mF, "B": mB} {
		for _, gauge := range []string{"rk_replica_lag_entries", "rk_replica_lag_seconds"} {
			if _, ok := m[gauge]; ok != (name == "F") {
				t.Errorf("%s: %s present = %v, want %v", name, gauge, ok, name == "F")
			}
		}
	}
	if mF["rk_replica_lag_entries"] != 0 || mF["rk_replica_lag_seconds"] != -1 {
		t.Errorf("F: lag entries %v seconds %v, want 0 and -1 before the first sync", mF["rk_replica_lag_entries"], mF["rk_replica_lag_seconds"])
	}
}
