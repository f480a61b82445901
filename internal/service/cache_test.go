package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/feature"
)

// explainRaw posts one /explain and returns the exact body bytes plus the
// X-RK-Cache source header — the unit of comparison for the differential
// suite, which asserts byte identity, not field equality.
func explainRaw(t *testing.T, url string, req ExplainRequest) (int, []byte, string) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/explain", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //rkvet:ignore dropperr test teardown
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get("X-RK-Cache")
}

// TestExplainCacheDifferential is the cache's correctness contract: for every
// solver configuration the service ships, the cached path must return bodies
// byte-identical to a cache-bypassed solve at the same context version — on a
// miss, on a hit, after a version bump, and under retention eviction. The
// cache may only ever change the X-RK-Cache header.
func TestExplainCacheDifferential(t *testing.T) {
	schema := robustSchema(t)
	configs := []struct {
		name string
		cfg  Config
	}{
		{"eager", Config{Schema: schema, Alpha: 1.0, Solve: SolveFunc(core.SRKAnytime), SolverTag: "eager"}},
		// The default engine; Parallelism is ignored, and the lazy_p* names
		// date from the retired lazy engine.
		{"lazy_p1", Config{Schema: schema, Alpha: 1.0, Parallelism: 1}},
		{"lazy_p2", Config{Schema: schema, Alpha: 1.0, Parallelism: 2}},
		{"lazy_p4", Config{Schema: schema, Alpha: 1.0, Parallelism: 4}},
		{"lazy_p2_retain4", Config{Schema: schema, Alpha: 1.0, Parallelism: 2, Retain: 4}},
	}
	requests := []ExplainRequest{
		{Values: map[string]string{"Income": "3-4K", "Credit": "poor", "Area": "Urban"}, Prediction: "Denied"},
		{Values: map[string]string{"Income": "5-6K", "Credit": "good", "Area": "Rural"}, Prediction: "Approved"},
		{Values: map[string]string{"Income": "3-4K", "Credit": "poor", "Area": "Urban"}, Prediction: "Denied", Alpha: 0.85},
		// An instance the context contradicts: the exact no-key verdict (409)
		// must cache and serve identically too.
		{Values: map[string]string{"Income": "3-4K", "Credit": "poor", "Area": "Urban"}, Prediction: "Approved"},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewServer(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Warm(robustSeed()); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)

			check := func(req ExplainRequest, wantFirst string) {
				t.Helper()
				bypass := req
				bypass.NoCache = true
				refCode, refBody, refSrc := explainRaw(t, ts.URL, bypass)
				if refSrc != "bypass" {
					t.Fatalf("no_cache source = %q", refSrc)
				}
				code, body, src := explainRaw(t, ts.URL, req)
				if src != wantFirst {
					t.Fatalf("first cached request source = %q, want %q", src, wantFirst)
				}
				if code != refCode || !bytes.Equal(body, refBody) {
					t.Fatalf("cached(%s) differs from bypass:\n%d %s\nvs\n%d %s", src, code, body, refCode, refBody)
				}
				code, body, src = explainRaw(t, ts.URL, req)
				if src != "hit" {
					t.Fatalf("repeat source = %q, want hit", src)
				}
				if code != refCode || !bytes.Equal(body, refBody) {
					t.Fatalf("hit differs from bypass:\n%d %s\nvs\n%d %s", code, body, refCode, refBody)
				}
			}
			for _, req := range requests {
				check(req, "miss")
			}
			// A version bump (new observation; under retain=4 it also evicts
			// the oldest row) must shift every key: the same requests re-solve
			// and re-agree with a fresh bypass at the new version.
			obs, err := json.Marshal(ObserveRequest{
				Values:     map[string]string{"Income": "1-2K", "Credit": "good", "Area": "Rural"},
				Prediction: "Approved",
			})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/observe", "application/json", bytes.NewReader(obs))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close() //rkvet:ignore dropperr test teardown
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("observe: %s", resp.Status)
			}
			for _, req := range requests {
				check(req, "miss")
			}
		})
	}
}

// TestCacheDegradedServeRule pins the degraded-entry contract end to end: a
// result degraded under budget B is served from cache only to requests whose
// budget is ≤ B; a longer-deadline (or unbounded) request re-solves, and a
// non-degraded result then upgrades the entry for everyone.
func TestCacheDegradedServeRule(t *testing.T) {
	schema := robustSchema(t)
	solve := func(ctx context.Context, c *core.Context, x feature.Instance, y feature.Label, alpha float64) (core.Key, bool, error) {
		if _, bounded := ctx.Deadline(); bounded {
			// Run until the deadline genuinely fires, then yield a valid but
			// larger key — the honest anytime-degradation shape. (An instant
			// degraded return would model a cut-short solve, which the cache
			// deliberately credits with only its elapsed time.)
			<-ctx.Done()
			return core.Key{0, 1}, true, nil
		}
		return core.Key{0}, false, nil
	}
	srv, err := NewServer(Config{Schema: schema, Alpha: 1.0, Solve: solve, SolverTag: "fake"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Warm(robustSeed()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	req := ExplainRequest{
		Values:     map[string]string{"Income": "3-4K", "Credit": "poor", "Area": "Urban"},
		Prediction: "Denied",
		DeadlineMS: 200,
	}
	decode := func(body []byte) ExplainResponse {
		var r ExplainResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Degraded solve under 200ms lands in the cache with that budget.
	_, body, src := explainRaw(t, ts.URL, req)
	if src != "miss" || !decode(body).Degraded {
		t.Fatalf("first request: source %q, body %s", src, body)
	}
	// A shorter budget is served the degraded entry.
	shorter := req
	shorter.DeadlineMS = 100
	_, body, src = explainRaw(t, ts.URL, shorter)
	if src != "hit" || !decode(body).Degraded {
		t.Fatalf("shorter budget: source %q, body %s", src, body)
	}
	// A longer budget must NOT be served it: it re-solves (still degraded
	// here, since the fake solver degrades any bounded request) and the entry
	// upgrades to the longer budget.
	longer := req
	longer.DeadlineMS = 500
	_, body, src = explainRaw(t, ts.URL, longer)
	if src != "miss" || !decode(body).Degraded {
		t.Fatalf("longer budget: source %q, body %s", src, body)
	}
	_, _, src = explainRaw(t, ts.URL, shorter)
	if src != "hit" {
		t.Fatalf("shorter budget after upgrade: source %q", src)
	}
	// An unbounded request re-solves non-degraded and upgrades the entry;
	// bounded requests now hit the non-degraded result.
	unbounded := req
	unbounded.DeadlineMS = 0
	_, body, src = explainRaw(t, ts.URL, unbounded)
	if src != "miss" || decode(body).Degraded {
		t.Fatalf("unbounded: source %q, body %s", src, body)
	}
	_, body, src = explainRaw(t, ts.URL, shorter)
	if src != "hit" || decode(body).Degraded {
		t.Fatalf("post-upgrade hit: source %q, body %s", src, body)
	}
}

// TestCacheDisconnectDegradedNotOverCredited pins the effective-budget stamp:
// a solve degraded because the client disconnected (request context canceled
// long before the deadline) ran under a tiny effective budget, and the cached
// entry must not be credited with the request's nominal deadline — a later
// request carrying the same deadline re-solves instead of inheriting the
// cut-short result.
func TestCacheDisconnectDegradedNotOverCredited(t *testing.T) {
	schema := robustSchema(t)
	solve := func(ctx context.Context, c *core.Context, x feature.Instance, y feature.Label, alpha float64) (core.Key, bool, error) {
		select {
		case <-ctx.Done():
			// Cut short: the anytime solver's cheap degraded exit.
			return core.Key{0, 1}, true, nil
		default:
			return core.Key{0}, false, nil
		}
	}
	srv, err := NewServer(Config{Schema: schema, Alpha: 1.0, Solve: solve, SolverTag: "fake"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Warm(robustSeed()); err != nil {
		t.Fatal(err)
	}
	li, err := srv.decode(map[string]string{"Income": "3-4K", "Credit": "poor", "Area": "Urban"}, "Denied")
	if err != nil {
		t.Fatal(err)
	}

	// The disconnect: a request with a generous 30s budget whose context is
	// already canceled when the solve starts.
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	budget := 30 * time.Second
	srv.mu.RLock()
	out, _ := srv.explainLocked(gone, li, 1.0, budget, false)
	srv.mu.RUnlock()
	if out.err != nil || !out.e.resp.Degraded {
		t.Fatalf("disconnected solve: err=%v degraded=%v, want a degraded result", out.err, out.e != nil && out.e.resp.Degraded)
	}

	// A live request with the SAME budget must not be served that entry: the
	// full 30s could produce the exact key.
	srv.mu.RLock()
	out, src := srv.explainLocked(context.Background(), li, 1.0, budget, false)
	srv.mu.RUnlock()
	if out.err != nil {
		t.Fatal(out.err)
	}
	if src == "hit" || out.e.resp.Degraded {
		t.Fatalf("full-budget request after a disconnect-degraded solve: source=%q degraded=%v, want a fresh exact solve", src, out.e.resp.Degraded)
	}
}

// TestCacheStatsCounters asserts the /stats cache block moves with traffic.
func TestCacheStatsCounters(t *testing.T) {
	srv, ts, client := testServer(t, 0)
	observeAll(t, client)
	req := ExplainRequest{
		Values:     map[string]string{"Income": "3-4K", "Credit": "poor", "Area": "Urban"},
		Prediction: "Denied",
	}
	explainRaw(t, ts.URL, req)
	explainRaw(t, ts.URL, req)
	bypass := req
	bypass.NoCache = true
	explainRaw(t, ts.URL, bypass)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //rkvet:ignore dropperr test teardown
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if !stats.CacheActive {
		t.Fatal("cache not active")
	}
	if stats.CacheHits != 1 || stats.CacheMisses != 1 || stats.CacheBypassed != 1 {
		t.Fatalf("stats = hits %d misses %d bypassed %d, want 1/1/1", stats.CacheHits, stats.CacheMisses, stats.CacheBypassed)
	}
	if stats.CacheEntries != 1 || stats.CacheBytes <= 0 {
		t.Fatalf("occupancy = %d entries / %d bytes", stats.CacheEntries, stats.CacheBytes)
	}
	_ = srv
}

// TestCacheOff asserts CacheOff disables the whole plane: every request is a
// bypass and /stats reports the cache inactive.
func TestCacheOff(t *testing.T) {
	schema := robustSchema(t)
	srv, err := NewServer(Config{Schema: schema, Alpha: 1.0, CacheOff: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Warm(robustSeed()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	req := ExplainRequest{
		Values:     map[string]string{"Income": "3-4K", "Credit": "poor", "Area": "Urban"},
		Prediction: "Denied",
	}
	for i := 0; i < 2; i++ {
		if _, _, src := explainRaw(t, ts.URL, req); src != "bypass" {
			t.Fatalf("request %d source = %q with the cache off", i, src)
		}
	}
}

// TestExplainCacheLRU exercises the bounds directly: the entry cap and the
// byte cap both evict from the cold end, and a get promotes.
func TestExplainCacheLRU(t *testing.T) {
	c := newExplainCache(2, 1<<20)
	entry := func(rule string) *cachedExplain {
		return &cachedExplain{resp: ExplainResponse{Rule: rule}}
	}
	c.put("a", entry("A"))
	c.put("b", entry("B"))
	if _, ok := c.get("a", 0); !ok { // promote a; b is now coldest
		t.Fatal("a missing")
	}
	c.put("c", entry("C"))
	if _, ok := c.get("b", 0); ok {
		t.Fatal("b survived past the entry cap")
	}
	if _, ok := c.get("a", 0); !ok {
		t.Fatal("promoted entry evicted")
	}
	entries, bytes := c.stats()
	if entries != 2 || bytes <= 0 {
		t.Fatalf("stats = %d entries / %d bytes", entries, bytes)
	}

	// Byte cap: entries are ~100+ bytes each, so a 150-byte budget holds one.
	tiny := newExplainCache(100, 150)
	tiny.put("a", entry("a long rendered rule body that dominates the budget"))
	tiny.put("b", entry("another long rendered rule body that dominates it too"))
	if _, ok := tiny.get("a", 0); ok {
		t.Fatal("byte cap did not evict")
	}
	if _, ok := tiny.get("b", 0); !ok {
		t.Fatal("newest entry evicted instead of oldest")
	}
}

// TestCacheDegradedEntryRules covers the put-side degraded lattice: degraded
// never overwrites non-degraded, and among degraded the longer budget wins.
func TestCacheDegradedEntryRules(t *testing.T) {
	c := newExplainCache(8, 1<<20)
	full := &cachedExplain{resp: ExplainResponse{Rule: "full"}}
	deg1 := &cachedExplain{resp: ExplainResponse{Rule: "deg1", Degraded: true}, degraded: true, budget: 100 * time.Millisecond}
	deg2 := &cachedExplain{resp: ExplainResponse{Rule: "deg2", Degraded: true}, degraded: true, budget: 200 * time.Millisecond}

	c.put("k", deg1)
	if e, ok := c.get("k", 50*time.Millisecond); !ok || e.resp.Rule != "deg1" {
		t.Fatalf("degraded entry not served to shorter budget: %v %v", e, ok)
	}
	if _, ok := c.get("k", 150*time.Millisecond); ok {
		t.Fatal("degraded entry served past its budget")
	}
	if _, ok := c.get("k", 0); ok {
		t.Fatal("degraded entry served to an unbounded request")
	}
	c.put("k", deg2) // longer budget wins
	if e, ok := c.get("k", 150*time.Millisecond); !ok || e.resp.Rule != "deg2" {
		t.Fatalf("longer-budget degraded did not win: %v %v", e, ok)
	}
	c.put("k", deg1) // shorter budget must not downgrade
	if e, ok := c.get("k", 150*time.Millisecond); !ok || e.resp.Rule != "deg2" {
		t.Fatalf("shorter-budget degraded downgraded the entry: %v %v", e, ok)
	}
	c.put("k", full)
	if e, ok := c.get("k", 0); !ok || e.resp.Rule != "full" {
		t.Fatalf("non-degraded upgrade missing: %v %v", e, ok)
	}
	c.put("k", deg2)
	if e, ok := c.get("k", 0); !ok || e.resp.Rule != "full" {
		t.Fatalf("degraded overwrote non-degraded: %v %v", e, ok)
	}
}
