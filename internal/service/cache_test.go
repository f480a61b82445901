package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/faultinject"
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

// explainRawErr is explainRaw for goroutines other than the test's: a
// transport failure returns status 0 instead of failing the test.
func explainRawErr(url string, req ExplainRequest) (int, []byte, string) {
	b, err := json.Marshal(req)
	if err != nil {
		return 0, nil, ""
	}
	resp, err := http.Post(url+"/explain", "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, ""
	}
	defer resp.Body.Close()          //rkvet:ignore dropperr test teardown
	body, _ := io.ReadAll(resp.Body) //rkvet:ignore dropperr best-effort read; callers assert on status
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
		{"eager", Config{Schema: schema, Alpha: 1.0, Solve: SolveFunc(core.SRKAnytime)}},
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

// TestCacheDegradedServeRule pins the exact-only rule end to end: a result
// degraded by its deadline goes back to the request that paid for it and is
// never stored, so the same request misses again; an unbounded request then
// stores the exact key, which every later bounded request hits.
func TestCacheDegradedServeRule(t *testing.T) {
	schema := robustSchema(t)
	solve := func(ctx context.Context, c *core.Context, x feature.Instance, y feature.Label, alpha float64) (core.Key, bool, error) {
		if _, bounded := ctx.Deadline(); bounded {
			// Run until the deadline genuinely fires, then yield a valid but
			// larger key — the honest anytime-degradation shape.
			<-ctx.Done()
			return core.Key{0, 1}, true, nil
		}
		return core.Key{0}, false, nil
	}
	srv, err := NewServer(Config{Schema: schema, Alpha: 1.0, Solve: solve})
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
		DeadlineMS: 50,
	}
	decode := func(body []byte) ExplainResponse {
		var r ExplainResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	entries := func() int {
		n, _ := srv.cache.stats()
		return n
	}

	// The degraded answer is served to its request but not stored: the same
	// request misses again and the cache stays empty.
	for i := 0; i < 2; i++ {
		_, body, src := explainRaw(t, ts.URL, req)
		if src != "miss" || !decode(body).Degraded {
			t.Fatalf("bounded request %d: source %q, body %s", i, src, body)
		}
		if n := entries(); n != 0 {
			t.Fatalf("bounded request %d: cache holds %d entries, want 0", i, n)
		}
	}
	// An unbounded request solves the exact key and stores it.
	unbounded := req
	unbounded.DeadlineMS = 0
	_, body, src := explainRaw(t, ts.URL, unbounded)
	if src != "miss" || decode(body).Degraded {
		t.Fatalf("unbounded: source %q, body %s", src, body)
	}
	if n := entries(); n != 1 {
		t.Fatalf("after the exact solve: cache holds %d entries, want 1", n)
	}
	// Bounded requests, whatever their budget, now hit the exact key.
	for _, ms := range []int64{50, 1, 500} {
		bounded := req
		bounded.DeadlineMS = ms
		_, body, src = explainRaw(t, ts.URL, bounded)
		if src != "hit" || decode(body).Degraded {
			t.Fatalf("deadline_ms %d after the exact solve: source %q, body %s", ms, src, body)
		}
	}
}

// TestCacheDisconnectDegradedNotOverCredited pins the disconnect case: a
// solve degraded because the client disconnected (request context canceled
// long before the deadline) is not stored, so a later live request with the
// same deadline re-solves instead of inheriting the cut-short result.
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
	srv, err := NewServer(Config{Schema: schema, Alpha: 1.0, Solve: solve})
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

	// The disconnect: a request with a generous 30s deadline whose context is
	// already canceled when the solve starts.
	gone, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	cancel()
	srv.mu.RLock()
	e, _, err := srv.explainLocked(gone, li, 1.0, false)
	srv.mu.RUnlock()
	if err != nil || !e.resp.Degraded {
		t.Fatalf("disconnected solve: err=%v degraded=%v, want a degraded result", err, e != nil && e.resp.Degraded)
	}

	// A live request with the same deadline must not be served that result:
	// the full 30s can produce the exact key.
	live, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv.mu.RLock()
	e, src, err := srv.explainLocked(live, li, 1.0, false)
	srv.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if src == "hit" || e.resp.Degraded {
		t.Fatalf("full-deadline request after a disconnect-degraded solve: source=%q degraded=%v, want a fresh exact solve", src, e.resp.Degraded)
	}
}

// TestCacheConcurrentIdenticalMisses is the miss path under a herd: N
// identical explains released together at a fresh context version each get
// the body a no_cache request gets, every request counts as exactly one hit
// or one miss, each miss ran exactly one solve, and the misses' puts of one
// key leave one entry. The solver holds every solve until all N requests are
// inside the handler, so the requests that miss do so together and race
// their puts.
func TestCacheConcurrentIdenticalMisses(t *testing.T) {
	workers := 200
	if testing.Short() {
		workers = 60
	}
	schema := robustSchema(t)
	var solves, entered atomic.Int64
	admit := make(chan struct{})
	release := sync.OnceFunc(func() { close(admit) })
	// A generous fallback, so a lost request fails the counts instead of
	// hanging the solves.
	defer time.AfterFunc(10*time.Second, release).Stop()
	solve := func(ctx context.Context, c *core.Context, x feature.Instance, y feature.Label, alpha float64) (core.Key, bool, error) {
		solves.Add(1)
		<-admit
		return core.SRKAnytime(ctx, c, x, y, alpha)
	}
	srv, err := NewServer(Config{Schema: schema, Alpha: 1.0, Solve: solve})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Warm(robustSeed()); err != nil {
		t.Fatal(err)
	}
	gate := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if entered.Add(1) >= int64(workers) {
			release()
		}
		srv.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(gate)
	t.Cleanup(ts.Close)
	// Cleanups run last-in first-out: a failed check releases the solves
	// before ts.Close waits for their requests.
	t.Cleanup(release)

	req := ExplainRequest{
		Values:     map[string]string{"Income": "3-4K", "Credit": "poor", "Area": "Urban"},
		Prediction: "Denied",
	}
	start := make(chan struct{})
	bodies := make([][]byte, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			code, body, _ := explainRawErr(ts.URL, req)
			if code != http.StatusOK {
				t.Errorf("request %d: status %d", i, code)
			}
			bodies[i] = body
		}(i)
	}
	close(start)
	wg.Wait()

	hits, misses := srv.metrics.cacheHit.Value(), srv.metrics.cacheMiss.Value()
	if hits+misses != int64(workers) || misses != solves.Load() {
		t.Fatalf("%d requests: %d hits + %d misses, %d solves; want hits+misses = requests and one solve per miss", workers, hits, misses, solves.Load())
	}
	t.Logf("%d requests: %d misses, %d hits", workers, misses, hits)
	bypass := req
	bypass.NoCache = true
	code, ref, _ := explainRaw(t, ts.URL, bypass)
	if code != http.StatusOK {
		t.Fatalf("no_cache reference: status %d", code)
	}
	for i, b := range bodies {
		if !bytes.Equal(b, ref) {
			t.Fatalf("response %d differs from the no_cache body:\n%s\nvs\n%s", i, b, ref)
		}
	}
	if entries, _ := srv.cache.stats(); entries != 1 {
		t.Fatalf("cache holds %d entries after one key's misses, want 1", entries)
	}
}

// errInjectedSolve is the solver error TestChaosCache injects: an error that
// is neither ErrNoKey nor a context error, so the server must answer 500 and
// must not cache it.
var errInjectedSolve = errors.New("faultinject: solver error")

// TestChaosCache floods the cache plane with duplicate-heavy concurrent
// traffic while the solver panics, errors, and stalls on an injected
// schedule. The contract: every request completes with a documented status,
// nothing wedges, and the cache is never poisoned — once the faults stop,
// every instance explains identically to a cache-bypassed solve.
func TestChaosCache(t *testing.T) {
	schema := robustSchema(t)
	inj := faultinject.New(42)
	var faultsOn atomic.Bool
	faultsOn.Store(true)
	solve := func(ctx context.Context, c *core.Context, x feature.Instance, y feature.Label, alpha float64) (core.Key, bool, error) {
		if faultsOn.Load() {
			if inj.Roll(0.15) {
				panic("faultinject: solver panic")
			}
			if inj.Roll(0.15) {
				return nil, false, errInjectedSolve
			}
			if inj.Roll(0.3) {
				t := time.NewTimer(5 * time.Millisecond)
				select {
				case <-ctx.Done():
					t.Stop()
				case <-t.C:
				}
			}
		}
		return core.SRKAnytimePar(ctx, c, x, y, alpha, 2)
	}
	srv, err := NewServer(Config{
		Schema:          schema,
		Alpha:           1.0,
		Solve:           solve,
		DefaultDeadline: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Warm(robustSeed()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	rows := []ExplainRequest{
		{Values: map[string]string{"Income": "3-4K", "Credit": "poor", "Area": "Urban"}, Prediction: "Denied"},
		{Values: map[string]string{"Income": "5-6K", "Credit": "good", "Area": "Rural"}, Prediction: "Approved"},
		{Values: map[string]string{"Income": "1-2K", "Credit": "poor", "Area": "Urban"}, Prediction: "Denied"},
	}
	workers, iters := 16, 40
	if testing.Short() {
		workers, iters = 8, 15
	}
	allowed := map[int]bool{200: true, 409: true, 500: true, 503: true}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				req := rows[(w+i)%len(rows)]
				if i%5 == 0 {
					req.DeadlineMS = 5 // mixed budgets: degraded answers race exact ones
				}
				code, _, _ := explainRawErr(ts.URL, req)
				if code == 0 {
					t.Errorf("worker %d: transport error", w)
					return
				}
				if !allowed[code] {
					t.Errorf("worker %d: status %d outside the contract", w, code)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("chaos load wedged")
	}

	// Faults off: the cache must now serve only correct, byte-identical
	// explanations, chaos-era entries included. Only exact outcomes are
	// stored, so any disagreement below means an injected error, a panic or
	// a degraded key leaked into the cache.
	faultsOn.Store(false)
	for _, req := range rows {
		bypass := req
		bypass.NoCache = true
		refCode, refBody, _ := explainRawErr(ts.URL, bypass)
		if refCode != http.StatusOK && refCode != http.StatusConflict {
			t.Fatalf("post-chaos bypass status %d", refCode)
		}
		for i := 0; i < 3; i++ {
			code, body, src := explainRawErr(ts.URL, req)
			if code != refCode || !bytes.Equal(body, refBody) {
				t.Fatalf("post-chaos %s (%d) differs from bypass (%d):\n%s\nvs\n%s", src, code, refCode, body, refBody)
			}
		}
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

// TestCacheKeyInjective asserts that one tuple always builds the same key and
// that distinct tuples build distinct keys — the property that makes the
// cache safe: a collision would serve one instance's explanation as
// another's. The fixtures include alphas one ulp apart, an instance that is
// a prefix of another, and an empty instance.
func TestCacheKeyInjective(t *testing.T) {
	type tuple struct {
		version uint64
		alpha   float64
		y       feature.Label
		x       feature.Instance
	}
	fixtures := []tuple{
		{},
		{1, 1.0, 0, feature.Instance{0, 0, 0}},
		{1, 1.0, 1, feature.Instance{0, 0, 0}},
		{2, 1.0, 0, feature.Instance{0, 0, 0}},
		{1, 0.9, 0, feature.Instance{0, 0, 0}},
		// One ulp below 0.9: the bound the solver distinguishes, the key must too.
		{1, 0.8999999999999999, 0, feature.Instance{0, 0, 0}},
		{1, 1.0, 0, feature.Instance{0, 0, 1}},
		{1, 1.0, 0, feature.Instance{0, 0}},
		{1, 1.0, 0, nil},
		{1 << 40, -1, 1<<31 - 1, feature.Instance{1<<31 - 1, 0}},
		{7, 0, -1, feature.Instance{3}},
	}
	seen := make(map[cacheKey]int)
	for i, f := range fixtures {
		k := cacheKeyOf(f.version, f.alpha, feature.Labeled{X: f.x, Y: f.y})
		if again := cacheKeyOf(f.version, f.alpha, feature.Labeled{X: f.x.Clone(), Y: f.y}); again != k {
			t.Fatalf("fixture %d: rebuilding the key gave %+v, want %+v", i, again, k)
		}
		if j, dup := seen[k]; dup {
			t.Fatalf("fixtures %d and %d collide: %+v", j, i, k)
		}
		seen[k] = i
	}
}

// TestExplainCacheLRU exercises the bounds directly: the entry cap and the
// byte cap both evict from the cold end, and a get promotes.
func TestExplainCacheLRU(t *testing.T) {
	c := newExplainCache(2, 1<<20)
	entry := func(rule string) *cachedExplain {
		return &cachedExplain{resp: ExplainResponse{Rule: rule}}
	}
	a, b := cacheKey{x: "a"}, cacheKey{x: "b"}
	c.put(a, entry("A"))
	c.put(b, entry("B"))
	if _, ok := c.get(a); !ok { // promote a; b is now coldest
		t.Fatal("a missing")
	}
	c.put(cacheKey{x: "c"}, entry("C"))
	if _, ok := c.get(b); ok {
		t.Fatal("b survived past the entry cap")
	}
	if _, ok := c.get(a); !ok {
		t.Fatal("promoted entry evicted")
	}
	entries, bytes := c.stats()
	if entries != 2 || bytes <= 0 {
		t.Fatalf("stats = %d entries / %d bytes", entries, bytes)
	}

	// Byte cap: entries are ~100+ bytes each, so a 150-byte budget holds one.
	tiny := newExplainCache(100, 150)
	tiny.put(a, entry("a long rendered rule body that dominates the budget"))
	tiny.put(b, entry("another long rendered rule body that dominates it too"))
	if _, ok := tiny.get(a); ok {
		t.Fatal("byte cap did not evict")
	}
	if _, ok := tiny.get(b); !ok {
		t.Fatal("newest entry evicted instead of oldest")
	}
}

// TestCacheDegradedEntryRules covers the store side of the exact-only rule
// in explainLocked: neither a deadline-degraded nor a disconnect-degraded
// outcome is stored, and once an exact entry exists it keeps serving those
// same requests.
func TestCacheDegradedEntryRules(t *testing.T) {
	solve := func(ctx context.Context, c *core.Context, x feature.Instance, y feature.Label, alpha float64) (core.Key, bool, error) {
		if ctx.Err() != nil {
			return core.Key{0, 1}, true, nil
		}
		return core.Key{0}, false, nil
	}
	srv, err := NewServer(Config{Schema: robustSchema(t), Alpha: 1.0, Solve: solve})
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
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	explain := func(ctx context.Context) (*cachedExplain, string) {
		t.Helper()
		srv.mu.RLock()
		defer srv.mu.RUnlock()
		e, src, err := srv.explainLocked(ctx, li, 1.0, false)
		if err != nil {
			t.Fatal(err)
		}
		return e, src
	}
	degraded := []struct {
		name string
		ctx  context.Context
	}{{"deadline-degraded", expired}, {"disconnect-degraded", gone}}

	for _, tc := range degraded {
		if e, src := explain(tc.ctx); src != "miss" || !e.resp.Degraded {
			t.Fatalf("%s solve: source %q degraded %v, want a degraded miss", tc.name, src, e.resp.Degraded)
		}
		if n, _ := srv.cache.stats(); n != 0 {
			t.Fatalf("%s outcome stored: cache holds %d entries", tc.name, n)
		}
	}
	if e, src := explain(context.Background()); src != "miss" || e.resp.Degraded {
		t.Fatalf("exact solve: source %q degraded %v, want an exact miss", src, e.resp.Degraded)
	}
	for _, tc := range degraded {
		if e, src := explain(tc.ctx); src != "hit" || e.resp.Degraded {
			t.Fatalf("%s request after the exact solve: source %q degraded %v, want an exact hit", tc.name, src, e.resp.Degraded)
		}
	}
	if n, _ := srv.cache.stats(); n != 1 {
		t.Fatalf("cache holds %d entries, want the one exact entry", n)
	}
}
