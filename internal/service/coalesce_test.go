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

// TestCoalesceStress is the singleflight contract under load: hundreds of
// concurrent identical requests produce exactly one solve. The solver blocks
// until every request has entered the handler, so no request can arrive after
// the flight completes and miss both the flight and the cache window.
func TestCoalesceStress(t *testing.T) {
	workers := 200
	if testing.Short() {
		workers = 60
	}
	schema := robustSchema(t)
	var (
		solves  atomic.Int64
		entered atomic.Int64
		release = make(chan struct{})
	)
	solve := func(ctx context.Context, c *core.Context, x feature.Instance, y feature.Label, alpha float64) (core.Key, bool, error) {
		solves.Add(1)
		<-release
		return core.SRKAnytime(ctx, c, x, y, alpha)
	}
	srv, err := NewServer(Config{Schema: schema, Alpha: 1.0, Solve: solve, SolverTag: "gated"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Warm(robustSeed()); err != nil {
		t.Fatal(err)
	}
	gate := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/explain" {
			entered.Add(1)
		}
		srv.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(gate)
	t.Cleanup(ts.Close)

	// Release the leader's solve only after every request is inside the
	// handler (or a generous timeout fires — the assertion still applies).
	go func() {
		deadline := time.After(10 * time.Second)
		for entered.Load() < int64(workers) {
			select {
			case <-deadline:
				close(release)
				return
			case <-time.After(time.Millisecond):
			}
		}
		close(release)
	}()

	body, err := json.Marshal(ExplainRequest{
		Values:     map[string]string{"Income": "3-4K", "Credit": "poor", "Area": "Urban"},
		Prediction: "Denied",
	})
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/explain", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close() //rkvet:ignore dropperr test teardown
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
				return
			}
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()
	if got := solves.Load(); got != 1 {
		t.Fatalf("%d identical concurrent requests ran %d solves, want 1", workers, got)
	}
	for i := 1; i < workers; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("response %d differs from response 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if hits, coalesced := srv.metrics.cacheHit.Value(), srv.metrics.cacheCoalesced.Value(); coalesced == 0 || 1+hits+coalesced != int64(workers) {
		t.Fatalf("accounting: 1 miss + %d hits + %d coalesced != %d requests", hits, coalesced, workers)
	}
}

// TestCoalesceWaiterDeadline pins the deadline contract: a coalesced waiter
// never extends the leader's solve, and a waiter whose own deadline fires
// first abandons the flight and completes degraded on its expired context
// instead of hanging until the leader finishes. The counters follow the
// X-RK-Cache header: the abandoning waiter solved for itself, so it is a
// miss, not a coalesced answer.
func TestCoalesceWaiterDeadline(t *testing.T) {
	schema := robustSchema(t)
	var calls atomic.Int64
	block := make(chan struct{})
	solve := func(ctx context.Context, c *core.Context, x feature.Instance, y feature.Label, alpha float64) (core.Key, bool, error) {
		if calls.Add(1) == 1 {
			<-block // the leader's slow solve
			return core.SRKAnytime(ctx, c, x, y, alpha)
		}
		// The waiter's fallback self-solve on its expired context.
		return core.Key{0}, true, nil
	}
	srv, err := NewServer(Config{Schema: schema, Alpha: 1.0, Solve: solve, SolverTag: "blocking"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Warm(robustSeed()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	// Cleanups run last-in first-out, so a failed check still releases the
	// leader before ts.Close waits for its request.
	release := sync.OnceFunc(func() { close(block) })
	t.Cleanup(release)

	req := ExplainRequest{
		Values:     map[string]string{"Income": "3-4K", "Credit": "poor", "Area": "Urban"},
		Prediction: "Denied",
	}
	leaderDone := make(chan []byte, 1)
	go func() {
		_, body, _ := explainRawErr(ts.URL, req)
		leaderDone <- body
	}()
	// Wait for the leader to be inside its solve before sending the waiter.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	waiter := req
	waiter.DeadlineMS = 50
	start := time.Now()
	code, body, src := explainRawErr(ts.URL, waiter)
	waited := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("waiter status %d", code)
	}
	if waited > 5*time.Second {
		t.Fatalf("waiter took %v — it waited for the leader instead of abandoning at its deadline", waited)
	}
	var wresp ExplainResponse
	if err := json.Unmarshal(body, &wresp); err != nil {
		t.Fatal(err)
	}
	if !wresp.Degraded || src != "miss" {
		t.Fatalf("abandoning waiter: degraded=%v source=%q, want degraded fallback solve", wresp.Degraded, src)
	}
	if misses, coalesced := srv.metrics.cacheMiss.Value(), srv.metrics.cacheCoalesced.Value(); misses != 1 || coalesced != 0 {
		t.Fatalf("after the fallback: misses %d coalesced %d, want 1 and 0", misses, coalesced)
	}
	select {
	case <-leaderDone:
		t.Fatal("leader finished before its solve was released")
	default:
	}
	release()
	select {
	case lbody := <-leaderDone:
		var lresp ExplainResponse
		if err := json.Unmarshal(lbody, &lresp); err != nil {
			t.Fatal(err)
		}
		if lresp.Degraded {
			t.Fatalf("unbounded leader degraded — the waiter's deadline leaked into the leader's solve: %s", lbody)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("leader never finished")
	}
	if misses := srv.metrics.cacheMiss.Value(); misses != 2 {
		t.Fatalf("after the leader: misses %d, want 2", misses)
	}
}

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

// errInjectedSolve is the solver error TestChaosCoalesce injects: an error
// that is neither ErrNoKey nor a context error, so the server must answer 500
// and must not cache it.
var errInjectedSolve = errors.New("faultinject: solver error")

// TestChaosCoalesce floods the cache + flight plane with duplicate-heavy
// concurrent traffic while the solver panics, errors, and stalls on an
// injected schedule. The contract: every request completes with a documented
// status, no waiter is stranded, and the cache is never poisoned — once the
// faults stop, every instance explains identically to a cache-bypassed solve.
func TestChaosCoalesce(t *testing.T) {
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
		SolverTag:       "chaotic",
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
					req.DeadlineMS = 5 // mixed budgets race the degraded serve rule
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
		t.Fatal("chaos load wedged — a waiter was stranded")
	}

	// Faults off: the cache must now serve only correct, byte-identical
	// explanations. Bump the context version first — chaos-era entries
	// (including legitimately degraded ones) are then unreachable, so any
	// disagreement below means an injected error or panic leaked into the
	// cache, not that a valid degraded entry answered within its budget.
	faultsOn.Store(false)
	obs, err := json.Marshal(ObserveRequest{
		Values:     map[string]string{"Income": "1-2K", "Credit": "good", "Area": "Rural"},
		Prediction: "Approved",
	})
	if err != nil {
		t.Fatal(err)
	}
	oresp, err := http.Post(ts.URL+"/observe", "application/json", bytes.NewReader(obs))
	if err != nil {
		t.Fatal(err)
	}
	oresp.Body.Close() //rkvet:ignore dropperr test teardown
	if oresp.StatusCode != http.StatusOK {
		t.Fatalf("post-chaos observe: %s", oresp.Status)
	}
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
