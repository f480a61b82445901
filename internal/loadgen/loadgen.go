// Package loadgen drives a live cceserver with a reproducible mixed workload
// — interactive explains with a configurable duplication rate, optional
// follower fan-out across several targets, and an optional async ExplainAll
// batch riding alongside — and reports throughput, latency percentiles, and
// the server-side cache counters that explain them (DESIGN.md §15). It is the
// engine behind cmd/ccebench and the CI loadgen smoke.
//
// The workload is deterministic given Seed: the instance pool, the hot-set
// draws, and the per-worker request streams all derive from it, so two runs
// against the same server configuration are comparable.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes one load run.
type Config struct {
	// Targets are base URLs (e.g. http://127.0.0.1:8080). The first is the
	// primary: warming observations and the batch job go there. Interactive
	// explains fan out across all of them round-robin per worker — with
	// followers listed this measures the replicated read plane.
	Targets []string

	Duration    time.Duration // interactive phase length (default 5s)
	Concurrency int           // concurrent interactive workers (default 8)

	// DupRate is the fraction of interactive requests drawn from the HotSet
	// (repeated instances — the cache's case); the rest sweep the wider pool.
	DupRate float64
	HotSet  int // distinct hot instances (default 16)
	Pool    int // distinct instances overall (default 256)

	Seed       int64   // workload seed (default 1)
	Alpha      float64 // explain alpha; 0 = server default
	DeadlineMS int64   // per-request solve deadline; 0 = server default
	NoCache    bool    // send no_cache on every request (cache-bypass baseline)

	// Warm observes this many pool instances against Targets[0] before the
	// interactive phase, so the run explains against a fixed, nonempty
	// context version (default 0 = skip).
	Warm int

	// BatchItems > 0 additionally submits one async ExplainAll job of that
	// size to Targets[0] before the interactive phase and waits for it to
	// finish after, so batch and interactive traffic genuinely overlap.
	BatchItems int

	Client *http.Client // nil = a default client with sane timeouts
}

// Result is one run's aggregate outcome.
type Result struct {
	Name        string  `json:"name,omitempty"`
	Targets     int     `json:"targets"`
	Concurrency int     `json:"concurrency"`
	DupRate     float64 `json:"dup_rate"`

	Requests   int64   `json:"requests"`
	Errors     int64   `json:"errors"`
	Seconds    float64 `json:"seconds"`
	Throughput float64 `json:"req_per_sec"`

	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`

	// Sources counts the X-RK-Cache header values observed client-side.
	Sources map[string]int64 `json:"sources"`

	// Server-side /stats deltas summed across targets over the run.
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	CacheBypassed int64 `json:"cache_bypassed"`

	JobID    string `json:"job_id,omitempty"`
	JobItems int64  `json:"job_items,omitempty"`
}

// schemaDoc mirrors GET /schema.
type schemaDoc struct {
	Attributes []struct {
		Name   string   `json:"name"`
		Values []string `json:"values"`
	} `json:"attributes"`
	Labels []string `json:"labels"`
}

// statsDoc is the slice of GET /stats the generator reads.
type statsDoc struct {
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	CacheBypassed int64 `json:"cache_bypassed"`
}

// item is one pool member: the request bodies are pre-marshaled so the
// measured path is the server, not the generator's JSON encoder.
type item struct {
	values     map[string]string
	prediction string
	explain    []byte
	observe    []byte
}

// Run executes the configured workload and aggregates the outcome.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("loadgen: no targets")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.HotSet <= 0 {
		cfg.HotSet = 16
	}
	if cfg.Pool <= cfg.HotSet {
		cfg.Pool = cfg.HotSet + 240
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}

	schema, err := fetchSchema(ctx, client, cfg.Targets[0])
	if err != nil {
		return nil, err
	}
	pool := buildPool(schema, cfg)

	if cfg.Warm > 0 {
		if err := warm(ctx, client, cfg.Targets[0], pool, cfg.Warm); err != nil {
			return nil, err
		}
	}

	before, err := readStats(ctx, client, cfg.Targets)
	if err != nil {
		return nil, err
	}

	jobID := ""
	if cfg.BatchItems > 0 {
		jobID, err = submitJob(ctx, client, cfg.Targets[0], pool, cfg)
		if err != nil {
			return nil, err
		}
	}

	res := runInteractive(ctx, client, cfg, pool)

	if jobID != "" {
		items, err := awaitJob(ctx, client, cfg.Targets[0], jobID)
		if err != nil {
			return nil, err
		}
		res.JobID, res.JobItems = jobID, items
	}

	after, err := readStats(ctx, client, cfg.Targets)
	if err != nil {
		return nil, err
	}
	res.CacheHits = after.CacheHits - before.CacheHits
	res.CacheMisses = after.CacheMisses - before.CacheMisses
	res.CacheBypassed = after.CacheBypassed - before.CacheBypassed
	return res, nil
}

// runInteractive runs the worker fan-out and aggregates latencies.
func runInteractive(ctx context.Context, client *http.Client, cfg Config, pool []item) *Result {
	type workerOut struct {
		latencies []float64 // ms
		requests  int64
		errors    int64
		sources   map[string]int64
	}
	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	start := time.Now()
	outs := make([]workerOut, cfg.Concurrency)
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			out := &outs[w]
			out.sources = make(map[string]int64)
			for i := 0; !stop.Load(); i++ {
				it := pick(rng, cfg, pool)
				target := cfg.Targets[(w+i)%len(cfg.Targets)]
				t0 := time.Now()
				source, err := postExplain(runCtx, client, target, it.explain)
				lat := time.Since(t0)
				if runCtx.Err() != nil {
					return // the clock ran out mid-request; don't count the cut-off request
				}
				out.requests++
				if err != nil {
					out.errors++
					continue
				}
				out.latencies = append(out.latencies, float64(lat.Microseconds())/1000)
				out.sources[source]++
			}
		}(w)
	}
	<-runCtx.Done()
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	res := &Result{
		Targets:     len(cfg.Targets),
		Concurrency: cfg.Concurrency,
		DupRate:     cfg.DupRate,
		Seconds:     elapsed,
		Sources:     make(map[string]int64),
	}
	var all []float64
	for i := range outs {
		res.Requests += outs[i].requests
		res.Errors += outs[i].errors
		all = append(all, outs[i].latencies...)
		for k, v := range outs[i].sources {
			res.Sources[k] += v
		}
	}
	if elapsed > 0 {
		res.Throughput = float64(res.Requests) / elapsed
	}
	sort.Float64s(all)
	res.P50MS = percentile(all, 0.50)
	res.P90MS = percentile(all, 0.90)
	res.P99MS = percentile(all, 0.99)
	if n := len(all); n > 0 {
		res.MaxMS = all[n-1]
	}
	return res
}

// pick draws the next instance: hot set with probability DupRate, the cold
// pool otherwise.
func pick(rng *rand.Rand, cfg Config, pool []item) item {
	if rng.Float64() < cfg.DupRate {
		return pool[rng.Intn(cfg.HotSet)]
	}
	return pool[cfg.HotSet+rng.Intn(len(pool)-cfg.HotSet)]
}

// percentile reads the p-quantile from an ascending slice by nearest rank:
// the sample at 1-based rank ⌈p·n⌉, so p99 of 50 samples is the maximum. The
// product is nudged down before rounding up so float error (0.07·100 =
// 7.000000000000001) cannot push it to the next rank.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	return sorted[min(max(rank, 1), n)-1]
}

// buildPool derives the deterministic instance pool from the schema and seed.
func buildPool(schema schemaDoc, cfg Config) []item {
	rng := rand.New(rand.NewSource(cfg.Seed))
	pool := make([]item, cfg.Pool)
	for i := range pool {
		values := make(map[string]string, len(schema.Attributes))
		for _, a := range schema.Attributes {
			values[a.Name] = a.Values[rng.Intn(len(a.Values))]
		}
		prediction := schema.Labels[rng.Intn(len(schema.Labels))]
		explain := mustJSON(map[string]any{
			"values": values, "prediction": prediction,
			"alpha": cfg.Alpha, "deadline_ms": cfg.DeadlineMS, "no_cache": cfg.NoCache,
		})
		observe := mustJSON(map[string]any{"values": values, "prediction": prediction})
		pool[i] = item{values: values, prediction: prediction, explain: explain, observe: observe}
	}
	return pool
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings always marshal
	}
	return b
}

func fetchSchema(ctx context.Context, client *http.Client, base string) (schemaDoc, error) {
	var doc schemaDoc
	if err := getJSON(ctx, client, base+"/schema", &doc); err != nil {
		return doc, err
	}
	if len(doc.Attributes) == 0 || len(doc.Labels) == 0 {
		return doc, fmt.Errorf("loadgen: %s/schema returned an empty schema", base)
	}
	return doc, nil
}

// warm observes n pool instances round-robin so the interactive phase runs
// against a fixed, populated context version.
func warm(ctx context.Context, client *http.Client, base string, pool []item, n int) error {
	for i := 0; i < n; i++ {
		it := pool[i%len(pool)]
		resp, err := post(ctx, client, base+"/observe", it.observe)
		if err != nil {
			return fmt.Errorf("loadgen: warm observe %d: %w", i, err)
		}
		body, _ := io.ReadAll(resp.Body) //rkvet:ignore dropperr diagnostic body on a non-200; the status check below decides
		resp.Body.Close()                //rkvet:ignore dropperr read-side body close; nothing to recover
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("loadgen: warm observe %d: %s: %s", i, resp.Status, body)
		}
	}
	return nil
}

// postExplain sends one interactive request, returning the X-RK-Cache source.
// A 409 (no α-conformant key) is a valid answer, not an error.
func postExplain(ctx context.Context, client *http.Client, base string, body []byte) (string, error) {
	resp, err := post(ctx, client, base+"/explain", body)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close() //rkvet:ignore dropperr read-side body close; nothing to recover
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
		return "", fmt.Errorf("explain: %s", resp.Status)
	}
	return resp.Header.Get("X-RK-Cache"), nil
}

// submitJob posts one async batch built from the pool's prefix.
func submitJob(ctx context.Context, client *http.Client, base string, pool []item, cfg Config) (string, error) {
	items := make([]map[string]any, cfg.BatchItems)
	for i := range items {
		it := pool[i%len(pool)]
		items[i] = map[string]any{"values": it.values, "prediction": it.prediction}
	}
	body := mustJSON(map[string]any{"items": items, "alpha": cfg.Alpha, "deadline_ms": cfg.DeadlineMS})
	resp, err := post(ctx, client, base+"/jobs", body)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close() //rkvet:ignore dropperr read-side body close; nothing to recover
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("loadgen: job submit: %s: %s", resp.Status, raw)
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil {
		return "", err
	}
	return ack.ID, nil
}

// awaitJob polls until the job finishes, returning the item count.
func awaitJob(ctx context.Context, client *http.Client, base, id string) (int64, error) {
	for {
		var status struct {
			State string `json:"state"`
			Done  int64  `json:"done"`
			Error string `json:"error"`
		}
		if err := getJSON(ctx, client, base+"/jobs?id="+id, &status); err != nil {
			return 0, err
		}
		switch status.State {
		case "done":
			return status.Done, nil
		case "failed":
			return status.Done, fmt.Errorf("loadgen: job %s failed: %s", id, status.Error)
		}
		select {
		case <-ctx.Done():
			return status.Done, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// readStats sums the cache counters across targets.
func readStats(ctx context.Context, client *http.Client, targets []string) (statsDoc, error) {
	var sum statsDoc
	for _, t := range targets {
		var s statsDoc
		if err := getJSON(ctx, client, t+"/stats", &s); err != nil {
			return sum, err
		}
		sum.CacheHits += s.CacheHits
		sum.CacheMisses += s.CacheMisses
		sum.CacheBypassed += s.CacheBypassed
	}
	return sum, nil
}

func post(ctx context.Context, client *http.Client, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return client.Do(req)
}

func getJSON(ctx context.Context, client *http.Client, url string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //rkvet:ignore dropperr read-side body close; nothing to recover
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: GET %s: %s: %s", url, resp.Status, raw)
	}
	return json.Unmarshal(raw, into)
}
