// Command loadgensmoke is the end-to-end load-generator gate (`make
// loadgen-smoke`): it builds the real cceserver and ccebench binaries, boots
// the server with the explanation cache on, runs a short duplicate-heavy
// ccebench pass (interactive + one async batch), and asserts the cache
// actually worked — nonzero hit and coalesced counters in /stats and
// /metrics, a completed job, and a written JSON artifact — and that /metrics
// reports the same cache and job counts as /stats.
//
// The artifact path defaults to ccebench-smoke.json in the working directory
// (override with -artifact); CI uploads it so every green run carries its
// numbers.
//
// Exits 0 on success; prints the failed assertion and exits 1 otherwise.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"

	"github.com/xai-db/relativekeys/internal/e2e"
)

func main() {
	artifact := flag.String("artifact", "ccebench-smoke.json", "path for the ccebench JSON artifact")
	flag.Parse()
	if err := run(*artifact); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen-smoke:", err)
		os.Exit(1)
	}
	fmt.Println("loadgen-smoke: PASS")
}

func run(artifact string) error {
	tmp, err := os.MkdirTemp("", "loadgensmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp) //rkvet:ignore dropperr best-effort temp cleanup

	serverBin := filepath.Join(tmp, "cceserver")
	benchBin := filepath.Join(tmp, "ccebench")
	for bin, pkg := range map[string]string{serverBin: "./cmd/cceserver", benchBin: "./cmd/ccebench"} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		build.Stdout, build.Stderr = os.Stdout, os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("build %s: %w", pkg, err)
		}
	}

	srv, err := bootServer(serverBin, tmp, "serving")
	if err != nil {
		return err
	}
	defer srv.Stop()
	base := srv.Base

	// The ccebench pass: duplicate-heavy interactive traffic plus one small
	// async batch, merged into the JSON artifact.
	var out bytes.Buffer
	bench := exec.Command(benchBin,
		"-targets", base,
		"-duration", "3s",
		"-concurrency", "8",
		"-dup", "0.9",
		"-hot", "8",
		"-warm", "150",
		"-batch", "16",
		"-name", "serving/smoke",
		"-bench-json", artifact)
	bench.Stdout, bench.Stderr = &out, os.Stderr
	if err := bench.Run(); err != nil {
		return fmt.Errorf("ccebench: %w\nserver log:\n%s", err, srv.Log())
	}
	var res struct {
		Requests  int64            `json:"requests"`
		Errors    int64            `json:"errors"`
		Sources   map[string]int64 `json:"sources"`
		CacheHits int64            `json:"cache_hits"`
		JobItems  int64            `json:"job_items"`
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return fmt.Errorf("ccebench output decode: %w (%s)", err, out.String())
	}
	if res.Requests == 0 {
		return fmt.Errorf("ccebench drove no requests: %s", out.String())
	}
	if res.Errors != 0 {
		return fmt.Errorf("ccebench saw %d errors: %s", res.Errors, out.String())
	}
	if res.CacheHits == 0 {
		return fmt.Errorf("no cache hits under a 90%% duplicate workload: %s", out.String())
	}
	if res.JobItems != 16 {
		return fmt.Errorf("batch job completed %d items, want 16: %s", res.JobItems, out.String())
	}
	if _, err := os.Stat(artifact); err != nil {
		return fmt.Errorf("ccebench artifact missing: %w", err)
	}

	// The serving counters must be visible on the metrics plane, not just in
	// /stats, and both must read the same counters.
	metrics, err := e2e.Get(base + "/metrics")
	if err != nil {
		return err
	}
	for _, series := range []string{
		`rk_explain_cache_total{outcome="hit"}`,
		`rk_explain_cache_total{outcome="miss"}`,
		`rk_jobs_total{event="completed"}`,
		`rk_job_items_total`,
	} {
		v, ok := e2e.SeriesValue(metrics, series)
		if !ok {
			return fmt.Errorf("/metrics missing series %s", series)
		}
		if v < 1 {
			return fmt.Errorf("series %s = %v, want >= 1", series, v)
		}
	}
	if err := statsMatchMetrics(base, metrics); err != nil {
		return err
	}

	// Coalescing needs requests that overlap a solve in flight. Loan solves
	// finish in microseconds, so on a small box the leader is done before a
	// second goroutine is even scheduled and organic overlap never happens.
	// Boot a second instance with -solve-stall so every solve genuinely
	// blocks, then fire barrier bursts of one identical request at a fresh
	// context version: the first burst member leads, the rest coalesce.
	stalled, err := bootServer(serverBin, tmp, "stalled", "-solve-stall", "50ms")
	if err != nil {
		return err
	}
	defer stalled.Stop()
	if err := forceCoalesce(stalled.Base); err != nil {
		return fmt.Errorf("%w\nstalled-server log:\n%s", err, stalled.Log())
	}
	stallMetrics, err := e2e.Get(stalled.Base + "/metrics")
	if err != nil {
		return err
	}
	series := `rk_explain_cache_total{outcome="coalesced"}`
	if v, ok := e2e.SeriesValue(stallMetrics, series); !ok || v < 1 {
		return fmt.Errorf("stalled server /metrics series %s = %v (present=%v), want >= 1", series, v, ok)
	}
	return nil
}

// statsMatchMetrics checks that /stats reports the same cache and job counts
// as the exposition scraped from the same idle server.
func statsMatchMetrics(base, metrics string) error {
	raw, err := e2e.Get(base + "/stats")
	if err != nil {
		return err
	}
	var st struct {
		Hits      int64 `json:"cache_hits"`
		Misses    int64 `json:"cache_misses"`
		Coalesced int64 `json:"cache_coalesced"`
		Bypassed  int64 `json:"cache_bypassed"`
		Jobs      struct {
			Completed int64 `json:"completed"`
			ItemsDone int64 `json:"items_done"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(raw), &st); err != nil {
		return fmt.Errorf("stats decode: %w (%s)", err, raw)
	}
	for _, c := range []struct {
		series string
		stats  int64
	}{
		{`rk_explain_cache_total{outcome="hit"}`, st.Hits},
		{`rk_explain_cache_total{outcome="miss"}`, st.Misses},
		{`rk_explain_cache_total{outcome="coalesced"}`, st.Coalesced},
		{`rk_explain_cache_total{outcome="bypass"}`, st.Bypassed},
		{`rk_jobs_total{event="completed"}`, st.Jobs.Completed},
		{`rk_job_items_total`, st.Jobs.ItemsDone},
	} {
		if v, ok := e2e.SeriesValue(metrics, c.series); !ok || int64(v) != c.stats {
			return fmt.Errorf("/metrics %s = %v (present %v), /stats says %d", c.series, v, ok, c.stats)
		}
	}
	return nil
}

// bootServer starts one cceserver instance with its own state directory and
// log file under tmp, with the drift monitor off.
func bootServer(bin, tmp, name string, extra ...string) (*e2e.Server, error) {
	return e2e.Boot(bin, tmp, name, append([]string{
		"-state", filepath.Join(tmp, "state-"+name),
		"-panel", "0"}, extra...)...)
}

// forceCoalesce fires barrier bursts of identical explains at fresh context
// versions until the server's coalesced counter moves. Each round observes
// one row (new version, so the hot key is a guaranteed miss), then releases
// NB identical requests at once: the first to arrive leads the flight, and
// any that land during its solve coalesce.
func forceCoalesce(base string) error {
	values, prediction, err := e2e.FirstInstance(base)
	if err != nil {
		return err
	}
	body, err := json.Marshal(map[string]any{"values": values, "prediction": prediction})
	if err != nil {
		return err
	}

	coalesced := func() (int64, error) {
		var stats struct {
			Coalesced int64 `json:"cache_coalesced"`
		}
		raw, err := e2e.Get(base + "/stats")
		if err != nil {
			return 0, err
		}
		if err := json.Unmarshal([]byte(raw), &stats); err != nil {
			return 0, err
		}
		return stats.Coalesced, nil
	}

	start, err := coalesced()
	if err != nil {
		return err
	}
	const rounds, burst = 10, 16
	for r := 0; r < rounds; r++ {
		// A fresh observation shifts the context version: the burst's shared
		// key cannot already be cached.
		resp, err := http.Post(base+"/observe", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body) //rkvet:ignore dropperr drain before reuse; status checked next
		resp.Body.Close()              //rkvet:ignore dropperr read-side body close; nothing to recover
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("observe: %s", resp.Status)
		}
		release := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-release
				resp, err := http.Post(base+"/explain", "application/json", bytes.NewReader(body))
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body) //rkvet:ignore dropperr drain to reuse the connection; the counter is the assertion
				resp.Body.Close()              //rkvet:ignore dropperr read-side body close; nothing to recover
			}()
		}
		close(release)
		wg.Wait()
		now, err := coalesced()
		if err != nil {
			return err
		}
		if now > start {
			return nil
		}
	}
	return fmt.Errorf("no coalesced requests after %d barrier bursts of %d", rounds, burst)
}
