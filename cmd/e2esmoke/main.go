// Command e2esmoke is the end-to-end gate (`make e2e-smoke`): it builds the
// real cceserver and ccebench binaries once and runs two scenarios against
// them, exercising the full wiring — solver stage timers, WAL instruments,
// request middleware, the server's own registry, trace propagation, the
// explanation cache and the job runner — not the packages in isolation.
//
//   - observability: a primary booted with tracing and a separate ops
//     listener takes observe/explain traffic through the retrying client;
//     /metrics, /healthz and /debug/traces must show the core series moved,
//     /metrics and /healthz must report the same failure counters, and each
//     scrape must serve every metric family once. A follower of that primary
//     must then catch up, answer a bounded read with its staleness contract,
//     and expose the replication series. Booted again on its state dir,
//     the -warm primary must recover the same /healthz context_size and
//     seq, warming nothing a second time.
//   - load: a ccebench pass (duplicate-heavy interactive traffic plus one
//     async batch) must produce cache hits, a completed job and a written
//     JSON artifact, and /metrics must report the same cache and job counts
//     as /stats.
//
// Every server's log, read once it has stopped, must hold JSON records only
// (ts in RFC 3339 UTC, a lower-case level, msg), and the primary's must hold
// its listening record.
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
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"time"

	"github.com/xai-db/relativekeys/internal/e2e"
	"github.com/xai-db/relativekeys/internal/service"
)

func main() {
	artifact := flag.String("artifact", "ccebench-smoke.json", "path for the ccebench JSON artifact")
	flag.Parse()
	if err := run(*artifact); err != nil {
		fmt.Fprintln(os.Stderr, "e2e-smoke:", err)
		os.Exit(1)
	}
	fmt.Println("e2e-smoke: PASS")
}

func run(artifact string) error {
	tmp, err := os.MkdirTemp("", "e2esmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp) //rkvet:ignore dropperr best-effort temp cleanup

	serverBin := filepath.Join(tmp, "cceserver")
	benchBin := filepath.Join(tmp, "ccebench")
	for _, b := range []struct{ bin, pkg string }{
		{serverBin, "./cmd/cceserver"},
		{benchBin, "./cmd/ccebench"},
	} {
		build := exec.Command("go", "build", "-o", b.bin, b.pkg)
		build.Stdout, build.Stderr = os.Stdout, os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("build %s: %w", b.pkg, err)
		}
	}

	if err := observability(tmp, serverBin); err != nil {
		return fmt.Errorf("observability: %w", err)
	}
	if err := load(tmp, serverBin, benchBin, artifact); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	return nil
}

// observability boots a traced primary with an ops listener, drives traffic
// through the retrying client, asserts the ops plane shows it, and then runs
// the follower checks against that primary.
func observability(tmp, bin string) error {
	opsAddr, err := e2e.FreeAddr()
	if err != nil {
		return err
	}
	stateDir := filepath.Join(tmp, "state")
	srv, err := e2e.Boot(bin, tmp, "server",
		"-metrics-addr", opsAddr,
		"-trace-sample", "1",
		"-state", stateDir,
		"-warm")
	if err != nil {
		return err
	}
	defer srv.Stop()
	base := srv.Base

	// Drive traffic through the retrying client: a row observed a few times,
	// then explained, so solver, WAL, monitor and middleware series all move.
	client := service.NewClient(base)
	values, prediction, err := e2e.FirstInstance(base)
	if err != nil {
		return err
	}
	for i := 0; i < 10; i++ {
		if err := client.Observe(values, prediction); err != nil {
			return fmt.Errorf("observe %d: %w", i, err)
		}
	}
	if _, err := client.Explain(values, prediction, 0); err != nil {
		return fmt.Errorf("explain: %w", err)
	}

	// Scrape the ops listener and assert the load is visible.
	metrics, err := e2e.Get("http://" + opsAddr + "/metrics")
	if err != nil {
		return err
	}
	if dup := e2e.RepeatedFamilies(metrics); dup != nil {
		return fmt.Errorf("primary /metrics serves families %v more than once", dup)
	}
	checks := []struct {
		series string
		min    float64
	}{
		{`rk_http_requests_total{endpoint="observe",code="200"}`, 10},
		{`rk_http_requests_total{endpoint="explain",code="200"}`, 1},
		{`rk_http_request_seconds_count{endpoint="explain"}`, 1},
		{`rk_solver_stage_seconds_count{stage="srk_greedy"}`, 1},
		{`rk_solver_stage_seconds_count{stage="osrk_observe"}`, 1},
		{`rk_wal_append_seconds_count`, 10},
		{`rk_wal_fsync_seconds_count`, 10},
		{`rk_wal_append_bytes_total`, 1},
		{`rk_context_rows`, 10},
		{`rk_monitor_observations_total`, 10},
	}
	for _, c := range checks {
		v, ok := e2e.SeriesValue(metrics, c.series)
		if !ok {
			return fmt.Errorf("/metrics missing series %s\n%s", c.series, metrics)
		}
		if v < c.min {
			return fmt.Errorf("series %s = %v, want >= %v", c.series, v, c.min)
		}
	}

	// /healthz must be ok with zero failure counters.
	healthBody, err := e2e.Get("http://" + opsAddr + "/healthz")
	if err != nil {
		return err
	}
	var health struct {
		Status           string `json:"status"`
		ContextSize      int    `json:"context_size"`
		RollbacksMonitor int64  `json:"observe_rollbacks_monitor"`
		RollbacksWAL     int64  `json:"observe_rollbacks_wal"`
		SyncFailures     int64  `json:"wal_sync_failures"`
		SnapshotFailures int64  `json:"snapshot_failures"`
		PanicsRecovered  int64  `json:"panics_recovered"`
	}
	if err := json.Unmarshal([]byte(healthBody), &health); err != nil {
		return fmt.Errorf("healthz decode: %w (%s)", err, healthBody)
	}
	if health.Status != "ok" || health.ContextSize < 10 {
		return fmt.Errorf("healthz = %s", healthBody)
	}
	if health.RollbacksMonitor != 0 || health.RollbacksWAL != 0 {
		return fmt.Errorf("unexpected rollbacks in %s", healthBody)
	}
	// /metrics and /healthz read one set of counters: an ops mux that stopped
	// serving the server's registry loses these series.
	for _, c := range []struct {
		series string
		health int64
	}{
		{`rk_observe_rollbacks_total{cause="monitor"}`, health.RollbacksMonitor},
		{`rk_observe_rollbacks_total{cause="wal"}`, health.RollbacksWAL},
		{`rk_wal_sync_failures_total`, health.SyncFailures},
		{`rk_snapshot_failures_total`, health.SnapshotFailures},
		{`rk_panics_recovered_total`, health.PanicsRecovered},
	} {
		if v, ok := e2e.SeriesValue(metrics, c.series); !ok || int64(v) != c.health {
			return fmt.Errorf("/metrics %s = %v (present %v), /healthz says %d", c.series, v, ok, c.health)
		}
	}

	// With 1-in-1 sampling every request leaves a trace; the explain trace
	// must carry a solver span.
	traces, err := e2e.Get("http://" + opsAddr + "/debug/traces")
	if err != nil {
		return err
	}
	var dump struct {
		Traces []struct {
			Name  string `json:"name"`
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(traces), &dump); err != nil {
		return fmt.Errorf("traces decode: %w", err)
	}
	found := false
	for _, tr := range dump.Traces {
		if tr.Name != "explain" {
			continue
		}
		for _, sp := range tr.Spans {
			if sp.Name == "srk.greedy" {
				found = true
			}
		}
	}
	if !found {
		return fmt.Errorf("no explain trace with an srk.greedy span:\n%s", traces)
	}

	if err := follower(tmp, bin, base, values, prediction); err != nil {
		return err
	}
	before, err := healthz(base)
	if err != nil {
		return err
	}
	// Stopped, the primary's log holds its drain records too. Every line
	// must be a JSON record, and the boot must have logged where it listens.
	srv.Stop()
	recs, err := srv.LogRecords()
	if err != nil {
		return fmt.Errorf("primary %w", err)
	}
	if !slices.ContainsFunc(recs, func(rec map[string]any) bool {
		return rec["msg"] == "listening" && rec["component"] == "cceserver"
	}) {
		return fmt.Errorf("primary log has no listening record from component cceserver:\n%s", srv.Log())
	}
	return rewarm(tmp, bin, stateDir, before)
}

// recovered is the part of /healthz a restart must preserve.
type recovered struct {
	ContextSize int    `json:"context_size"`
	Seq         uint64 `json:"seq"`
}

// healthz reads base's /healthz.
func healthz(base string) (recovered, error) {
	body, err := e2e.Get(base + "/healthz")
	if err != nil {
		return recovered{}, err
	}
	var h recovered
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		return recovered{}, fmt.Errorf("healthz decode: %w (%s)", err, body)
	}
	return h, nil
}

// rewarm boots the -warm primary a second time on its state dir: -warm
// fills an empty context only, so the restart recovers the stopped
// primary's rows and seq and appends no second inference log.
func rewarm(tmp, bin, stateDir string, want recovered) error {
	srv, err := e2e.Boot(bin, tmp, "server-restart", "-state", stateDir, "-warm")
	if err != nil {
		return err
	}
	defer srv.Stop()
	got, err := healthz(srv.Base)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("restarted -warm primary reads /healthz context_size %d seq %d, before the stop %d and %d",
			got.ContextSize, got.Seq, want.ContextSize, want.Seq)
	}
	return nil
}

// follower boots a follower against the already-running primary and asserts
// the replication plane is observable end to end: the rk_replica_* series
// exist on the follower's ops listener, /healthz reports the follower role
// with the primary's epoch and watermark, and a bounded /explain carries the
// staleness contract fields.
func follower(tmp, bin, primaryBase string, values map[string]string, prediction string) error {
	opsAddr, err := e2e.FreeAddr()
	if err != nil {
		return err
	}
	fol, err := e2e.Boot(bin, tmp, "follower",
		"-metrics-addr", opsAddr,
		"-state", filepath.Join(tmp, "fstate"),
		"-follow", primaryBase)
	if err != nil {
		return err
	}
	defer fol.Stop()
	base := fol.Base

	// Wait for catch-up: the primary holds 10 observations.
	var health struct {
		Status     string `json:"status"`
		Role       string `json:"role"`
		Epoch      string `json:"epoch"`
		AppliedSeq uint64 `json:"applied_seq"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		healthBody, gerr := e2e.Get("http://" + opsAddr + "/healthz")
		if gerr == nil {
			if jerr := json.Unmarshal([]byte(healthBody), &health); jerr != nil {
				return fmt.Errorf("follower healthz decode: %w (%s)", jerr, healthBody)
			}
			if health.AppliedSeq >= 10 {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower never caught up (healthz: %+v)\nfollower log:\n%s", health, fol.Log())
		}
		time.Sleep(100 * time.Millisecond)
	}
	if health.Role != "follower" || health.Status != "ok" {
		return fmt.Errorf("follower healthz role=%q status=%q, want follower/ok", health.Role, health.Status)
	}
	if health.Epoch == "" {
		return fmt.Errorf("follower healthz carries no primary epoch")
	}

	// A bounded read on a caught-up follower answers and discloses its
	// staleness; the fields are the contract, so their absence is a failure.
	client := service.NewClient(base)
	resp, err := client.ExplainStale(values, prediction, 0, 30*time.Second)
	if err != nil {
		return fmt.Errorf("follower bounded explain: %w", err)
	}
	if resp.ReplicaSeq == nil || *resp.ReplicaSeq < 10 {
		return fmt.Errorf("follower explain replica_seq = %v, want >= 10", resp.ReplicaSeq)
	}
	if resp.StalenessMS == nil || *resp.StalenessMS < 0 || *resp.StalenessMS > 30_000 {
		return fmt.Errorf("follower explain staleness_ms = %v, want within [0, 30000]", resp.StalenessMS)
	}

	// The replication series exist on the follower's ops listener: the lag
	// gauges are registered only in follower mode, and a caught-up idle
	// follower reports zero lag entries.
	metrics, err := e2e.Get("http://" + opsAddr + "/metrics")
	if err != nil {
		return err
	}
	if dup := e2e.RepeatedFamilies(metrics); dup != nil {
		return fmt.Errorf("follower /metrics serves families %v more than once", dup)
	}
	for _, series := range []string{
		"rk_replica_lag_entries",
		"rk_replica_lag_seconds",
		"rk_replica_reconnects_total",
		"rk_replica_snapshot_catchups_total",
	} {
		if _, ok := e2e.SeriesValue(metrics, series); !ok {
			return fmt.Errorf("follower /metrics missing series %s\n%s", series, metrics)
		}
	}
	if v, _ := e2e.SeriesValue(metrics, "rk_replica_lag_entries"); v != 0 { //rkvet:ignore floateq the gauge is an integer entry count; a caught-up follower must report exactly zero
		return fmt.Errorf("caught-up follower reports lag_entries = %v, want 0", v)
	}
	fol.Stop()
	if _, err := fol.LogRecords(); err != nil {
		return fmt.Errorf("follower %w", err)
	}
	return nil
}

// load boots a server with the explanation cache on and the drift monitor
// off, runs a ccebench pass against it, and asserts the cache and the job
// runner worked and that /metrics and /stats agree on their counts.
func load(tmp, serverBin, benchBin, artifact string) error {
	srv, err := e2e.Boot(serverBin, tmp, "serving",
		"-state", filepath.Join(tmp, "state-serving"),
		"-panel", "0")
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
		Requests  int64 `json:"requests"`
		Errors    int64 `json:"errors"`
		CacheHits int64 `json:"cache_hits"`
		JobItems  int64 `json:"job_items"`
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
	raw, err := e2e.Get(base + "/stats")
	if err != nil {
		return err
	}
	var st struct {
		Hits     int64 `json:"cache_hits"`
		Misses   int64 `json:"cache_misses"`
		Bypassed int64 `json:"cache_bypassed"`
		Jobs     struct {
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
		{`rk_explain_cache_total{outcome="bypass"}`, st.Bypassed},
		{`rk_jobs_total{event="completed"}`, st.Jobs.Completed},
		{`rk_job_items_total`, st.Jobs.ItemsDone},
	} {
		if v, ok := e2e.SeriesValue(metrics, c.series); !ok || int64(v) != c.stats {
			return fmt.Errorf("/metrics %s = %v (present %v), /stats says %d", c.series, v, ok, c.stats)
		}
	}
	srv.Stop()
	if _, err := srv.LogRecords(); err != nil {
		return fmt.Errorf("serving %w", err)
	}
	return nil
}
