// Command perfbench is the repository's benchmark. It boots the real
// cceserver on a seeded 300k-row adult context, drives one named workload
// over HTTP with at most two connections, checks the answers it timed against
// an eager-SRK oracle, and prints one JSON result line: the end-to-end
// metrics or, with --trace 1, the per-layer metrics of a traced in-process
// replay with timing shims at each layer's public seams.
//
// Build and run it through run.sh from the checkout root:
//
//	bash _perfbench/run.sh --workload explain_cold_300k --seed 1 --seconds 10 --trace 0
//
// The workloads are explain_cold_300k, explain_hot_300k and
// observe_mixed_300k; BENCHMARK.json says why each exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/persist"
)

// setupBoots is how many times an end-to-end run boots the server: setup_s
// is their median, and the last boot serves the workload.
const setupBoots = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the run's last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	window   time.Duration
	server   string // the cceserver binary
	root     string // kept across runs; span files land under it
	work     string // this run's own directory under root, removed at exit
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed every input derives from")
		seconds  = flag.Int("seconds", 10, "length of the timed window")
		trace    = flag.Int("trace", 0, "0 = end-to-end metrics over HTTP; 1 = per-layer metrics from the traced run")
		server   = flag.String("server", "", "cceserver binary to benchmark")
		work     = flag.String("work", ".bench_build", "directory for per-run state and span files")
	)
	flag.Parse()

	// An interrupted run still stops every server it started.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(2)
	}()

	o := options{workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second, server: *server, root: *work}
	res, err := run(o, *trace == 1)
	killAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options, trace bool) (*result, error) {
	if o.server == "" {
		return nil, errors.New("-server is required")
	}
	if o.window <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	hotN, distinctN, observeN, err := streamSizes(o.workload, o.window)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.root, 0o755); err != nil {
		return nil, err
	}
	if o.work, err = os.MkdirTemp(o.root, "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.work) // scratch state; a leftover is harmless

	in, err := generate(o.seed, hotN, distinctN, observeN)
	if err != nil {
		return nil, err
	}
	snap := filepath.Join(o.work, "context.snap")
	if err := persist.SaveSnapshot(snap, in.schema, in.rows, contextRows); err != nil {
		return nil, err
	}
	oracle, err := core.NewContext(in.schema, in.rows)
	if err != nil {
		return nil, err
	}
	chk := newChecker(o.seed, in.schema, oracle, in.hot)
	var m metrics
	if trace {
		m, err = tracedRun(o, in, chk, snap)
	} else {
		m, err = endToEndRun(o, in, chk, snap)
	}
	if err != nil {
		return nil, err
	}
	for _, n := range chk.notes {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", n)
	}
	return &result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: m}, nil
}

// onePGenerator gives the HTTP generator one P and returns a func that
// restores the previous setting. With two, its idle Ps spun against the
// server's on a 2-vCPU VM, and the server spent a third more CPU per hot
// request (0.146 vs 0.110 ms). In-process passes run at the default, as the
// server they host would.
func onePGenerator() (restore func()) {
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

// endToEndRun boots the server setupBoots times, drives the workload over
// HTTP on the last boot and reports the end-to-end metrics.
func endToEndRun(o options, in *inputs, chk *checker, snap string) (metrics, error) {
	defer onePGenerator()()
	var setups []float64
	var srv *serverProc
	for i := 0; i < setupBoots; i++ {
		dir, err := freshState(o.work, snap, fmt.Sprintf("boot%d", i))
		if err != nil {
			return nil, err
		}
		p, took, err := bootServer(o.server, dir, contextRows)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < setupBoots-1 {
			p.kill()
			continue
		}
		srv = p
	}
	defer srv.stop()
	ht := newHTTPTransport(srv.base)
	defer ht.close()
	p, err := newPass(ht, o, in, chk)
	if err != nil {
		return nil, err
	}
	out, err := p.run()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	srv.stop()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d timed explains, %d observes; setup %.3v s; host steal per slice %v ticks\n",
		o.workload, o.seed, len(out.explains), len(out.observes), setups, out.steal)
	f := sliceFigures(out.explains, out.start, o.window, out.steal)
	m := metrics{}
	m.set("explain_p50_ms", "ms", f.p50)
	m.set("explain_rps", "req/s", f.rate)
	m.set("setup_s", "s", quantile(setups, 0.50))
	m.set("server_peak_rss_mb", "MiB", rss)
	return m, nil
}

// newPass prepares a pass over t, rendering request bodies with the value
// strings of the server's GET /schema.
func newPass(t transport, o options, in *inputs, chk *checker) (*pass, error) {
	schema, err := fetchSchema(t)
	if err != nil {
		return nil, err
	}
	if err := sameSchema(schema, in.schema); err != nil {
		return nil, err
	}
	r := renderer{schema: schema}
	return &pass{
		t: t, wl: o.workload, seed: o.seed, window: o.window, r: r, chk: chk,
		hot: r.reqs(in.hot), distinct: r.reqs(in.distinct), observes: r.reqs(in.observes),
	}, nil
}

// fetchSchema reads the server's GET /schema.
func fetchSchema(t transport) (*feature.Schema, error) {
	rep := t.do(http.MethodGet, "/schema", nil)
	if rep.err != nil || rep.status != http.StatusOK {
		return nil, fmt.Errorf("GET /schema: status %d, err %v", rep.status, rep.err)
	}
	var doc struct {
		Attributes []struct {
			Name   string   `json:"name"`
			Values []string `json:"values"`
		} `json:"attributes"`
		Labels []string `json:"labels"`
	}
	if err := json.Unmarshal(rep.body, &doc); err != nil {
		return nil, fmt.Errorf("GET /schema: %w", err)
	}
	attrs := make([]feature.Attribute, len(doc.Attributes))
	for i, a := range doc.Attributes {
		attrs[i] = feature.Attribute{Name: a.Name, Values: a.Values}
	}
	return feature.NewSchema(attrs, doc.Labels)
}

// sameSchema confirms the server serves the schema the inputs are coded in.
func sameSchema(got, want *feature.Schema) error {
	ok := slices.Equal(got.Labels, want.Labels) && len(got.Attrs) == len(want.Attrs)
	for i := 0; ok && i < len(got.Attrs); i++ {
		ok = got.Attrs[i].Name == want.Attrs[i].Name && slices.Equal(got.Attrs[i].Values, want.Attrs[i].Values)
	}
	if !ok {
		return errors.New("the server's /schema differs from the adult schema the inputs were generated in")
	}
	return nil
}

// counters are the server-side totals the per-layer metrics difference over
// the timed window.
type counters struct {
	hits, misses, coalesced  float64
	evals, rounds, fallbacks float64
	snapshots                float64
}

// readCounters reads the cache counters from /stats and the solver and
// snapshot counters from /metrics.
func readCounters(t transport) (counters, error) {
	var c counters
	rep := t.do(http.MethodGet, "/stats", nil)
	var st struct {
		Hits      float64 `json:"cache_hits"`
		Misses    float64 `json:"cache_misses"`
		Coalesced float64 `json:"cache_coalesced"`
	}
	if rep.err != nil || rep.status != http.StatusOK || json.Unmarshal(rep.body, &st) != nil {
		return c, fmt.Errorf("GET /stats: status %d, err %v", rep.status, rep.err)
	}
	c.hits, c.misses, c.coalesced = st.Hits, st.Misses, st.Coalesced
	rep = t.do(http.MethodGet, "/metrics", nil)
	if rep.err != nil || rep.status != http.StatusOK {
		return c, fmt.Errorf("GET /metrics: status %d, err %v", rep.status, rep.err)
	}
	series := parseMetrics(string(rep.body))
	c.evals = series["rk_solver_lazy_evals_total"]
	c.rounds = series["rk_solver_lazy_rounds_total"]
	c.fallbacks = series["rk_solver_lazy_fallbacks_total"]
	c.snapshots = series["rk_snapshot_save_seconds_count"]
	return c, nil
}

// parseMetrics reads the unlabelled series of a Prometheus text exposition.
func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// httpPass is the traced run's untraced HTTP pass: the workload over HTTP
// against a fresh cceserver, with the request-plane counters read as the timed
// window opens and after it closes.
func httpPass(o options, in *inputs, chk *checker, snap string) (hp *pass, web *outcome, before, after counters, err error) {
	defer onePGenerator()()
	dir, err := freshState(o.work, snap, "http")
	if err != nil {
		return nil, nil, before, after, err
	}
	srv, _, err := bootServer(o.server, dir, contextRows)
	if err != nil {
		return nil, nil, before, after, err
	}
	defer srv.stop()
	ht := newHTTPTransport(srv.base)
	defer ht.close()
	if hp, err = newPass(ht, o, in, chk); err != nil {
		return nil, nil, before, after, err
	}
	var beforeErr error
	hp.onStart = func() { before, beforeErr = readCounters(ht) }
	if web, err = hp.run(); err == nil {
		err = beforeErr
	}
	if err == nil {
		after, err = readCounters(ht)
	}
	return hp, web, before, after, err
}

// tracedRun is the --trace 1 run: an untraced HTTP pass for the request-plane
// counters, untraced and traced in-process replays of the same request
// stream, and the ladder. It writes the spans to one file and returns the
// per-layer metrics.
func tracedRun(o options, in *inputs, chk *checker, snap string) (metrics, error) {
	hp, web, before, after, err := httpPass(o, in, chk, snap)
	if err != nil {
		return nil, err
	}
	plain, err := inprocPass(o, hp, web, nil, snap, "plain")
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := inprocPass(o, hp, web, tr, snap, "traced")
	if err != nil {
		return nil, err
	}

	var stream []feature.Labeled
	seen := map[string]bool{}
	var bodies [][]byte
	for _, s := range web.explains {
		if k := instanceKey(s.q.li.X); !seen[k] && len(stream) < ladderSize {
			seen[k] = true
			stream = append(stream, s.q.li)
			bodies = append(bodies, s.rep.body)
		}
	}
	lad, err := runLadder(in, chk.oracle, stream, bodies, snap, o.work)
	if err != nil {
		return nil, err
	}

	spans := filepath.Join(o.root, "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), spans)
	return perLayer(web, plain, traced, tr, lad, before, after), nil
}

// inprocPass replays the HTTP pass's request stream against an in-process
// server recovered from a fresh copy of the snapshot; t, when set, records
// spans over the timed window.
func inprocPass(o options, hp *pass, replay *outcome, t *tracer, snap, name string) (*outcome, error) {
	dir, err := freshState(o.work, snap, name)
	if err != nil {
		return nil, err
	}
	srv, closeFn, err := inprocServer(hp.r.schema, dir, t)
	if err != nil {
		return nil, err
	}
	p := *hp
	p.t, p.replay, p.onStart = &inprocTransport{h: srv.Handler(), t: t}, replay, nil
	if t != nil {
		p.onStart = func() { t.on.Store(true) }
	}
	schema, err := fetchSchema(p.t)
	if err == nil {
		err = sameSchema(schema, hp.r.schema)
	}
	var out *outcome
	if err == nil {
		out, err = p.run()
	}
	if t != nil {
		t.on.Store(false)
	}
	if cerr := closeFn(); err == nil {
		err = cerr
	}
	return out, err
}

// perLayer assembles the per-layer metrics. A layer the workload does not
// exercise reads 0.
func perLayer(web, plain, traced *outcome, tr *tracer, lad *ladderResult, before, after counters) metrics {
	dur, self := tr.durations()
	m := metrics{}
	svc := dur["service.explain"]
	overhead := 0.0
	if len(svc) > 0 {
		overhead = quantile(latencies(web.explains), 0.50) - quantile(svc, 0.50)
	}
	m.set("http.overhead_p50_ms", "ms", overhead)
	// The whole window's p99, stalls included: the end-to-end figures are
	// medians over 1 s slices of the window.
	m.set("http.explain_p99_ms", "ms", quantile(latencies(web.explains), 0.99))
	obsLat := latencies(web.observes)
	m.set("http.observe_p50_ms", "ms", quantile(obsLat, 0.50))
	m.set("http.observe_p99_ms", "ms", quantile(obsLat, 0.99))

	m.set("service.explain_p50_ms", "ms", quantile(svc, 0.50))
	m.set("service.explain_p99_ms", "ms", quantile(svc, 0.99))
	m.set("service.explain_self_p50_ms", "ms", quantile(self["service.explain"], 0.50))
	hits, misses, coalesced := after.hits-before.hits, after.misses-before.misses, after.coalesced-before.coalesced
	m.set("service.cache_hit_ratio", "ratio", ratio(hits, hits+misses+coalesced))
	m.set("service.cache_hits", "count", hits)
	m.set("service.cache_misses", "count", misses)
	m.set("service.cache_coalesced", "count", coalesced)
	solves := dur["core.solve"]
	m.set("service.solves_per_explain", "ratio", ratio(float64(len(solves)), float64(len(traced.explains))))
	m.set("service.observe_p50_ms", "ms", quantile(dur["service.observe"], 0.50))
	m.set("service.observe_self_p50_ms", "ms", quantile(self["service.observe"], 0.50))

	m.set("core.solve_p50_ms", "ms", quantile(solves, 0.50))
	m.set("core.solve_p99_ms", "ms", quantile(solves, 0.99))
	m.set("core.solve_ladder_p50_ms", "ms", quantile(lad.solveExact, 0.50))
	m.set("core.post_solve_p50_ms", "ms", quantile(lad.postSolve, 0.50))
	m.set("core.lazy_evals_per_solve", "ratio", ratio(after.evals-before.evals, misses))
	m.set("core.lazy_rounds_per_solve", "ratio", ratio(after.rounds-before.rounds, misses))
	m.set("core.lazy_fallbacks", "count", after.fallbacks-before.fallbacks)

	m.set("bitset.round_scan_p50_us", "us", quantile(lad.scanServer, 0.50))
	m.set("bitset.round_scan_exact_p50_us", "us", quantile(lad.scanExact, 0.50))

	m.set("cce.monitor_observe_p50_us", "us", 1000*quantile(dur["cce.monitor_observe"], 0.50))
	m.set("cce.monitor_replay_s", "s", time.Duration(tr.replay.Load()).Seconds())

	m.set("persist.wal_append_p50_us", "us", 1000*quantile(dur["persist.wal_append"], 0.50))
	m.set("persist.wal_sync_p50_us", "us", 1000*quantile(dur["persist.wal_sync"], 0.50))
	m.set("persist.snapshot_save_ms", "ms", lad.saveMS)
	m.set("persist.snapshots", "count", after.snapshots-before.snapshots)
	m.set("persist.snapshot_load_s", "s", lad.loadS)
	m.set("persist.joblog_append_sync_p50_us", "us", quantile(lad.joblog, 0.50))

	m.set("loadgen.late_p99_ms", "ms", quantile(web.late, 0.99))
	m.set("loadgen.cpu_s", "s", web.cpu.Seconds())

	// Tracing overhead: traced minus untraced in-process handler p50.
	over := quantile(handlerTimes(traced.explains), 0.50) - quantile(handlerTimes(plain.explains), 0.50)
	m.set("trace.overhead_p50_ms", "ms", over)
	return m
}

// handlerTimes lists the samples' send-to-answer times in ms: the handler's
// own time in-process, whatever the schedule made them wait before.
func handlerTimes(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.rep.done.Sub(s.rep.sent))
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
