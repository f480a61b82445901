package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/xai-db/relativekeys/internal/cce"
	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/persist"
	"github.com/xai-db/relativekeys/internal/service"
)

// The traced run replays a workload in-process: service.NewServer configured
// as cceserver configures it with every flag at its default, requests sent
// through Handler().ServeHTTP, and timing shims at the public seams of the
// layers below (Config.Solve, Config.Monitor, Config.WAL). Spans stay in
// memory and go to one file when the run ends.

// span is one timed call at a layer boundary.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`   // 0 = a request's root span
	Req    int64  `json:"req"`      // the root span of the request that caused it
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

// rootKey carries a request's root span id in its context.
type rootKey struct{}

// tracer records spans while on.
type tracer struct {
	t0  time.Time
	ids atomic.Int64
	on  atomic.Bool

	// Parent for the WAL seam, which gets no request context: the observe
	// holding the state lock, stored by the monitor shim, which runs first
	// under that lock.
	observe atomic.Int64

	// replay sums the monitor's time while recovery replays the snapshot,
	// before recording starts (nanoseconds).
	replay atomic.Int64

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(name string, id, parent, root int64, start, end time.Time) {
	s := span{Name: name, ID: id, Parent: parent, Req: root, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// child records a span from start to now under root, the request it serves.
func (t *tracer) child(name string, root int64, start time.Time) {
	if !t.on.Load() {
		return
	}
	t.record(name, t.ids.Add(1), root, root, start, time.Now())
}

// rootOf returns the request root carried by ctx, or fallback.
func rootOf(ctx context.Context, fallback int64) int64 {
	if id, ok := ctx.Value(rootKey{}).(int64); ok {
		return id
	}
	return fallback
}

// solve is the Config.Solve shim: cceserver's default engine, lazy greedy at
// par workers, timed.
func (t *tracer) solve(par int) service.SolveFunc {
	return func(ctx context.Context, c *core.Context, x feature.Instance, y feature.Label, alpha float64) (core.Key, bool, error) {
		start := time.Now()
		key, degraded, err := core.SRKAnytimePar(ctx, c, x, y, alpha, par)
		t.child("core.solve", rootOf(ctx, 0), start)
		return key, degraded, err
	}
}

// timedMonitor is the Config.Monitor shim over a real panel DriftMonitor.
type timedMonitor struct {
	inner *cce.DriftMonitor
	t     *tracer
}

func (m *timedMonitor) ObserveCtx(ctx context.Context, li feature.Labeled) (int, error) {
	start := time.Now()
	n, err := m.inner.ObserveCtx(ctx, li)
	if !m.t.on.Load() {
		m.t.replay.Add(int64(time.Since(start)))
		return n, err
	}
	root := rootOf(ctx, 0)
	m.t.observe.Store(root)
	m.t.child("cce.monitor_observe", root, start)
	return n, err
}

func (m *timedMonitor) AvgSuccinctness() float64 { return m.inner.AvgSuccinctness() }
func (m *timedMonitor) Arrivals() int            { return m.inner.Arrivals() }

// timedLog is the sink under the Config.WAL shim: the real log file, timed.
type timedLog struct {
	f *os.File
	t *tracer
}

func (l *timedLog) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := l.f.Write(b)
	l.t.child("persist.wal_append", l.t.observe.Load(), start)
	return n, err
}

func (l *timedLog) Sync() error {
	start := time.Now()
	err := l.f.Sync()
	l.t.child("persist.wal_sync", l.t.observe.Load(), start)
	return err
}

// inprocServer builds a server as cceserver builds it with every flag at its
// default, over stateDir. With a tracer the Solve, Monitor and WAL seams get
// the timing shims; the cache-key solver tag stays the default's.
func inprocServer(schema *feature.Schema, stateDir string, t *tracer) (*service.Server, func() error, error) {
	par := runtime.NumCPU()
	cfg := service.Config{
		Schema: schema, Alpha: 1.0, PanelSize: 10, Parallelism: par,
		StateDir: stateDir, SnapshotEvery: 256, WALSyncEvery: 1,
	}
	var log *os.File
	if t != nil {
		mon, err := cce.NewDriftMonitor(schema, cfg.Alpha, cfg.PanelSize, 1)
		if err != nil {
			return nil, nil, err
		}
		// The service's own log file name inside the state directory.
		log, err = os.OpenFile(filepath.Join(stateDir, "observations.wal"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		cfg.Solve, cfg.SolverTag = t.solve(par), fmt.Sprintf("lazy/p=%d", par)
		cfg.Monitor = &timedMonitor{inner: mon, t: t}
		cfg.WAL = persist.NewWAL(&timedLog{f: log, t: t})
	}
	srv, err := service.NewServer(cfg)
	if err != nil {
		if log != nil {
			log.Close() // the error above is the one to report
		}
		return nil, nil, err
	}
	closeFn := func() error {
		err := srv.Close()
		if log != nil {
			if cerr := log.Close(); err == nil {
				err = cerr
			}
		}
		return err
	}
	return srv, closeFn, nil
}

// inprocTransport sends requests straight into a service handler. With a
// tracer each request gets a root span whose id rides in its context.
type inprocTransport struct {
	h http.Handler
	t *tracer // nil = untraced
}

func (p *inprocTransport) do(method, path string, body []byte) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	r := httptest.NewRequest(method, path, rd)
	var root int64
	if p.t != nil {
		root = p.t.ids.Add(1)
		r = r.WithContext(context.WithValue(r.Context(), rootKey{}, root))
	}
	rec := httptest.NewRecorder()
	rep := reply{sent: time.Now()}
	p.h.ServeHTTP(rec, r)
	rep.done = time.Now()
	if p.t != nil && p.t.on.Load() {
		p.t.record(rootName(path), root, 0, root, rep.sent, rep.done)
	}
	rep.status, rep.source, rep.body = rec.Code, rec.Header().Get("X-RK-Cache"), rec.Body.Bytes()
	return rep
}

// rootName names a request's root span after its endpoint.
func rootName(path string) string {
	path, _, _ = strings.Cut(path, "?")
	return "service." + strings.ReplaceAll(strings.TrimPrefix(path, "/"), "/", "_")
}

// write saves every span as one JSON line to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// durations returns span durations in ms by name and, for root spans, their
// self time: the duration minus the part of it their child spans cover.
func (t *tracer) durations() (dur, self map[string][]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	dur, self = map[string][]float64{}, map[string][]float64{}
	for _, s := range t.spans {
		d := float64(s.End-s.Start) / 1e6
		dur[s.Name] = append(dur[s.Name], d)
		if s.Parent == 0 {
			self[s.Name] = append(self[s.Name], d-float64(covered(s, kids[s.ID]))/1e6)
		}
	}
	return dur, self
}

// covered is how much of root's interval the union of its children covers.
func covered(root span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := root.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, root.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// ladderResult holds the ladder pass: the same instances through one layer
// at a time.
type ladderResult struct {
	solveExact []float64 // ms: core.SRKAnytimePar on an exactly sized context
	postSolve  []float64 // ms: core.PrecisionPar + core.CoveragePar on the returned key
	scanServer []float64 // µs: one full candidate scan on the server-sized context
	scanExact  []float64 // µs: the same scan on the exactly sized context
	loadS      float64   // persist.LoadSnapshot of the workload's snapshot
	saveMS     float64   // persist.SaveSnapshot of the context rows
	joblog     []float64 // µs: persist.JobLog Append+Sync per explain answer body
}

// ladderSize bounds the instances the ladder replays.
const ladderSize = 200

// runLadder replays stream through each layer's public functions and appends
// bodies, explain answers from the HTTP pass, to a job checkpoint log as the
// job runner logs its items. The server-sized context is grown one row at a
// time like the server's, so its bitsets carry the same doubled capacity.
func runLadder(in *inputs, exact *core.Context, stream []feature.Labeled, bodies [][]byte, snap, work string) (*ladderResult, error) {
	par := runtime.NumCPU()
	sized, err := core.NewContextSized(in.schema, nil, 0)
	if err != nil {
		return nil, err
	}
	for _, li := range in.rows {
		if err := sized.Add(li); err != nil {
			return nil, err
		}
	}
	res := &ladderResult{}
	ctx := context.Background()
	for _, li := range stream {
		start := time.Now()
		key, _, err := core.SRKAnytimePar(ctx, exact, li.X, li.Y, 1.0, par)
		res.solveExact = append(res.solveExact, ms(time.Since(start)))
		if err == nil {
			start = time.Now()
			core.PrecisionPar(sized, li.X, li.Y, key, par)
			core.CoveragePar(sized, li.X, li.Y, key, par)
			res.postSolve = append(res.postSolve, ms(time.Since(start)))
		}
		res.scanServer = append(res.scanServer, roundScan(sized, li))
		res.scanExact = append(res.scanExact, roundScan(exact, li))
	}
	start := time.Now()
	if _, _, _, err := persist.LoadSnapshot(snap); err != nil {
		return nil, err
	}
	res.loadS = time.Since(start).Seconds()
	start = time.Now()
	if err := persist.SaveSnapshot(filepath.Join(work, "ladder.snap"), in.schema, in.rows, contextRows); err != nil {
		return nil, err
	}
	res.saveMS = ms(time.Since(start))
	jl, err := persist.OpenJobLog(filepath.Join(work, "ladder.results"))
	if err != nil {
		return nil, err
	}
	for i, b := range bodies {
		start := time.Now()
		err := jl.Append(i, bytes.TrimSuffix(b, []byte("\n")))
		if err == nil {
			err = jl.Sync()
		}
		if err != nil {
			jl.Close() // the append error is the one to report
			return nil, err
		}
		res.joblog = append(res.joblog, float64(time.Since(start))/float64(time.Microsecond))
	}
	if err := jl.Close(); err != nil {
		return nil, err
	}
	return res, nil
}

// scanSink keeps the ladder's scan results live.
var scanSink int

// roundScan times one full candidate scan of a greedy round, in µs: the
// AND-card of the instance's disagreeing set with each of its attribute
// postings.
func roundScan(c *core.Context, li feature.Labeled) float64 {
	d := c.Disagreeing(li.Y)
	start := time.Now()
	for a, v := range li.X {
		scanSink += d.AndCard(c.Posting(a, v))
	}
	return float64(time.Since(start)) / float64(time.Microsecond)
}
