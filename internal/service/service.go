// Package service exposes CCE as an HTTP service, matching the paper's
// deployment picture (§6): it sits at the client side of a (possibly remote)
// ML model, accumulates the (instance, prediction) pairs observed during
// serving via /observe, and answers /explain with relative keys — never
// contacting the model. Instances travel as attribute-value string maps so
// clients need no knowledge of internal value codes.
//
// The server is deadline-aware and crash-safe (DESIGN.md §9): explains carry
// per-request deadlines and degrade to a valid-but-larger key instead of
// erroring when time runs out; observations stream to an append-only log and
// periodic atomic snapshots so a kill -9 loses at most the unsynced tail.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/xai-db/relativekeys/internal/cce"
	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/obs"
	"github.com/xai-db/relativekeys/internal/persist"
)

// DriftObserver is the slice of cce.DriftMonitor the server depends on; a
// seam so tests and the fault-injection harness can interpose failing or
// slow monitors when exercising the observe refusal path.
//
// A monitor may also implement ObserveRows(rows *feature.Rows) error, as
// cce.DriftMonitor does: the server detects it the way io.Copy detects
// io.WriterTo and feeds boot recovery and snapshot install through it in one
// batch. A monitor without it is fed those rows one at a time, each a copy.
type DriftObserver interface {
	ObserveCtx(ctx context.Context, li feature.Labeled) (int, error)
	AvgSuccinctness() float64
	Arrivals() int
}

// batchObserver is the optional bulk entry of a DriftObserver: it feeds rows
// in order, all or none, leaving the monitor as ObserveCtx would one row at a
// time. It refuses a table holding a row outside its schema
// (feature.Rows.Validate), as cce.DriftMonitor does, since loadLocked
// validates nothing itself. It only reads the table, and keeps no reference
// into it once it returns.
type batchObserver interface {
	ObserveRows(rows *feature.Rows) error
}

// SolveFunc is the anytime solver seam, matching core.SRKAnytime: it returns
// the key, whether the deadline degraded it, and an error.
type SolveFunc func(ctx context.Context, c *core.Context, x feature.Instance, y feature.Label, alpha float64) (core.Key, bool, error)

// Config assembles a Server. Zero values mean "off" for every robustness
// knob, so Config{Schema: s, Alpha: a} behaves like the pre-robustness
// server.
type Config struct {
	Schema    *feature.Schema
	Alpha     float64
	PanelSize int // drift-monitor panel; 0 = no monitor
	Retain    int // max live context rows; 0 = grow forever

	// Monitor overrides PanelSize construction when non-nil. Its optional
	// ObserveRows, detected like io.WriterTo, takes the rows of boot recovery
	// and snapshot install in one batch; without it they arrive one at a time.
	Monitor DriftObserver
	// Solve overrides the explain solver. nil = core.SRKAnytimePar, the
	// served engine (DESIGN.md §11), which returns byte-identical keys to the
	// eager reference while scanning only the survivors' nonzero words after
	// the first pick. Tests set it to core.SRKAnytime to run the eager path,
	// or to a fault-injecting or timing wrapper.
	Solve SolveFunc

	// Parallelism is ignored: the served engine solves each explain
	// sequentially. It stays until the repository benchmark stops setting it.
	Parallelism int

	DefaultDeadline time.Duration // per-explain solve budget; 0 = none
	MinDeadline     time.Duration // floor: shorter requests shed with 503
	MaxInFlight     int           // concurrent explains; 0 = unbounded

	// Explanation cache (DESIGN.md §15). The cache memoizes rendered explain
	// responses under the (context version, alpha, instance) key; a miss
	// solves and stores its outcome when it is exact. CacheOff disables it.
	// CacheEntries and CacheBytes bound the cache (0 = defaults: 8192
	// entries, 32 MiB).
	CacheOff     bool
	CacheEntries int
	CacheBytes   int64

	// SolverTag is ignored: the cache lives and dies with one server, whose
	// solver is fixed here, so its keys carry no solver. It stays until the
	// repository benchmark stops setting it.
	SolverTag string

	// Async ExplainAll jobs (DESIGN.md §15). MaxJobItems caps one batch
	// (0 = 100000); the newest 64 finished jobs stay pollable. With StateDir
	// set, job specs and per-item results persist under <StateDir>/jobs and
	// incomplete jobs resume after a restart.
	MaxJobItems int

	StateDir      string       // "" = no persistence
	WAL           *persist.WAL // overrides the StateDir log (fault-injection seam)
	SnapshotEvery int          // observations per snapshot; 0 = 256
	WALSyncEvery  int          // appends per fsync; 0 = 1 (sync every append)

	// Replication (DESIGN.md §14). Follower turns the server into a read
	// replica: /observe answers 403, rows arrive only via ApplyReplicated /
	// InstallSnapshot, and /explain honours the request's max_staleness_ms
	// bound. Epoch is the primary boot identity served to followers so a
	// restarted primary fences streams from its previous life. OnReplicate,
	// set on a primary, is called under the state lock after each observation
	// is durable — the replication hub's publish hook. CompactWAL truncates
	// the log after each successful snapshot (followers lagging past the
	// truncation point fall back to snapshot catch-up).
	Follower    bool
	Epoch       string
	OnReplicate func(seq uint64, li feature.Labeled)
	CompactWAL  bool

	Tracer *obs.Tracer  // nil = no request sampling
	Logger *slog.Logger // nil = silent
}

const (
	defaultSnapshotEvery = 256
	snapshotFileName     = "context.snap"
	walFileName          = "observations.wal"
)

// Server is an HTTP CCE endpoint over a fixed schema. It is safe for
// concurrent use.
type Server struct {
	schema          *feature.Schema
	alpha           float64
	solve           SolveFunc
	defaultDeadline time.Duration
	minDeadline     time.Duration
	snapshotEvery   int
	walSyncEvery    int
	snapPath        string        // "" = snapshots off
	sem             chan struct{} // nil = unbounded explains

	// Explanation cache (DESIGN.md §15); immutable after construction.
	// cache nil = caching off.
	cache *explainCache

	jobs *jobStore // nil = jobs disabled (never in practice; see NewServer)

	mu sync.RWMutex
	// ctx holds the newest Config.Retain rows (all rows when 0); its Version
	// stamps the explanation cache's keys and stays monotonic across
	// InstallSnapshot's swap.
	ctx     *core.Retained // guarded by mu
	monitor DriftObserver  // guarded by mu

	wal           *persist.WAL // guarded by mu; nil = no observation log
	seq           uint64       // guarded by mu; last durable observation number
	sinceSnapshot int          // guarded by mu
	sinceSync     int          // guarded by mu
	closed        bool         // guarded by mu; true once Close began

	// Replication state (DESIGN.md §14).
	follower    bool
	compactWAL  bool
	walPath     string                               // "" = no on-disk log
	epoch       string                               // guarded by mu; primary boot identity
	walBase     uint64                               // guarded by mu; highest seq NOT in the log (compaction watermark)
	onReplicate func(seq uint64, li feature.Labeled) // called under mu after each durable observe
	primarySeq  atomic.Uint64                        // follower: latest seq the primary has advertised
	lastSync    atomic.Int64                         // follower: unix nanos of the last provably caught-up moment; 0 = never

	// metrics is the server's own registry and series: the one copy of every
	// counter /stats, /healthz and /metrics report.
	metrics *serverMetrics

	tracer *obs.Tracer  // nil = no sampling
	logger *slog.Logger // never nil: NewServer substitutes a discarding logger
	start  time.Time
}

// New builds a server with an empty, unbounded context.
func New(schema *feature.Schema, alpha float64, panelSize int) (*Server, error) {
	return NewServer(Config{Schema: schema, Alpha: alpha, PanelSize: panelSize})
}

// NewServer builds a server from cfg, recovering persisted state when
// cfg.StateDir holds a snapshot or observation log from a previous run. A
// corrupt snapshot is refused (the operator must move it aside), while a torn
// log tail — the kill -9 signature — is dropped silently per the recovery
// protocol.
func NewServer(cfg Config) (*Server, error) {
	if err := core.ValidateAlpha(cfg.Alpha); err != nil {
		return nil, err
	}
	if cfg.Retain < 0 {
		return nil, fmt.Errorf("service: retention %d must be ≥ 0", cfg.Retain)
	}
	ctx, err := core.NewRetained(cfg.Schema, cfg.Retain)
	if err != nil {
		return nil, err
	}
	s := &Server{
		schema:          cfg.Schema,
		alpha:           cfg.Alpha,
		solve:           cfg.Solve,
		defaultDeadline: cfg.DefaultDeadline,
		minDeadline:     cfg.MinDeadline,
		snapshotEvery:   cfg.SnapshotEvery,
		walSyncEvery:    cfg.WALSyncEvery,
		ctx:             ctx,
		follower:        cfg.Follower,
		compactWAL:      cfg.CompactWAL,
		epoch:           cfg.Epoch,
		onReplicate:     cfg.OnReplicate,
		tracer:          cfg.Tracer,
		logger:          cfg.Logger,
		start:           time.Now(),
	}
	if s.logger == nil {
		s.logger = slog.New(obs.DiscardHandler)
	}
	s.metrics = newServerMetrics(s)
	if s.solve == nil {
		s.solve = func(ctx context.Context, c *core.Context, x feature.Instance, y feature.Label, alpha float64) (core.Key, bool, error) {
			return core.SRKAnytimePar(ctx, c, x, y, alpha, 1)
		}
	}
	if !cfg.CacheOff {
		s.cache = newExplainCache(cfg.CacheEntries, cfg.CacheBytes)
		s.cache.evictions = s.metrics.cacheEvictions
	}
	if s.snapshotEvery <= 0 {
		s.snapshotEvery = defaultSnapshotEvery
	}
	if s.walSyncEvery <= 0 {
		s.walSyncEvery = 1
	}
	if cfg.MaxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInFlight)
	}
	s.monitor = cfg.Monitor
	if s.monitor == nil && cfg.PanelSize > 0 {
		mon, err := cce.NewDriftMonitor(cfg.Schema, cfg.Alpha, cfg.PanelSize, 1)
		if err != nil {
			return nil, err
		}
		s.monitor = mon
	}
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return nil, err
		}
		s.snapPath = filepath.Join(cfg.StateDir, snapshotFileName)
		if !s.follower {
			s.walPath = filepath.Join(cfg.StateDir, walFileName)
		}
		if err := s.recoverLocked(s.walPath); err != nil {
			return nil, err
		}
		// A follower writes no log of its own: the primary's WAL is the log,
		// and the follower's periodic snapshots (rows + seq watermark in one
		// atomic file) are its durable resume point.
		if cfg.WAL == nil && !s.follower {
			w, err := persist.OpenWAL(s.walPath)
			if err != nil {
				return nil, err
			}
			s.wal = w
		}
	}
	if cfg.WAL != nil {
		s.wal = cfg.WAL
	}
	// The job store comes up last: resuming an unfinished batch starts the
	// runner, which solves against the context recovered above.
	jobsDir := ""
	if cfg.StateDir != "" {
		jobsDir = filepath.Join(cfg.StateDir, "jobs")
	}
	jobs, err := newJobStore(s, jobsDir, cfg.MaxJobItems)
	if err != nil {
		return nil, err
	}
	s.jobs = jobs
	return s, nil
}

// recoverLocked rebuilds the context from the snapshot plus the observation
// log: the snapshot rows in arrival order, then the log records with a
// sequence number past the snapshot watermark, appended to the snapshot's
// table and bulk-loaded in one pass (loadLocked). The drift monitor is
// rebuilt from the recovered rows rather than persisted — its panel is a
// statistic of the stream, not ground truth. Called from NewServer before
// the server is shared, hence no locking.
func (s *Server) recoverLocked(walPath string) error {
	schema, rows, seq, err := persist.LoadSnapshot(s.snapPath)
	switch {
	case err == nil:
		if rows, err = s.fitSnapshot(schema, rows); err != nil {
			return err
		}
		s.seq = seq
	case os.IsNotExist(err):
		// First boot: nothing to recover.
		rows = feature.NewRows(s.schema, 0)
	default:
		return err
	}
	if walPath != "" {
		// With compaction on, records at or below the snapshot watermark may
		// have been truncated away in a previous life; advertise the snapshot
		// seq as the replication base so a follower asking for history below
		// it is sent to snapshot catch-up instead of silently missing rows.
		// Without a snapshot the log is complete from zero.
		if s.compactWAL {
			s.walBase = s.seq
		}
		// A torn tail is truncated from the file by RecoverWAL; mid-file
		// damage (persist.ErrCorruptLog) refuses the boot, and so does a
		// record outside the schema, which the table cannot hold.
		if _, err := persist.RecoverWAL(walPath, s.seq, func(seq uint64, li feature.Labeled) error {
			if err := core.ValidateLabeled(s.schema, li); err != nil {
				return fmt.Errorf("service: recovery: %w", err)
			}
			rows.Append(li)
			s.seq = seq
			return nil
		}); err != nil {
			return err
		}
	}
	if rows.Len() == 0 {
		return nil // nothing to load: keep the empty context NewServer built
	}
	//rkvet:ignore ctxflow recovery runs inside NewServer before any request exists; only a monitor without ObserveRows reads this context, row by row, and its replay must complete
	if err := s.loadLocked(context.Background(), rows); err != nil {
		return fmt.Errorf("service: recovery: %w", err)
	}
	return nil
}

// loadLocked replaces the context with the table's rows, oldest first, and
// feeds them to the drift monitor: the one bulk load behind boot recovery
// and snapshot install. Neither half can take a row the other refuses:
// Retained.ReplaceRows and ObserveRows each refuse a table holding a row
// outside the schema, by feature.Rows.Validate, before changing anything. A
// monitor with ObserveRows replays its panel in one goroutine beside the
// context build, reading the same table, joined before loadLocked returns;
// any other monitor is fed a copy of each row under ctx once the context is
// in place. A monitor failure comes back as a monitorError, after the
// context swap. The context may take the table's storage, so callers hand
// it over. Callers hold s.mu.
func (s *Server) loadLocked(ctx context.Context, rows *feature.Rows) error {
	if bm, ok := s.monitor.(batchObserver); ok {
		panel := make(chan error, 1)
		go func() { panel <- bm.ObserveRows(rows) }()
		err := s.ctx.ReplaceRows(rows)
		if merr := <-panel; merr != nil && err == nil {
			err = monitorError{merr}
		}
		return err
	}
	if err := s.ctx.ReplaceRows(rows); err != nil || s.monitor == nil {
		return err
	}
	// No Add can write to the table before this loop ends: callers hold s.mu.
	for i := 0; i < rows.Len(); i++ {
		if _, err := s.monitor.ObserveCtx(ctx, rows.Row(i)); err != nil {
			return monitorError{err}
		}
	}
	return nil
}

// fitSnapshot refuses a snapshot, recovered from disk or fetched from a
// primary, whose schema does not have the configured shape, and returns its
// rows at the configured schema's code widths: the table itself when the
// widths agree, otherwise a repacked copy, refused when a code does not fit
// them. A code is never reinterpreted at another width; domains are checked
// when the rows load.
func (s *Server) fitSnapshot(schema *feature.Schema, rows *feature.Rows) (*feature.Rows, error) {
	if schema.NumFeatures() != s.schema.NumFeatures() || len(schema.Labels) != len(s.schema.Labels) {
		return nil, fmt.Errorf("service: snapshot schema (%d attrs, %d labels) does not match the configured schema", schema.NumFeatures(), len(schema.Labels))
	}
	rows, err := rows.Repack(s.schema)
	if err != nil {
		return nil, fmt.Errorf("service: snapshot rows do not fit the configured schema: %w", err)
	}
	return rows, nil
}

// checkLocked runs the admission checks that can refuse a row — the schema
// and the drift monitor — without touching the context. Callers hold s.mu.
func (s *Server) checkLocked(ctx context.Context, li feature.Labeled) error {
	if err := core.ValidateLabeled(s.schema, li); err != nil {
		return err
	}
	if s.monitor != nil {
		if _, err := s.monitor.ObserveCtx(ctx, li); err != nil {
			s.metrics.rollbackMonitor.Inc()
			s.logger.Warn("observation refused: monitor rejected the row", "err", err)
			return monitorError{err}
		}
	}
	return nil
}

// observeLocked runs the full observation pipeline: check (schema and
// monitor), log to the WAL, add to the context, and maybe snapshot. Every
// stage that can refuse the row runs before the context add, which may
// retire the oldest row: a refusal leaves the context, its version and so the
// explanation cache untouched. The WAL append precedes the client's 200 so a
// crash cannot lose a row the client saw acknowledged (modulo the sync
// policy). Callers hold s.mu.
func (s *Server) observeLocked(ctx context.Context, li feature.Labeled) error {
	if err := s.checkLocked(ctx, li); err != nil {
		return err
	}
	if s.wal != nil {
		if err := s.wal.Append(s.seq+1, li); err != nil {
			// The record did not reach the log (a torn tail is dropped on
			// replay) and the context is untouched: the client gets a
			// retryable 503. The monitor has already counted the arrival;
			// panel statistics may run one ahead, which is acceptable for a
			// drift estimate.
			s.metrics.rollbackWAL.Inc()
			s.logger.Warn("observation refused: wal append failed", "err", err)
			return persistError{err}
		}
		s.sinceSync++
		if s.sinceSync >= s.walSyncEvery {
			s.sinceSync = 0
			if err := s.wal.Sync(); err != nil {
				// The row is in memory and in the kernel's page cache; only
				// durability against power loss is uncertain. Count it rather
				// than force the client into a duplicating retry.
				s.metrics.walSyncFailures.Inc()
				s.logger.Warn("wal sync failed", "err", err)
			}
		}
	}
	// checkLocked validated the row, which is all Add can refuse.
	if err := s.ctx.Add(li); err != nil {
		return err
	}
	s.seq++
	if s.onReplicate != nil {
		// Publish only after the record is durable in the log: a follower
		// must never apply a row its primary could forget in a crash.
		s.onReplicate(s.seq, li)
	}
	s.maybeSnapshotLocked()
	return nil
}

// maybeSnapshotLocked counts one admitted row toward the periodic snapshot
// and writes one every snapshotEvery rows. A failed snapshot is not fatal: a primary's WAL
// still covers everything since the last good one, and a follower re-syncs a
// longer tail after a crash. With compaction on, a good snapshot lets the
// primary's log start over (a follower has no log). Callers hold s.mu.
func (s *Server) maybeSnapshotLocked() {
	s.sinceSnapshot++
	if s.snapPath == "" || s.sinceSnapshot < s.snapshotEvery {
		return
	}
	s.sinceSnapshot = 0
	if err := s.snapshotLocked(); err != nil {
		s.metrics.snapshotFailures.Inc()
		s.logger.Warn("periodic snapshot failed", "err", err)
		return
	}
	if s.compactWAL && s.wal != nil {
		// The snapshot covers every logged record; followers below the new
		// base catch up from the snapshot.
		if err := s.wal.Truncate(); err != nil {
			s.logger.Warn("wal compaction failed", "err", err)
		} else {
			s.walBase = s.seq
		}
	}
}

// snapshotLocked atomically writes the current rows, oldest first so a
// recovered server keeps retiring them in arrival order, and the sequence
// watermark. Callers hold s.mu.
func (s *Server) snapshotLocked() error {
	if s.snapPath == "" {
		return nil
	}
	return persist.SaveSnapshotRows(s.snapPath, s.schema, s.ctx.Rows(), s.seq)
}

// Close snapshots the final state, closes the observation log, and marks the
// server draining: later observes and explains answer 503. Safe to call
// more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.jobs != nil {
		// Stop the batch runner; a persisted job resumes from its checkpoint
		// log on the next boot.
		s.jobs.close()
	}
	err := s.snapshotLocked()
	if s.wal != nil {
		if cerr := s.wal.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ContextSize reports the live rows in the explanation context.
func (s *Server) ContextSize() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ctx.Len()
}

// HealthzHandler exposes /healthz standalone, for an ops mux bound to a
// separate (firewalled) listener.
func (s *Server) HealthzHandler() http.Handler { return http.HandlerFunc(s.handleHealthz) }

// MetricsHandler serves /metrics: the process registry (solver, CCE,
// persistence, replication and client series) plus this server's own, as one
// exposition. Handler mounts it; an ops mux on a separate listener mounts it
// standalone.
func (s *Server) MetricsHandler() http.Handler { return obs.Handler(obs.Default, s.metrics.reg) }

// Seq reports the sequence number of the last admitted observation.
func (s *Server) Seq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq
}

// Warm bulk-loads labeled instances into the context (and the drift monitor
// and observation log, when active); returns the number loaded.
func (s *Server) Warm(items []feature.Labeled) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.follower {
		return 0, errors.New("service: a read replica warms from its primary, not from local data")
	}
	ctx := context.Background() //rkvet:ignore ctxflow Warm is boot-time wiring that runs before serving; no request bounds it
	for i, li := range items {
		if err := s.observeLocked(ctx, li); err != nil {
			return i, err
		}
	}
	return len(items), nil
}

// Handler returns the HTTP mux for the service, wrapped in panic recovery:
// a panicking handler answers 500 and the process survives to serve the next
// request.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/schema", s.handleSchema)
	mux.HandleFunc("/observe", s.handleObserve)
	mux.HandleFunc("/explain", s.handleExplain)
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/stream", s.handleJobStream)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/metrics", s.MetricsHandler())
	if s.tracer != nil {
		mux.Handle("/debug/traces", s.tracer.Handler())
	}
	return s.instrument(s.recoverPanics(mux))
}

// instrument is the outermost middleware: it tracks in-flight requests,
// records per-endpoint traffic and latency, and starts a sampled trace whose
// spans downstream stages (solvers, WAL, snapshot) attach to via the request
// context. The unsampled path costs one atomic add on the tracer plus the
// endpoint instruments.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		endpoint := endpointLabel(r.URL.Path)
		m := s.metrics
		m.httpInFlight.Inc()
		defer m.httpInFlight.Dec()
		if tr := s.tracer.Start(endpoint); tr != nil {
			defer tr.Finish()
			r = r.WithContext(obs.ContextWithTrace(r.Context(), tr))
		}
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		m.httpSeconds.With(endpoint).ObserveSince(start)
		m.httpRequests.With(endpoint, strconv.Itoa(rec.code)).Inc()
	})
}

// statusRecorder captures the response code for the request metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush passes through to the wrapped writer. Without it the recorder hides
// http.Flusher and /jobs/stream buffers every line until the job ends.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// recoverPanics converts handler panics into 500s so one poisoned request
// cannot take the service down. http.ErrAbortHandler is the stdlib's own
// "abort this response" signal and must keep propagating.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			s.metrics.panicsRecovered.Inc()
			s.logger.Error("handler panic recovered", "panic", fmt.Sprint(p), "path", r.URL.Path)
			http.Error(w, fmt.Sprintf("internal error: %v", p), http.StatusInternalServerError)
		}()
		next.ServeHTTP(w, r)
	})
}

// ObserveRequest is one served inference: attribute name → value string,
// plus the prediction observed from the model.
type ObserveRequest struct {
	Values     map[string]string `json:"values"`
	Prediction string            `json:"prediction"`
}

// ExplainRequest asks for the relative key of an observed instance. Alpha
// optionally overrides the server default; DeadlineMS optionally overrides
// the server's default solve deadline (milliseconds). MaxStalenessMS is the
// replica staleness bound: a follower whose applied state is older sheds the
// request (503 + Retry-After) instead of answering from it; 0 means any
// staleness is acceptable.
type ExplainRequest struct {
	Values         map[string]string `json:"values"`
	Prediction     string            `json:"prediction"`
	Alpha          float64           `json:"alpha,omitempty"`
	DeadlineMS     int64             `json:"deadline_ms,omitempty"`
	MaxStalenessMS int64             `json:"max_staleness_ms,omitempty"`

	// NoCache bypasses the explanation cache for this request: the solve
	// always runs. The response body is byte-identical to the cached path at
	// the same context version (the differential suite enforces this); only
	// the X-RK-Cache header differs.
	NoCache bool `json:"no_cache,omitempty"`
}

// ExplainResponse carries the explanation. Degraded marks a key completed
// under an expired deadline: still α-conformant, but possibly larger than
// the greedy key. On a follower every response also carries the staleness
// contract: ReplicaSeq is the observation the answer's context is current
// through, StalenessMS how long ago the follower was provably caught up
// (-1 = never yet synced; only possible when no bound was requested).
type ExplainResponse struct {
	Features    []string `json:"features"`
	Rule        string   `json:"rule"`
	Precision   float64  `json:"precision"`
	Coverage    int      `json:"coverage"`
	Context     int      `json:"context_size"`
	Degraded    bool     `json:"degraded,omitempty"`
	ReplicaSeq  *uint64  `json:"replica_seq,omitempty"`
	StalenessMS *int64   `json:"staleness_ms,omitempty"`
}

// StatsResponse summarizes the service state. ShedTotal counts the 429
// overload and 503 stale sheds only; deadline-floor and draining sheds show
// only in rk_shed_total{reason} on /metrics.
type StatsResponse struct {
	ContextSize      int     `json:"context_size"`
	Alpha            float64 `json:"alpha"`
	Retention        int     `json:"retention,omitempty"`
	AvgSuccinctness  float64 `json:"monitor_avg_succinctness,omitempty"`
	MonitorArrivals  int     `json:"monitor_arrivals,omitempty"`
	MonitoringActive bool    `json:"monitoring_active"`
	DegradedTotal    int64   `json:"degraded_total,omitempty"`
	ShedTotal        int64   `json:"shed_total,omitempty"`
	PanicsRecovered  int64   `json:"panics_recovered,omitempty"`
	SyncFailures     int64   `json:"wal_sync_failures,omitempty"`
	SnapshotFailures int64   `json:"snapshot_failures,omitempty"`
	RollbacksMonitor int64   `json:"observe_rollbacks_monitor,omitempty"`
	RollbacksWAL     int64   `json:"observe_rollbacks_wal,omitempty"`
	Seq              uint64  `json:"seq,omitempty"`
	PersistenceOn    bool    `json:"persistence_active,omitempty"`

	// Explanation cache (DESIGN.md §15). CacheActive is false when the
	// server runs with CacheOff.
	CacheActive   bool  `json:"cache_active"`
	CacheHits     int64 `json:"cache_hits,omitempty"`
	CacheMisses   int64 `json:"cache_misses,omitempty"`
	CacheBypassed int64 `json:"cache_bypassed,omitempty"`
	CacheEntries  int   `json:"cache_entries,omitempty"`
	CacheBytes    int64 `json:"cache_bytes,omitempty"`

	// Async batch jobs (DESIGN.md §15): aggregate counters plus per-job
	// progress for every unfinished job.
	Jobs *JobsStats `json:"jobs,omitempty"`

	// Replication state (DESIGN.md §14). Role is always present; the lag
	// fields are meaningful on a follower (StalenessMS -1 = never synced).
	Role        string `json:"role"`
	Epoch       string `json:"epoch,omitempty"`
	AppliedSeq  uint64 `json:"applied_seq,omitempty"`
	PrimarySeq  uint64 `json:"primary_seq,omitempty"`
	LagEntries  int64  `json:"replica_lag_entries,omitempty"`
	StalenessMS int64  `json:"staleness_ms,omitempty"`
}

// HealthResponse is the /healthz body: liveness plus the failure counters an
// operator checks first — refused observations (client-visible 500/503s that
// left the state untouched), durability hiccups, and recovered panics.
type HealthResponse struct {
	Status           string `json:"status"` // "ok" or "draining"
	UptimeSeconds    int64  `json:"uptime_seconds"`
	ContextSize      int    `json:"context_size"`
	Seq              uint64 `json:"seq"`
	RollbacksMonitor int64  `json:"observe_rollbacks_monitor"`
	RollbacksWAL     int64  `json:"observe_rollbacks_wal"`
	SyncFailures     int64  `json:"wal_sync_failures"`
	SnapshotFailures int64  `json:"snapshot_failures"`
	PanicsRecovered  int64  `json:"panics_recovered"`

	// Replication state (DESIGN.md §14): the first things an operator checks
	// on a replica — what it is, which primary life it follows, how far along.
	Role        string `json:"role"`
	Epoch       string `json:"epoch,omitempty"`
	AppliedSeq  uint64 `json:"applied_seq"`
	LagEntries  int64  `json:"replica_lag_entries,omitempty"`
	StalenessMS int64  `json:"staleness_ms,omitempty"`
}

// monitorError marks drift-monitor failures (server-side, 500) so the
// observe handler can distinguish them from client input errors (400).
type monitorError struct{ err error }

func (e monitorError) Error() string { return e.err.Error() }
func (e monitorError) Unwrap() error { return e.err }

// persistError marks observation-log failures: the observation was not
// admitted and the client should retry (503 + Retry-After).
type persistError struct{ err error }

func (e persistError) Error() string { return e.err.Error() }
func (e persistError) Unwrap() error { return e.err }

// errDraining answers requests arriving after Close started.
var errDraining = errors.New("service: shutting down")

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	type attr struct {
		Name   string   `json:"name"`
		Values []string `json:"values"`
	}
	out := struct {
		Attributes []attr   `json:"attributes"`
		Labels     []string `json:"labels"`
	}{Labels: s.schema.Labels}
	for _, a := range s.schema.Attrs {
		out.Attributes = append(out.Attributes, attr{Name: a.Name, Values: a.Values})
	}
	writeJSON(w, out)
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.follower {
		// A replica's context mirrors its primary; accepting writes here
		// would fork the history. Clients must observe against the primary.
		http.Error(w, "read replica: /observe is served by the primary", http.StatusForbidden)
		return
	}
	var req ObserveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	li, err := s.decode(req.Values, req.Prediction)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.metrics.shedDraining.Inc()
		unavailable(w, errDraining.Error())
		return
	}
	if err := s.observeLocked(r.Context(), li); err != nil {
		switch err.(type) {
		case monitorError:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		case persistError:
			unavailable(w, err.Error())
		default:
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}
	writeJSON(w, map[string]int{"context_size": s.ctx.Len()})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req ExplainRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	li, err := s.decode(req.Values, req.Prediction)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	alpha, deadline, err := s.resolveAlphaDeadline(req.Alpha, req.DeadlineMS)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The hard floor: below it the degraded answer would be all features —
	// useless as an explanation — so shed instead of wasting the work.
	if s.minDeadline > 0 && deadline > 0 && deadline < s.minDeadline {
		s.metrics.shedDeadlineFloor.Inc()
		unavailable(w, fmt.Sprintf("deadline %v below the service floor %v", deadline, s.minDeadline))
		return
	}
	if req.MaxStalenessMS < 0 {
		http.Error(w, "max_staleness_ms must be ≥ 0", http.StatusBadRequest)
		return
	}
	// The staleness contract, checked before spending solve work: a follower
	// that cannot meet the bound sheds now so the client's retry (with the
	// Retry-After backoff) lands after catch-up. A primary is never stale.
	if s.follower && req.MaxStalenessMS > 0 {
		if stale := s.StalenessMS(); stale < 0 || stale > req.MaxStalenessMS {
			s.metrics.shedStale.Inc()
			unavailable(w, fmt.Sprintf("replica staleness %dms exceeds the requested bound %dms", stale, req.MaxStalenessMS))
			return
		}
	}
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.metrics.shedOverload.Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, "too many in-flight explains", http.StatusTooManyRequests)
			return
		}
	}
	ctx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		s.metrics.shedDraining.Inc()
		unavailable(w, errDraining.Error())
		return
	}
	e, source, err := s.explainLocked(ctx, li, alpha, req.NoCache)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("X-RK-Cache", source)
	if e.noKey {
		http.Error(w, "no α-conformant key exists for this instance", http.StatusConflict)
		return
	}
	if e.resp.Degraded {
		s.metrics.explainDegraded.Inc()
	}
	resp := e.resp
	if s.follower {
		// Re-check the bound after the solve: a long solve (or a stream that
		// died mid-request) must not convert an in-bound admission into an
		// out-of-bound answer. The response always states what it is current
		// through, bound requested or not.
		seq, stale := s.seq, s.StalenessMS()
		if req.MaxStalenessMS > 0 && (stale < 0 || stale > req.MaxStalenessMS) {
			s.metrics.shedStale.Inc()
			unavailable(w, fmt.Sprintf("replica staleness %dms exceeds the requested bound %dms", stale, req.MaxStalenessMS))
			return
		}
		resp.ReplicaSeq, resp.StalenessMS = &seq, &stale
		w.Header().Set("X-RK-Replica-Seq", strconv.FormatUint(seq, 10))
		w.Header().Set("X-RK-Staleness-MS", strconv.FormatInt(stale, 10))
	}
	writeJSON(w, resp)
}

// maxDeadlineMS is the largest deadline_ms a time.Duration can hold.
const maxDeadlineMS = math.MaxInt64 / int64(time.Millisecond)

// resolveAlphaDeadline resolves the alpha and deadline_ms fields /explain and
// /jobs share. 0 is encoding/json's omitted-field value for both: "use the
// server default". Any explicitly sent alpha, valid or not, goes through
// validation; a sent deadline must be positive and fit a time.Duration. An
// error is the client's (400).
func (s *Server) resolveAlphaDeadline(alpha float64, deadlineMS int64) (float64, time.Duration, error) {
	if alpha == 0 { //rkvet:ignore floateq 0 is the JSON omitted-field sentinel
		alpha = s.alpha
	} else if err := core.ValidateAlpha(alpha); err != nil {
		return 0, 0, err
	}
	switch {
	case deadlineMS == 0:
		return alpha, s.defaultDeadline, nil
	case deadlineMS < 0:
		return 0, 0, errors.New("deadline_ms must be positive")
	case deadlineMS > maxDeadlineMS:
		return 0, 0, fmt.Errorf("deadline_ms %d exceeds the largest supported deadline %d", deadlineMS, maxDeadlineMS)
	}
	return alpha, time.Duration(deadlineMS) * time.Millisecond, nil
}

// explainLocked answers one explain through the explanation cache (DESIGN.md
// §15): bypass (cache off or no_cache) solves directly; otherwise the cache
// key — context version, alpha, label, instance — is looked up, and a miss
// solves and stores its outcome when it is exact. source is the X-RK-Cache
// header value: "hit", "miss" or "bypass", and exactly that outcome's counter
// moves. Callers hold s.mu (read), so the version cannot move between the
// lookup and the put: every entry is stored under the version it was solved
// at. Concurrent identical misses each solve and put the same bytes.
func (s *Server) explainLocked(ctx context.Context, li feature.Labeled, alpha float64, noCache bool) (*cachedExplain, string, error) {
	if s.cache == nil || noCache {
		s.metrics.cacheBypass.Inc()
		e, err := s.solveEntryLocked(ctx, li, alpha)
		return e, "bypass", err
	}
	ckey := cacheKeyOf(s.ctx.Version(), alpha, li)
	if e, ok := s.cache.get(ckey); ok {
		s.metrics.cacheHit.Inc()
		return e, "hit", nil
	}
	e, err := s.solveEntryLocked(ctx, li, alpha)
	s.metrics.cacheMiss.Inc()
	// Store exact outcomes only: a key or a no-key verdict. A degraded key
	// depends on how long this solve ran, so it answers this request alone.
	if err == nil && !e.resp.Degraded {
		s.cache.put(ckey, e)
	}
	return e, "miss", err
}

// solveEntryLocked runs one solve and renders its outcome: the response body
// fields (shared verbatim between cached and uncached serving, so the two are
// byte-identical) or the no-key verdict. Callers hold s.mu (read).
func (s *Server) solveEntryLocked(ctx context.Context, li feature.Labeled, alpha float64) (*cachedExplain, error) {
	c := s.ctx.Context()
	key, degraded, err := s.solve(ctx, c, li.X, li.Y, alpha)
	if err == core.ErrNoKey {
		// The no-key verdict is exact (never deadline-degraded).
		return &cachedExplain{noKey: true, resp: ExplainResponse{Context: c.Len()}}, nil
	}
	if err != nil {
		return nil, err
	}
	violations, coverage := core.ViolationsCoverage(c, li.X, li.Y, key)
	resp := ExplainResponse{
		Rule:      key.RenderRule(s.schema, li.X, li.Y),
		Precision: core.PrecisionOf(violations, c.Len()),
		Coverage:  coverage,
		Context:   c.Len(),
		Degraded:  degraded,
	}
	for _, a := range key {
		resp.Features = append(resp.Features, s.schema.Attrs[a].Name)
	}
	return &cachedExplain{resp: resp}, nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	m := s.metrics
	s.mu.RLock()
	defer s.mu.RUnlock()
	resp := StatsResponse{
		ContextSize:      s.ctx.Len(),
		Alpha:            s.alpha,
		Retention:        s.ctx.Limit(),
		DegradedTotal:    m.explainDegraded.Value(),
		ShedTotal:        m.shedOverload.Value() + m.shedStale.Value(),
		PanicsRecovered:  m.panicsRecovered.Value(),
		SyncFailures:     m.walSyncFailures.Value(),
		SnapshotFailures: m.snapshotFailures.Value(),
		RollbacksMonitor: m.rollbackMonitor.Value(),
		RollbacksWAL:     m.rollbackWAL.Value(),
		Seq:              s.seq,
		PersistenceOn:    s.wal != nil || s.snapPath != "",
		Role:             s.roleLocked(),
		Epoch:            s.epoch,
	}
	if s.cache != nil {
		resp.CacheActive = true
		resp.CacheHits = m.cacheHit.Value()
		resp.CacheMisses = m.cacheMiss.Value()
		resp.CacheBypassed = m.cacheBypass.Value()
		resp.CacheEntries, resp.CacheBytes = s.cache.stats()
	}
	if s.jobs != nil {
		resp.Jobs = s.jobs.statsSnapshot()
	}
	if s.follower {
		resp.AppliedSeq = s.seq
		resp.PrimarySeq = s.primarySeq.Load()
		resp.LagEntries = s.lagEntriesLocked()
		resp.StalenessMS = s.StalenessMS()
	}
	if s.monitor != nil {
		resp.MonitoringActive = true
		resp.AvgSuccinctness = s.monitor.AvgSuccinctness()
		resp.MonitorArrivals = s.monitor.Arrivals()
	}
	writeJSON(w, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	status := "ok"
	if s.closed {
		status = "draining"
	}
	m := s.metrics
	resp := HealthResponse{
		Status:           status,
		UptimeSeconds:    int64(time.Since(s.start).Seconds()),
		ContextSize:      s.ctx.Len(),
		Seq:              s.seq,
		RollbacksMonitor: m.rollbackMonitor.Value(),
		RollbacksWAL:     m.rollbackWAL.Value(),
		SyncFailures:     m.walSyncFailures.Value(),
		SnapshotFailures: m.snapshotFailures.Value(),
		PanicsRecovered:  m.panicsRecovered.Value(),
		Role:             s.roleLocked(),
		Epoch:            s.epoch,
		AppliedSeq:       s.seq,
	}
	if s.follower {
		resp.LagEntries = s.lagEntriesLocked()
		resp.StalenessMS = s.StalenessMS()
	}
	writeJSON(w, resp)
}

// decode converts a name→value map and label string into a labeled instance.
func (s *Server) decode(values map[string]string, prediction string) (feature.Labeled, error) {
	x := make(feature.Instance, s.schema.NumFeatures())
	for a, attr := range s.schema.Attrs {
		raw, ok := values[attr.Name]
		if !ok {
			return feature.Labeled{}, fmt.Errorf("service: missing attribute %q", attr.Name)
		}
		v := attr.ValueCode(raw)
		if v < 0 {
			return feature.Labeled{}, fmt.Errorf("service: value %q outside the domain of %q", raw, attr.Name)
		}
		x[a] = v
	}
	if len(values) != s.schema.NumFeatures() {
		return feature.Labeled{}, fmt.Errorf("service: request carries %d attributes, schema has %d", len(values), s.schema.NumFeatures())
	}
	y := s.schema.LabelCode(prediction)
	if y < 0 {
		return feature.Labeled{}, fmt.Errorf("service: unknown prediction %q", prediction)
	}
	return feature.Labeled{X: x, Y: y}, nil
}

// unavailable answers 503 with a Retry-After hint: the condition is
// transient (draining, log hiccup, deadline floor) and a later retry can
// succeed.
func unavailable(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	http.Error(w, msg, http.StatusServiceUnavailable)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
