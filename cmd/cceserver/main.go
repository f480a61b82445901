// Command cceserver runs the CCE explanation service over one of the
// built-in dataset schemas (optionally pre-populating its context with a
// trained model's inference log), or over the schema of a CSV file produced
// by datagen / ReadCSV.
//
// Usage:
//
//	cceserver [-addr :8080] [-dataset loan] [-alpha 1.0] [-panel 10] [-retain 0] [-warm]
//	          [-explain-cache on] [-explain-cache-entries 0] [-explain-cache-bytes 0]
//	          [-deadline 0] [-min-deadline 0] [-max-inflight 0]
//	          [-state DIR] [-snapshot-every 256] [-wal-sync-every 1] [-compact-wal]
//	          [-follow URL]
//	          [-metrics-addr ""] [-trace-sample 0] [-pprof] [-log-level info]
//
// Endpoints: GET /schema, POST /observe, POST /explain, POST/GET /jobs and
// GET /jobs/stream (async ExplainAll batches, DESIGN.md §15), GET /stats,
// GET /healthz, GET /metrics (Prometheus text format) and, when tracing is
// on, GET /debug/traces. A primary additionally serves the replication plane
// (GET /replicate, GET /snapshot; DESIGN.md §14). With -metrics-addr the
// operational endpoints (/metrics, /healthz, /debug/traces, and
// /debug/pprof/* under -pprof) are additionally served on a separate listener
// so the scrape plane can be firewalled away from the serving plane.
//
// -follow=<primary-url> starts a read replica instead: it tails the
// primary's observation stream, serves /explain with the staleness contract
// (replica_seq / staleness_ms, shedding on max_staleness_ms), answers 403 on
// /observe, and catches up from /snapshot whenever its WAL tail is lost.
//
// SIGINT/SIGTERM drain gracefully: in-flight requests finish, the final
// state is snapshotted, and the observation log is closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/xai-db/relativekeys/internal/dataset"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/model"
	"github.com/xai-db/relativekeys/internal/obs"
	"github.com/xai-db/relativekeys/internal/replica"
	"github.com/xai-db/relativekeys/internal/service"
)

func main() {
	var (
		addr   = flag.String("addr", ":8080", "listen address")
		dsName = flag.String("dataset", "loan", "schema source dataset")
		csv    = flag.String("csv", "", "load schema+context from a CSV file instead")
		alpha  = flag.Float64("alpha", 1.0, "default conformity bound")
		panel  = flag.Int("panel", 10, "drift-monitor panel size (0 disables)")
		retain = flag.Int("retain", 0, "keep only the most recent N observations in the context (0 = unbounded)")
		warm   = flag.Bool("warm", false, "pre-populate the context with a trained model's inference log")

		explainCache = flag.String("explain-cache", "on", "versioned explanation cache: on or off (DESIGN.md §15)")
		cacheEntries = flag.Int("explain-cache-entries", 0, "explanation-cache entry cap (0 = 8192)")
		cacheBytes   = flag.Int64("explain-cache-bytes", 0, "explanation-cache approximate byte cap (0 = 32 MiB)")

		deadline    = flag.Duration("deadline", 0, "default per-explain solve deadline; past it the answer degrades to a larger-but-valid key (0 = none)")
		minDeadline = flag.Duration("min-deadline", 0, "hard floor: explains asking for less shed with 503 (0 = none)")
		maxInflight = flag.Int("max-inflight", 0, "bound on concurrent explains; excess sheds with 429 (0 = unbounded)")

		stateDir      = flag.String("state", "", "directory for crash-safe state (snapshot + observation log); empty disables persistence")
		snapshotEvery = flag.Int("snapshot-every", 256, "observations between atomic snapshots")
		walSyncEvery  = flag.Int("wal-sync-every", 1, "observation-log appends per fsync (1 = sync every observation)")
		compactWAL    = flag.Bool("compact-wal", false, "truncate the observation log after each successful snapshot; lagging followers catch up from /snapshot")

		follow = flag.String("follow", "", "run as a read replica of the primary at this base URL (e.g. http://primary:8080)")

		metricsAddr = flag.String("metrics-addr", "", "separate listener for /metrics, /healthz, /debug/traces and pprof (empty = serve them on -addr only)")
		traceSample = flag.Int("trace-sample", 0, "sample 1 in N requests into /debug/traces (0 disables tracing)")
		traceKeep   = flag.Int("trace-keep", 32, "completed traces retained in the ring")
		pprofOn     = flag.Bool("pprof", false, "expose /debug/pprof/* on the ops listener")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	)
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, obs.ParseLevel(*logLevel)).With("component", "cceserver")
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	var ds *dataset.Dataset
	var err error
	if *csv != "" {
		f, ferr := os.Open(*csv)
		if ferr != nil {
			fatal("open csv", ferr)
		}
		ds, err = dataset.ReadCSV(f)
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	} else {
		ds, err = dataset.Load(*dsName, dataset.Options{})
	}
	if err != nil {
		fatal("load dataset", err)
	}

	cacheOff := false
	switch *explainCache {
	case "on":
	case "off":
		cacheOff = true
	default:
		fatal("parse flags", errors.New("-explain-cache must be on or off"))
	}
	follower := *follow != ""
	if follower && *warm {
		fatal("parse flags", errors.New("-warm and -follow are mutually exclusive: a replica warms from its primary"))
	}

	// The primary's epoch: its boot identity, persisted (and bumped) in the
	// state dir so followers can fence streams from a previous life. Without
	// persistence the epoch is minted fresh per process, which fences just as
	// well — a restart loses the context anyway.
	epoch := ""
	if !follower {
		if *stateDir != "" {
			if err := os.MkdirAll(*stateDir, 0o755); err != nil {
				fatal("create state dir", err)
			}
			epoch, err = replica.NextEpoch(*stateDir)
			if err != nil {
				fatal("mint epoch", err)
			}
		} else {
			epoch = fmt.Sprintf("mem-%d", time.Now().UnixNano())
		}
	}

	// The hub closures capture srv before it exists; they only run once the
	// listener is up, well after NewServer returns.
	var srv *service.Server
	var hub *replica.Hub
	var onReplicate func(seq uint64, li feature.Labeled)
	if !follower {
		hub = replica.NewHub(replica.HubConfig{
			Epoch: epoch,
			Seq:   func() uint64 { return srv.Seq() },
			Base:  func() uint64 { return srv.WALBase() },
			OpenWAL: func() (io.ReadCloser, error) {
				path := srv.WALPath()
				if path == "" {
					return nil, nil
				}
				f, err := os.Open(path)
				if os.IsNotExist(err) {
					return nil, nil
				}
				return f, err
			},
			WriteSnapshot: func(w io.Writer) error { return srv.WriteSnapshotTo(w) },
			Logger:        logger.With("component", "replica-hub"),
		})
		onReplicate = hub.Publish
	}

	tracer := obs.NewTracer(*traceSample, *traceKeep)
	srv, err = service.NewServer(service.Config{
		Schema:          ds.Schema,
		Alpha:           *alpha,
		PanelSize:       *panel,
		Retain:          *retain,
		DefaultDeadline: *deadline,
		MinDeadline:     *minDeadline,
		MaxInFlight:     *maxInflight,
		CacheOff:        cacheOff,
		CacheEntries:    *cacheEntries,
		CacheBytes:      *cacheBytes,
		StateDir:        *stateDir,
		SnapshotEvery:   *snapshotEvery,
		WALSyncEvery:    *walSyncEvery,
		CompactWAL:      *compactWAL,
		Follower:        follower,
		Epoch:           epoch,
		OnReplicate:     onReplicate,
		Tracer:          tracer,
		Logger:          logger.With("component", "service"),
	})
	if err != nil {
		fatal("build server", err)
	}

	if recovered := srv.Seq(); recovered > 0 {
		logger.Info("recovered persisted state", "observations", recovered, "state_dir", *stateDir)
	}
	if *warm {
		m, err := model.TrainForest(ds.Schema, ds.Train(), model.ForestConfig{Seed: 1})
		if err != nil {
			fatal("train warmup model", err)
		}
		n, err := srv.Warm(model.Labels(m, instances(ds)))
		if err != nil {
			fatal("warm context", err)
		}
		logger.Info("context warmed", "instances", n)
	}

	if *metricsAddr != "" {
		ops := opsMux(srv, tracer, *pprofOn)
		go func() {
			logger.Info("ops listener up", "addr", *metricsAddr, "pprof", *pprofOn)
			if err := http.ListenAndServe(*metricsAddr, ops); err != nil {
				fatal("ops listener", err)
			}
		}()
	}

	logger.Info("listening",
		"addr", *addr, "dataset", ds.Name,
		"features", ds.Schema.NumFeatures(), "alpha", *alpha,
		"trace_sample", *traceSample,
		"role", srv.Role())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	handler := srv.Handler()
	if hub != nil {
		// The replication plane mounts outside the request middleware: its
		// streams are long-lived and must reach the raw Flusher.
		root := http.NewServeMux()
		hub.Mount(root)
		root.Handle("/", handler)
		handler = root
	}
	if follower {
		fol, ferr := replica.NewFollower(replica.Config{
			PrimaryURL: *follow,
			StateDir:   *stateDir,
			Logger:     logger.With("component", "replica-follower"),
		}, srv)
		if ferr != nil {
			fatal("build follower", ferr)
		}
		go func() {
			if err := fol.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				logger.Error("replication tail ended", "err", err)
			}
		}()
		logger.Info("following primary", "primary", *follow, "epoch", srv.Epoch())
	}

	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	select {
	case err := <-serveErr:
		fatal("serve", err)
	case <-ctx.Done():
	}
	logger.Info("draining: waiting for in-flight requests, then snapshotting")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown", "err", err)
	}
	if err := srv.Close(); err != nil {
		fatal("final snapshot", err)
	}
	logger.Info("state saved; bye")
}

// opsMux serves the operational plane: metrics, health, traces, and
// (optionally) pprof. Separate from the request mux so -metrics-addr can bind
// it to a loopback or cluster-internal interface.
func opsMux(srv *service.Server, tracer *obs.Tracer, pprofOn bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", srv.MetricsHandler())
	mux.Handle("/healthz", srv.HealthzHandler())
	if tracer != nil {
		mux.Handle("/debug/traces", tracer.Handler())
	}
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// instances extracts the test-split instances (the inference set).
func instances(ds *dataset.Dataset) []feature.Instance {
	test := ds.Test()
	out := make([]feature.Instance, len(test))
	for i, li := range test {
		out[i] = li.X
	}
	return out
}
