package replica

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"

	"github.com/xai-db/relativekeys/internal/backoff"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/obs"
	"github.com/xai-db/relativekeys/internal/persist"
	"github.com/xai-db/relativekeys/internal/service"
)

// Applier is the follower-side server surface the tailer drives,
// structurally satisfied by *service.Server in follower mode.
type Applier interface {
	ApplyReplicated(ctx context.Context, seq uint64, li feature.Labeled) error
	InstallSnapshot(ctx context.Context, schema *feature.Schema, rows *feature.Rows, seq uint64) error
	ReplicaHeartbeat(primarySeq uint64)
	SetReplicaEpoch(epoch string)
	Epoch() string
	Seq() uint64
}

// Config wires a Follower.
type Config struct {
	PrimaryURL string       // base URL of the primary, e.g. http://primary:8080
	HTTP       *http.Client // nil = http.DefaultClient; chaos tests inject faulty transports here

	// Backoff paces reconnects — the same policy the retrying client uses,
	// so follower pressure on a struggling primary follows the one
	// repo-wide curve. Zero value = 50ms doubling to 2s with jitter.
	Backoff backoff.Policy

	// StateDir persists the primary epoch the follower's state mirrors ("" =
	// fencing survives only this process). The applied-seq watermark itself
	// rides in the server's atomic snapshots, not here.
	StateDir string

	Logger *slog.Logger // nil = silent
}

// errNeedSnapshot classifies stream failures that resuming the WAL cannot
// fix: the primary fenced our epoch (409), compacted past our watermark
// (410), or advertises a different epoch than our state mirrors. The only
// way forward is /snapshot.
var errNeedSnapshot = errors.New("replica: wal tail lost; snapshot catch-up required")

// Follower tails a primary and applies its observation stream. Run drives
// the loop; the other methods surface progress for tests and ops.
type Follower struct {
	cfg Config
	app Applier

	epoch string // the primary life our state mirrors; "" before first contact

	reconnects       atomic.Int64
	snapshotCatchups atomic.Int64
}

// NewFollower builds a follower for app. When cfg.StateDir holds an epoch
// from a previous run it is restored, so fencing survives follower restarts.
func NewFollower(cfg Config, app Applier) (*Follower, error) {
	if cfg.HTTP == nil {
		cfg.HTTP = http.DefaultClient
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(obs.DiscardHandler)
	}
	f := &Follower{cfg: cfg, app: app}
	if cfg.StateDir != "" {
		e, err := LoadEpoch(cfg.StateDir)
		if err != nil {
			return nil, err
		}
		f.epoch = e
	}
	if f.epoch != "" {
		app.SetReplicaEpoch(f.epoch)
	}
	return f, nil
}

// Reconnects reports stream re-establishments since start.
func (f *Follower) Reconnects() int64 { return f.reconnects.Load() }

// SnapshotCatchups reports snapshot re-anchors since start.
func (f *Follower) SnapshotCatchups() int64 { return f.snapshotCatchups.Load() }

// Run tails the primary until ctx ends: stream from the applied watermark,
// classify failures, fall back to snapshot catch-up when the tail is lost,
// and pace every reconnect with the shared backoff policy (reset whenever a
// connection made progress, so a healthy stream that drops reconnects fast).
func (f *Follower) Run(ctx context.Context) error {
	attempt := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		progress, err := f.stream(ctx)
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if errors.Is(err, errNeedSnapshot) {
			if serr := f.snapshotCatchup(ctx); serr != nil {
				f.cfg.Logger.Warn("snapshot catch-up failed", "err", serr)
			} else {
				progress = true
			}
		} else if err != nil {
			f.cfg.Logger.Warn("replication stream ended", "err", err)
		}
		if progress {
			attempt = 0
		} else {
			attempt++
		}
		f.reconnects.Add(1)
		replReconnects.Inc()
		if werr := f.cfg.Backoff.Wait(ctx, attempt, 0); werr != nil {
			return werr
		}
	}
}

// stream opens /replicate from the applied watermark and applies lines until
// the stream dies. Reports whether any record was applied (progress resets
// the backoff) and how the stream ended; errNeedSnapshot means resuming the
// WAL cannot help.
func (f *Follower) stream(ctx context.Context) (bool, error) {
	u := fmt.Sprintf("%s/replicate?from=%d", f.cfg.PrimaryURL, f.app.Seq())
	if f.epoch != "" {
		u += "&epoch=" + url.QueryEscape(f.epoch)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false, err
	}
	resp, err := f.cfg.HTTP.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close() //rkvet:ignore dropperr read-side body close; nothing to recover
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict, http.StatusGone:
		return false, errNeedSnapshot
	default:
		return false, fmt.Errorf("replica: /replicate: %s", resp.Status)
	}
	if e := resp.Header.Get(EpochHeader); f.epoch != "" && e != "" && e != f.epoch {
		// Belt over the query-param fencing: never apply another life's tail.
		return false, errNeedSnapshot
	}

	progress := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var hb heartbeat
		if err := json.Unmarshal(line, &hb); err != nil {
			// Not even JSON: the stream was cut mid-record. Reconnect; the
			// watermark makes the retry exact.
			return progress, fmt.Errorf("replica: torn stream line: %w", err)
		}
		if hb.HB {
			if f.epoch == "" && hb.Epoch != "" {
				// First contact: adopt the primary's life before applying
				// anything from it.
				if err := f.setEpoch(hb.Epoch); err != nil {
					return progress, err
				}
			}
			if hb.Epoch != f.epoch {
				return progress, errNeedSnapshot
			}
			f.app.ReplicaHeartbeat(hb.Seq)
			continue
		}
		seq, li, err := persist.DecodeWALRecord(line)
		if err != nil {
			// CRC failure: a torn or corrupted line. Never apply it.
			return progress, fmt.Errorf("replica: stream record: %w", err)
		}
		// A shipped record proves the primary's durable watermark reaches
		// its seq; count it before applying so catching up to the stream
		// head marks the follower synced.
		f.app.ReplicaHeartbeat(seq)
		if err := f.app.ApplyReplicated(ctx, seq, li); err != nil {
			if errors.Is(err, service.ErrReplicaGap) {
				// Records were lost between hub and socket (e.g. the hub
				// dropped us mid-buffer). The watermark re-anchors the
				// stream; no snapshot needed.
				return progress, fmt.Errorf("replica: %w", err)
			}
			return progress, err
		}
		progress = true
	}
	if err := sc.Err(); err != nil {
		return progress, err
	}
	return progress, nil // clean EOF: primary closed (restart or shutdown)
}

// snapshotCatchup re-anchors the follower on the primary's current state:
// GET /snapshot, decode + CRC-check, install atomically, then adopt the
// primary's epoch. Ordering matters — the epoch is persisted only after the
// snapshot install succeeds, so a crash mid-catch-up leaves a state/epoch
// pair that the fencing check sends straight back here.
func (f *Follower) snapshotCatchup(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.cfg.PrimaryURL+"/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := f.cfg.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //rkvet:ignore dropperr read-side body close; nothing to recover
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica: /snapshot: %s", resp.Status)
	}
	epoch := resp.Header.Get(EpochHeader)
	schema, rows, seq, err := persist.DecodeSnapshot(resp.Body)
	if err != nil {
		return err
	}
	if hdr := resp.Header.Get(SeqHeader); hdr != "" {
		// The header is advisory; the CRC-checked body wins on mismatch.
		if v, perr := strconv.ParseUint(hdr, 10, 64); perr == nil && v != seq {
			f.cfg.Logger.Warn("snapshot header/body watermark mismatch", "header", v, "body", seq)
		}
	}
	n := rows.Len() // InstallSnapshot takes the table over
	if err := f.app.InstallSnapshot(ctx, schema, rows, seq); err != nil {
		return err
	}
	if epoch != "" && epoch != f.epoch {
		if err := f.setEpoch(epoch); err != nil {
			return err
		}
	}
	f.app.ReplicaHeartbeat(seq)
	f.snapshotCatchups.Add(1)
	replSnapshotCatchups.Inc()
	f.cfg.Logger.Info("snapshot catch-up complete", "seq", seq, "epoch", epoch, "rows", n)
	return nil
}

// setEpoch adopts a primary life: durable first (when a state dir exists),
// then visible in /healthz via the applier.
func (f *Follower) setEpoch(epoch string) error {
	if f.cfg.StateDir != "" {
		if err := SaveEpoch(f.cfg.StateDir, epoch); err != nil {
			return err
		}
	}
	f.epoch = epoch
	f.app.SetReplicaEpoch(epoch)
	return nil
}
