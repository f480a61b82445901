package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/persist"
)

// The follower-side Server surface (DESIGN.md §14). The replica package
// drives these through a structural interface, so service never imports
// replica: a follower's rows arrive via ApplyReplicated (the streamed WAL
// tail) and InstallSnapshot (catch-up after a lost tail), heartbeats advance
// the staleness clock, and the epoch pins which primary life the state
// mirrors.

// ErrReplicaGap reports a streamed record that does not directly follow the
// follower's applied watermark: records were lost between hub and follower,
// and the stream must be re-established from the watermark.
var ErrReplicaGap = errors.New("service: replicated record out of order")

// errNotFollower guards the replication entry points on a primary.
var errNotFollower = errors.New("service: not a follower (start with Config.Follower)")

// ApplyReplicated applies one streamed observation to a follower. Records at
// or below the applied watermark are duplicates from a reconnect overlap and
// are skipped; a record past watermark+1 is a gap (ErrReplicaGap) the caller
// resolves by reconnecting from the watermark. The follower snapshots on the
// same cadence as a primary — those periodic atomic snapshots, carrying the
// seq watermark, are its only durable state.
func (s *Server) ApplyReplicated(ctx context.Context, seq uint64, li feature.Labeled) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.follower {
		return errNotFollower
	}
	if s.closed {
		return errDraining
	}
	if seq <= s.seq {
		return nil
	}
	if seq != s.seq+1 {
		return fmt.Errorf("%w: got seq %d with watermark %d", ErrReplicaGap, seq, s.seq)
	}
	if err := s.checkLocked(ctx, li); err != nil {
		return err
	}
	if err := s.ctx.Add(li); err != nil {
		return err
	}
	s.seq = seq
	s.markSyncedLocked()
	s.maybeSnapshotLocked()
	return nil
}

// InstallSnapshot replaces the follower's entire context with a snapshot
// fetched from the primary — the catch-up path when the WAL tail is gone
// (primary restarted, or the follower lagged past compaction). It is the
// same bulk load as boot recovery (loadLocked), which takes the table over,
// and the swap is atomic (core.Retained.ReplaceRows): nothing changes unless
// every row is accepted, so a failed install leaves the previous state
// serving, and the context version climbs past every earlier value, so no
// pre-snapshot cache entry can answer for post-snapshot content.
func (s *Server) InstallSnapshot(ctx context.Context, schema *feature.Schema, rows *feature.Rows, seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.follower {
		return errNotFollower
	}
	if s.closed {
		return errDraining
	}
	rows, err := s.fitSnapshot(schema, rows)
	if err != nil {
		return err
	}
	if err := s.loadLocked(ctx, rows); err != nil {
		// The drift panel is a statistic of the stream, not ground truth:
		// it is fed the snapshot rows so drift estimates keep their history,
		// but a monitor hiccup, which comes after the swap, must not abort
		// catch-up.
		var merr monitorError
		if !errors.As(err, &merr) {
			return fmt.Errorf("service: snapshot install: %w", err)
		}
		s.logger.Warn("monitor skipped snapshot rows during catch-up", "err", merr.err)
	}
	s.seq = seq
	s.sinceSnapshot = 0
	s.markSyncedLocked()
	if err := s.snapshotLocked(); err != nil {
		// The watermark is not yet durable; a crash before the next periodic
		// snapshot re-fetches the primary snapshot, which is correct if slow.
		s.metrics.snapshotFailures.Inc()
		s.logger.Warn("persisting installed snapshot failed", "err", err)
	}
	return nil
}

// ReplicaHeartbeat records the primary's latest sequence number, carried on
// every heartbeat and handshake line. When the follower's applied watermark
// has reached it, the follower is provably caught up and the staleness clock
// resets to now.
func (s *Server) ReplicaHeartbeat(primarySeq uint64) {
	for {
		cur := s.primarySeq.Load()
		if primarySeq <= cur || s.primarySeq.CompareAndSwap(cur, primarySeq) {
			break
		}
	}
	if s.Seq() >= s.primarySeq.Load() {
		s.lastSync.Store(time.Now().UnixNano())
	}
}

// markSyncedLocked resets the staleness clock when the applied watermark has
// reached the primary's advertised seq. Callers hold s.mu.
func (s *Server) markSyncedLocked() {
	if s.seq >= s.primarySeq.Load() {
		s.lastSync.Store(time.Now().UnixNano())
	}
}

// StalenessMS reports how many milliseconds ago the follower was provably
// caught up with its primary; -1 before the first sync. A primary reports 0:
// it is never stale.
func (s *Server) StalenessMS() int64 {
	if !s.follower {
		return 0
	}
	t := s.lastSync.Load()
	if t == 0 {
		return -1
	}
	return time.Since(time.Unix(0, t)).Milliseconds()
}

// replicaLagSeconds is StalenessMS for the lag gauge: seconds, -1 before
// first sync.
func (s *Server) replicaLagSeconds() float64 {
	ms := s.StalenessMS()
	if ms < 0 {
		return -1
	}
	return float64(ms) / 1e3
}

// lagEntriesLocked counts observations the primary has durably logged that
// this follower has not yet applied. Callers hold s.mu (read or write).
func (s *Server) lagEntriesLocked() int64 {
	if p := s.primarySeq.Load(); p > s.seq {
		return int64(p - s.seq)
	}
	return 0
}

// replicaLagEntries is lagEntriesLocked for the lag gauge.
func (s *Server) replicaLagEntries() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lagEntriesLocked()
}

// SetReplicaEpoch pins the primary boot identity this follower's state
// mirrors. The follower calls it after epoch-changing catch-up; streams from
// any other epoch are fenced off.
func (s *Server) SetReplicaEpoch(epoch string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch = epoch
}

// Epoch reports the primary boot identity: the server's own on a primary,
// the last installed primary epoch on a follower ("" before first contact).
func (s *Server) Epoch() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// roleLocked names the server's replication role. Callers hold s.mu; the
// field is immutable, the convention is for call-site symmetry.
func (s *Server) roleLocked() string {
	if s.follower {
		return "follower"
	}
	return "primary"
}

// Role reports "primary" or "follower".
func (s *Server) Role() string { return s.roleLocked() }

// WALBase reports the highest sequence number NOT present in the primary's
// log: /replicate requests from at or below it must catch up from a snapshot.
func (s *Server) WALBase() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.walBase
}

// WALPath reports the primary's on-disk observation log ("" when persistence
// is off or the server is a follower) — the file the replication hub streams
// history from.
func (s *Server) WALPath() string { return s.walPath }

// WriteSnapshotTo streams the current rows and watermark in the snapshot
// encoding — the payload of the primary's /snapshot catch-up endpoint,
// bit-compatible with an on-disk snapshot. Only taking the row table
// (core.Retained.Rows, which no later observe writes to) and the watermark
// happen under the state lock; encoding and writing happen after it, so a
// follower that stops reading cannot stall observes (nor, via the waiting
// writer, explains).
func (s *Server) WriteSnapshotTo(w io.Writer) error {
	s.mu.RLock()
	rows, seq := s.ctx.Rows(), s.seq
	s.mu.RUnlock()
	return persist.EncodeSnapshotRows(w, s.schema, rows, seq)
}
