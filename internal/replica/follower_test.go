package replica

import (
	"testing"
	"time"
)

func TestFollowerTailsPrimary(t *testing.T) {
	p := newTestPrimary(t, t.TempDir(), primaryOpts{snapshotEvery: 100})
	rows := testRows(11, 12, p.schema)
	p.warm(rows[:6])

	f := startFollower(t, t.TempDir(), p.URL(), nil)
	f.caughtUpTo(6, 5*time.Second)

	// Live tail: new primary observations reach the follower.
	p.warm(rows[6:])
	f.caughtUpTo(12, 5*time.Second)
	if got, want := f.srv.ContextSize(), p.srv.ContextSize(); got != want {
		t.Fatalf("follower holds %d rows, primary %d", got, want)
	}
	// The follower adopted the primary's life.
	if f.srv.Epoch() != p.srv.Epoch() {
		t.Fatalf("follower epoch %q, primary %q", f.srv.Epoch(), p.srv.Epoch())
	}
	// And serves byte-identical explanations.
	assertConverged(t, p.URL(), serveFollower(t, f), p.schema, testRows(99, 10, p.schema))
}

func TestFollowerSurvivesPrimaryRestartWithEpochBump(t *testing.T) {
	pdir := t.TempDir()
	p := newTestPrimary(t, pdir, primaryOpts{snapshotEvery: 100})
	rows := testRows(21, 16, p.schema)
	p.warm(rows[:8])

	f := startFollower(t, t.TempDir(), p.URL(), nil)
	f.caughtUpTo(8, 5*time.Second)
	oldEpoch := f.srv.Epoch()

	// The primary dies and comes back: a new epoch on the same address. The
	// follower must fence its old stream and re-anchor, then keep tailing.
	p.restart(primaryOpts{snapshotEvery: 100})
	p.warm(rows[8:])
	f.caughtUpTo(16, 10*time.Second)
	// Snapshot catch-up installs state before adopting the epoch (DESIGN.md
	// §14), so the watermark can reach 16 a beat before the epoch moves:
	// wait for the adoption rather than asserting a point in time.
	waitFor(t, 10*time.Second, "follower to leave the pre-restart epoch",
		func() bool { return f.srv.Epoch() != oldEpoch })
	if f.srv.Epoch() != p.srv.Epoch() {
		t.Fatalf("follower epoch %q, primary %q", f.srv.Epoch(), p.srv.Epoch())
	}
	assertConverged(t, p.URL(), serveFollower(t, f), p.schema, testRows(98, 10, p.schema))
}

func TestFollowerSnapshotCatchupPastCompaction(t *testing.T) {
	// A compacting primary that outruns a disconnected follower forces the
	// snapshot path: the WAL tail the follower needs is simply gone (410).
	p := newTestPrimary(t, t.TempDir(), primaryOpts{snapshotEvery: 4, compactWAL: true})
	rows := testRows(31, 24, p.schema)
	p.warm(rows[:4])

	f := startFollower(t, t.TempDir(), p.URL(), nil)
	f.caughtUpTo(4, 5*time.Second)
	f.stop()

	// While the follower is down the primary compacts far past seq 4.
	p.warm(rows[4:])
	if base := p.srv.WALBase(); base <= 4 {
		t.Fatalf("wal base = %d, want past the follower watermark 4", base)
	}

	f2 := startFollower(t, f.dir, p.URL(), nil)
	f2.caughtUpTo(24, 10*time.Second)
	// The follower counts a snapshot catch-up after installing it, so the
	// watermark can reach 24 a beat before the counter moves: wait for the
	// count rather than asserting a point in time. A follower that resumed
	// the compacted tail without a catch-up never counts one and times out.
	waitFor(t, 5*time.Second, "the follower to count a snapshot catch-up (a compacted tail must not be resumed without one)",
		func() bool { return f2.fol.SnapshotCatchups() > 0 })
	assertConverged(t, p.URL(), serveFollower(t, f2), p.schema, testRows(97, 10, p.schema))
}

func TestFollowerRestartResumesFromWatermark(t *testing.T) {
	p := newTestPrimary(t, t.TempDir(), primaryOpts{snapshotEvery: 100})
	rows := testRows(41, 12, p.schema)
	p.warm(rows[:8])

	fdir := t.TempDir()
	f := startFollower(t, fdir, p.URL(), nil)
	f.caughtUpTo(8, 5*time.Second)
	epoch := f.srv.Epoch()
	f.stop()

	// Crash/restart: the new follower recovers rows + watermark from its own
	// periodic snapshots and the epoch from its state dir, then resumes the
	// stream from where it left off — no snapshot catch-up needed.
	f2 := startFollower(t, fdir, p.URL(), nil)
	if got := f2.srv.Epoch(); got != epoch {
		t.Fatalf("restarted follower epoch %q, want persisted %q", got, epoch)
	}
	p.warm(rows[8:])
	f2.caughtUpTo(12, 5*time.Second)
	if f2.fol.SnapshotCatchups() != 0 {
		t.Fatalf("follower took %d snapshot catch-ups for an intact tail", f2.fol.SnapshotCatchups())
	}
	assertConverged(t, p.URL(), serveFollower(t, f2), p.schema, testRows(96, 10, p.schema))
}
