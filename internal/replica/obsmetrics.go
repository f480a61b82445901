package replica

import (
	"github.com/xai-db/relativekeys/internal/obs"
)

// Replication observability (DESIGN.md §14). The counters live here so every
// follower path increments exactly one registered series; the lag gauges
// (rk_replica_lag_entries, rk_replica_lag_seconds) read one server's state,
// so each follower service.Server registers them in its own registry.
var (
	replReconnects = obs.NewCounter("rk_replica_reconnects_total",
		"Replication stream re-establishments by the follower (any cause: cut, primary restart, drop).")
	replSnapshotCatchups = obs.NewCounter("rk_replica_snapshot_catchups_total",
		"Follower re-anchors from /snapshot after a lost WAL tail (epoch fence or compaction).")
	replFollowerDrops = obs.NewCounter("rk_replica_follower_drops_total",
		"Followers disconnected by the hub because their stream buffer overflowed.")
	replEpochFences = obs.NewCounter("rk_replica_epoch_fences_total",
		"Replication streams refused because the follower's epoch is from a previous primary life.")
)
