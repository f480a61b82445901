package persist

import (
	"github.com/xai-db/relativekeys/internal/obs"
)

// Durability-layer observability (DESIGN.md §10). WAL appends and fsyncs are
// on the observation hot path, so their instruments are pre-resolved atomics;
// snapshot and recovery metrics run at checkpoint/boot cadence. Only boot
// recovery (RecoverWAL) moves the replay counters; the replication hub's
// history scan is a plain read.
var (
	walAppendSeconds = obs.NewHistogram("rk_wal_append_seconds",
		"Latency of one WAL record append (marshal + single write call).", nil)
	walFsyncSeconds = obs.NewHistogram("rk_wal_fsync_seconds",
		"Latency of one WAL fsync.", nil)
	walAppendBytes = obs.NewCounter("rk_wal_append_bytes_total",
		"Bytes appended to the WAL.")
	walAppendErrors = obs.NewCounter("rk_wal_append_errors_total",
		"WAL appends that failed at the sink.")
	walFsyncErrors = obs.NewCounter("rk_wal_fsync_errors_total",
		"WAL fsyncs that failed.")

	walReplayRecords = obs.NewCounter("rk_wal_replay_records_total",
		"Intact WAL records applied during recovery replays.")
	walReplayTorn = obs.NewCounter("rk_wal_replay_torn_total",
		"Recovery replays that stopped at a torn or corrupt tail record.")

	snapshotSaveSeconds = obs.NewHistogram("rk_snapshot_save_seconds",
		"Latency of one atomic snapshot write (encode + fsync + rename).", nil)
	snapshotBytes = obs.NewCounter("rk_snapshot_bytes_total",
		"Bytes written across all snapshot saves.")
)
