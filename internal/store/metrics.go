package store

import "faust/internal/obs"

// WAL observability, in the process-wide default registry.
var (
	// One observation per fsync/fdatasync of WAL data — the dominant cost
	// of durable operation handling (the paper's server-side bottleneck
	// once signatures are off the critical path).
	smFsyncNs = obs.Default().Histogram("faust_wal_fsync_ns")
	smAppends = obs.Default().Counter("faust_wal_appends_total")
)

func init() {
	r := obs.Default()
	r.Help("faust_wal_fsync_ns", "WAL fsync/fdatasync latency, nanoseconds")
	r.Help("faust_wal_appends_total", "WAL records appended")
}
