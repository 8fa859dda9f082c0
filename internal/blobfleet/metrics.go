package blobfleet

import "faust/internal/obs"

// Process-wide fleet counters in the default obs registry. The
// per-backend rotation gauge is registered per Failover instance,
// labeled with the backend name, because backends are configuration, not
// code. Every Failover also keeps instance-local atomics (Stats) so
// tests can assert without scraping.
var (
	fmFailovers = map[string]*obs.Counter{
		"put": obs.Default().Counter("faust_blob_failover_total", "op", "put"),
		"get": obs.Default().Counter("faust_blob_failover_total", "op", "get"),
	}
	fmFaults = map[string]*obs.Counter{
		"error":      obs.Default().Counter("faust_blob_faults_injected_total", "kind", "error"),
		"latency":    obs.Default().Counter("faust_blob_faults_injected_total", "kind", "latency"),
		"hang":       obs.Default().Counter("faust_blob_faults_injected_total", "kind", "hang"),
		"short-read": obs.Default().Counter("faust_blob_faults_injected_total", "kind", "short-read"),
		"bit-flip":   obs.Default().Counter("faust_blob_faults_injected_total", "kind", "bit-flip"),
		"kill":       obs.Default().Counter("faust_blob_faults_injected_total", "kind", "kill"),
	}
)

func init() {
	r := obs.Default()
	r.Help("faust_blob_failover_total", "blob operations completed without the primary backend")
	r.Help("faust_blob_faults_injected_total", "faults manufactured by FaultyBlobs wrappers")
	r.Help("faust_blob_backend_alive", "per-backend rotation membership (1 = alive, 0 = dead)")
}

// backendGauge resolves the per-backend rotation gauge, labeled
// "<shard>/<name>" when the fleet serves a named shard.
func backendGauge(shard, name string) *obs.Gauge {
	label := name
	if shard != "" {
		label = shard + "/" + name
	}
	return obs.Default().Gauge("faust_blob_backend_alive", "backend", label)
}
