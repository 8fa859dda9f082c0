package blobfleet

import "faust/internal/obs"

// Process-wide fleet counters in the default obs registry. Per-backend
// gauges (aliveness, up/down) are registered per Failover instance,
// labeled with the backend name, because backends are configuration, not
// code. Every Failover also keeps instance-local atomics (Stats) so
// tests can assert without scraping.
var (
	fmFailovers = map[string]*obs.Counter{
		"put": obs.Default().Counter("faust_blob_failover_total", "op", "put"),
		"get": obs.Default().Counter("faust_blob_failover_total", "op", "get"),
	}
	fmRetries     = obs.Default().Counter("faust_blob_retries_total")
	fmReadRepairs = obs.Default().Counter("faust_blob_read_repair_total")
	fmTamperSkips = obs.Default().Counter("faust_blob_tamper_skips_total")
	fmProbes      = map[bool]*obs.Counter{
		true:  obs.Default().Counter("faust_blob_probes_total", "result", "ok"),
		false: obs.Default().Counter("faust_blob_probes_total", "result", "failed"),
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
	r.Help("faust_blob_retries_total", "per-backend blob operation retries after transient failures")
	r.Help("faust_blob_read_repair_total", "blobs served by a secondary and written back to the primary")
	r.Help("faust_blob_tamper_skips_total", "replicas skipped because their payload failed content-hash verification")
	r.Help("faust_blob_probes_total", "background aliveness probes of dead backends")
	r.Help("faust_blob_faults_injected_total", "faults manufactured by FaultyBlobs wrappers")
	r.Help("faust_blob_backend_aliveness", "per-backend EMA aliveness score, scaled to 0-1000")
	r.Help("faust_blob_backend_alive", "per-backend rotation membership (1 = alive, 0 = dead)")
	r.Help("faust_blob_backend_errors_total", "failed blob operations per backend (after retries)")
}

// backendGauges resolves the per-backend metric handles, labeled
// "<shard>/<name>" when the fleet serves a named shard.
func backendGauges(shard, name string) (aliveness, up *obs.Gauge, errs *obs.Counter) {
	label := name
	if shard != "" {
		label = shard + "/" + name
	}
	r := obs.Default()
	return r.Gauge("faust_blob_backend_aliveness", "backend", label),
		r.Gauge("faust_blob_backend_alive", "backend", label),
		r.Counter("faust_blob_backend_errors_total", "backend", label)
}
