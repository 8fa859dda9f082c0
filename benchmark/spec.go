package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// schemaVersion tags every report this program writes.
const schemaVersion = 1

// Workload names. Later issues cite these; do not rename.
const (
	wlFaustMem  = "faust-mem"
	wlRegTCPWAL = "reg-tcp-wal"
	wlRegSatWAL = "reg-sat-wal"
	wlKVMix     = "kv-mix"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{wlFaustMem, "2 FAUST clients, memory net, volatile server: sign/verify, apply and dispatcher hand-off only; store, wire and kv idle, so changes there must not move it"},
	{wlRegTCPWAL, "2 clients on 2 TCP conns, group-commit WAL: every op pays its own frame codec, socket hop, batch-of-one dispatch and WAL flush; transport, wire, store carry it; traced run: open loop, fdatasync"},
	{wlRegSatWAL, "closed loop, 16 clients, memory net, verifier on, same WAL: batches, VerifyBatch and group commits form on two saturated cores; splits from reg-tcp-wal when batch and batch-of-one paths diverge"},
	{wlKVMix, "2 kv.Stores on in-memory blobs, 4096 keys x 1 KiB per namespace at 4x the cache budgets, Zipf 1.1: Merkle path rebuild, chunk hashing, blob traffic, cache hits and misses; register RPC constant"},
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is the gating list: every workload reports every one of these
// and none is ever zero. Bounds are filled in from BENCHMARK.json by
// -calibrate; the values here are the floor of the bound rule (3 x
// relative IQR, no lower than 0.10; see calibrate.go).
//
// write/read mean Write/Read on the register workloads and Put/GetFrom on
// kv-mix, so the KV layer keeps one latency per op type (no bimodal
// median) while every workload still reports the same names.
//
// Throughput is not here. Its runs spread least of the wall-clock metrics,
// so the rule gave it the tightest bound (0.15), and the first -selfcheck
// then found two sets of one commit 15.4 % apart on reg-sat-wal: the
// runner itself drifts by that much in twenty minutes. The issue's rule
// for a metric that cannot agree with itself is demotion (e2e.ops_per_s).
// On a closed loop with a fixed number of clients throughput is clients /
// mean latency, so the two latency gates carry it.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.10},
	{"write_p50_us", "us", lower, 0.10},
	{"read_p50_us", "us", lower, 0.10},
	{"allocs_per_op", "1/op", lower, 0.10},
	{"rss_peak_mb", "MiB", lower, 0.10},
}

// perLayer lists what the traced run prints, one row per metric. The
// e2e.* rows are end-to-end metrics that cannot gate: they do not exist
// (or are zero) on some workload, are discrete, are too noisy for a 0.25
// bound (every p99 is: 12-28 % inter-quartile spread over ten runs on the
// reference runner), or failed -selfcheck (ops_per_s). They are measured
// in the undecorated part of the traced run.
var perLayer = []metricDef{
	{"e2e.op_p50_us", "us", lower, 0},
	{"e2e.op_p90_us", "us", lower, 0},
	{"e2e.op_p99_us", "us", lower, 0},
	{"e2e.write_p99_us", "us", lower, 0},
	{"e2e.read_p99_us", "us", lower, 0},
	{"e2e.ops_per_s", "1/s", higher, 0},
	{"e2e.max_rate_ok", "1/s", higher, 0},
	{"e2e.stable_lag_p50_us", "us", lower, 0},
	{"e2e.fail_frac", "ratio", lower, 0},
	{"e2e.write_amp", "ratio", lower, 0},

	{"crypto.sign_us", "us", lower, 0},
	{"crypto.verify_us", "us", lower, 0},
	{"crypto.verify_batch_us_per_sig", "us", lower, 0},
	{"crypto.signs_per_op", "1/op", lower, 0},
	{"crypto.verifies_per_op", "1/op", lower, 0},
	{"crypto.hash_us_per_kib", "us", lower, 0},

	{"wire.encode_us", "us", lower, 0},
	{"wire.decode_us", "us", lower, 0},
	{"wire.bytes_per_op", "B/op", lower, 0},
	{"wire.reply_bytes.n16", "B", lower, 0},

	{"ustor.client_us", "us", lower, 0},
	{"ustor.apply_us", "us", lower, 0},
	{"ustor.commit_us", "us", lower, 0},
	{"ustor.msgs_per_op", "1/op", lower, 0},

	{"faustproto.dummy_reads_per_s", "1/s", lower, 0},
	{"faustproto.stable_lag_p99_us", "us", lower, 0},

	{"transport.rpc_p50_us", "us", lower, 0},
	{"transport.rpc_p99_us", "us", lower, 0},
	{"transport.wait_us", "us", lower, 0},
	{"transport.send_us", "us", lower, 0},
	{"transport.batch_size_mean", "count", higher, 0},
	{"transport.batch_size_p99", "count", higher, 0},
	{"transport.blob_rpc_us", "us", lower, 0},

	{"store.self_us", "us", lower, 0},
	{"store.append_us", "us", lower, 0},
	{"store.flush_p50_us", "us", lower, 0},
	{"store.flush_p99_us", "us", lower, 0},
	{"store.flush_wait_us", "us", lower, 0},
	{"store.flushes_per_op", "1/op", lower, 0},
	{"store.wal_bytes_per_op", "B/op", lower, 0},
	{"store.snapshot_ms", "ms", lower, 0},
	{"store.snapshots", "count", lower, 0},
	{"store.recover_ms_per_krec", "ms", lower, 0},
	{"store.blob_put_us", "us", lower, 0},
	{"store.blob_get_us", "us", lower, 0},

	{"kv.put.register_us", "us", lower, 0},
	{"kv.put.blob_us", "us", lower, 0},
	{"kv.put.self_us", "us", lower, 0},
	{"kv.getfrom.register_us", "us", lower, 0},
	{"kv.getfrom.blob_us", "us", lower, 0},
	{"kv.getfrom.self_us", "us", lower, 0},
	{"kv.blob_puts_per_put", "1/op", lower, 0},
	{"kv.blob_gets_per_getfrom", "1/op", lower, 0},
	{"kv.node_cache_hit_ratio", "ratio", higher, 0},
	{"kv.chunk_cache_hit_ratio", "ratio", higher, 0},
	{"kv.blob_bytes_per_user_byte", "ratio", lower, 0},
	{"kv.allocs_per_put", "1/op", lower, 0},
	{"kv.allocs_per_getfrom", "1/op", lower, 0},

	{"proc.cpu_us_per_op", "us", lower, 0},
	{"proc.alloc_bytes_per_op", "B/op", lower, 0},
	{"proc.gc_pause_ms", "ms", lower, 0},

	{"gen.sched_lag_p99_us", "us", lower, 0},
	{"gen.backlog_max", "count", lower, 0},
	{"gen.p50_us.r1", "us", lower, 0},
	{"gen.p99_us.r1", "us", lower, 0},
	{"gen.p50_us.r2", "us", lower, 0},
	{"gen.p99_us.r2", "us", lower, 0},
	{"gen.p50_us.r3", "us", lower, 0},
	{"gen.p99_us.r3", "us", lower, 0},
	{"gen.p50_us.r4", "us", lower, 0},
	{"gen.p99_us.r4", "us", lower, 0},
	{"gen.p50_us.r5", "us", lower, 0},
	{"gen.p99_us.r5", "us", lower, 0},

	{"bench.trace_overhead_pct", "%", lower, 0},
	{"bench.unattributed_pct", "%", lower, 0},
}

// calibration is what -calibrate freezes for the open-loop workload: the
// five offered rates (total over both clients, 2 significant figures) and
// the latency limit max_rate_ok is judged against.
type calibration struct {
	Schema         int       `json:"schema"`
	CapacityOpsPS  float64   `json:"capacity_ops_per_s"`
	Rates          []float64 `json:"rates_ops_per_s"`
	LimitUS        float64   `json:"limit_us"`
	CalibratedWith runMeta   `json:"calibrated_with"`
}

//go:embed calibration.json
var builtinCalibration []byte

func parseCalibration(data []byte) (calibration, error) {
	var c calibration
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("calibration.json: %w", err)
	}
	if len(c.Rates) != 5 || c.LimitUS <= 0 {
		return c, fmt.Errorf("calibration.json: want 5 rates and a positive limit, got %d rates, limit %v", len(c.Rates), c.LimitUS)
	}
	for i, r := range c.Rates {
		if r <= 0 || (i > 0 && r <= c.Rates[i-1]) {
			return c, fmt.Errorf("calibration.json: rates must be positive and ascending: %v", c.Rates)
		}
	}
	return c, nil
}

// benchmarkFile is BENCHMARK.json: exactly the keys the driver reads.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"` // bound 0, so the key is omitted
}

const runSeconds = 20

func defaultBenchmarkFile() benchmarkFile {
	bf := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   append([]metricDef(nil), endToEnd...),
		PerLayer:   perLayer,
	}
	return bf
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
