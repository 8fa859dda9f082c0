package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"faust/internal/crypto"
	"faust/internal/store"
	"faust/internal/transport"
	"faust/internal/ustor"
	"faust/internal/wire"
	"faust/internal/workload"
)

// TestMain lets a test run the benchmark the way the driver does, one run
// per process: with BENCHMARK_TEST_CHILD set, the test binary is the
// benchmark.
func TestMain(m *testing.M) {
	if os.Getenv("BENCHMARK_TEST_CHILD") != "" {
		os.Exit(realMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// TestPeakRSSDoesNotCountOperations: kv-mix never frees a blob, so peak
// memory at the end of a run grows with the number of operations in it,
// and a lower-is-better gate on that would punish a faster put. Read at a
// fixed operation count, a short run and a run three times as long must
// agree within the metric's bound.
func TestPeakRSSDoesNotCountOperations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs kv-mix for 16 s in subprocesses")
	}
	t.Setenv("BENCHMARK_TEST_CHILD", "1")
	dir := t.TempDir()
	var rss []float64
	for _, seconds := range []float64{4, 12} {
		o := options{seconds: seconds, dataDir: dir, outDir: dir}
		out, detail, err := runSubprocess(o, wlKVMix, 3, 0)
		if err != nil || !out.Correct {
			t.Fatalf("%v s: %v %s", seconds, err, detail.Failure)
		}
		if ops := detail.Samples["allocs_per_op"]; int64(ops) < impls[wlKVMix].rssOps {
			t.Skipf("this machine completes %d operations in %v s, fewer than the %d rss_peak_mb is read after", ops, seconds, impls[wlKVMix].rssOps)
		}
		rss = append(rss, out.Metrics["rss_peak_mb"].Value)
	}
	t.Logf("rss_peak_mb after 4 s: %.1f MiB, after 12 s: %.1f MiB", rss[0], rss[1])
	bound, _ := findMetric(loadBounds(filepath.Join("..", "BENCHMARK.json")), "rss_peak_mb")
	if diff := (rss[1] - rss[0]) / rss[0]; diff > bound.Bound || diff < -bound.Bound {
		t.Errorf("rss_peak_mb %.1f MiB after 4 s and %.1f MiB after 12 s: differs by %.0f %%, bound %.0f %%", rss[0], rss[1], 100*diff, 100*bound.Bound)
	}
}

func testConfig(t *testing.T, wl string, traced bool) runConfig {
	t.Helper()
	cal, err := parseCalibration(builtinCalibration)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	return runConfig{workload: wl, seed: 3, seconds: 0.6, traced: traced, dataRoot: dir, outDir: dir, setups: 1, cal: cal}
}

// TestRunnerEndToEnd drives every workload through both kinds of run, as
// the driver does, for a fraction of a second each: every metric must be
// present by name, end-to-end ones must never be zero, and the
// correctness gate must pass.
func TestRunnerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	setProcs()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := testConfig(t, w.Name, traced)
			out, detail, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %s", w.Name, traced, out.Correct, out.Attempted, out.Failed, detail.Failure)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := out.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q, want %q", w.Name, traced, d.Name, v.Unit, d.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be zero", w.Name, d.Name, v.Value)
				}
			}
			if detail.Meta.Schema != schemaVersion || detail.Meta.GoVersion == "" || detail.Meta.GOMAXPROCS < 1 || detail.Meta.Seed != cfg.seed {
				t.Errorf("%s: incomplete run metadata: %+v", w.Name, detail.Meta)
			}
			if !traced {
				continue
			}
			if v := out.Metrics["bench.unattributed_pct"].Value; v > 10 {
				t.Errorf("%s: bench.unattributed_pct = %.1f", w.Name, v)
			}
			data, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf struct {
				TraceEvents []traceEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &tf); err != nil || len(tf.TraceEvents) == 0 {
				t.Errorf("%s: trace file unreadable or empty: %v", w.Name, err)
			}
			layerChecks(t, w.Name, out.Metrics)
		}
	}
}

// layerChecks asserts that the workloads separate the layers the way the
// benchmark's design says they do.
func layerChecks(t *testing.T, wl string, m map[string]metricValue) {
	t.Helper()
	zero := func(names ...string) {
		for _, n := range names {
			if m[n].Value != 0 {
				t.Errorf("%s: %s = %v, want 0: that layer is idle on this workload", wl, n, m[n].Value)
			}
		}
	}
	positive := func(names ...string) {
		for _, n := range names {
			if m[n].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", wl, n, m[n].Value)
			}
		}
	}
	positive("ustor.client_us", "transport.rpc_p50_us", "crypto.sign_us", "crypto.signs_per_op", "ustor.msgs_per_op")
	switch wl {
	case wlFaustMem:
		positive("e2e.ops_per_s")
		zero("store.append_us", "store.flushes_per_op", "store.wal_bytes_per_op", "store.snapshots",
			"kv.put.register_us", "kv.blob_puts_per_put", "wire.encode_us", "wire.decode_us", "e2e.write_amp")
		positive("e2e.stable_lag_p50_us")
	case wlRegTCPWAL:
		positive("wire.encode_us", "wire.decode_us", "store.wal_bytes_per_op", "gen.p50_us.r1", "gen.p50_us.r5", "e2e.write_amp",
			"ustor.apply_us", "store.append_us", "store.flush_wait_us", "store.flush_p50_us")
		if v := m["store.flushes_per_op"].Value; v < 0.8 || v > 1.1 {
			t.Errorf("%s: store.flushes_per_op = %.2f, want about 1", wl, v)
		}
		if v := m["transport.batch_size_mean"].Value; v < 1 || v > 1.3 {
			t.Errorf("%s: transport.batch_size_mean = %.2f, want about 1", wl, v)
		}
	case wlRegSatWAL:
		zero("wire.encode_us", "wire.decode_us", "kv.put.register_us")
		positive("e2e.ops_per_s")
		positive("wire.reply_bytes.n16", "store.wal_bytes_per_op",
			"ustor.apply_us", "store.append_us", "store.flush_wait_us", "store.flush_p50_us", "store.flushes_per_op")
		if v := m["store.flushes_per_op"].Value; v >= 0.9 {
			t.Errorf("%s: store.flushes_per_op = %.2f: group commits are not forming", wl, v)
		}
		if v := m["transport.batch_size_mean"].Value; v <= 1 {
			t.Errorf("%s: transport.batch_size_mean = %.2f: batches are not forming", wl, v)
		}
	case wlKVMix:
		zero("store.append_us", "store.flushes_per_op", "wire.encode_us")
		positive("e2e.ops_per_s")
		positive("kv.put.register_us", "kv.put.self_us", "kv.getfrom.register_us", "kv.blob_puts_per_put",
			"kv.allocs_per_put", "kv.allocs_per_getfrom", "kv.chunk_cache_hit_ratio", "kv.node_cache_hit_ratio",
			"kv.put.blob_us", "kv.blob_gets_per_getfrom", "store.blob_put_us", "store.blob_get_us")
		for _, n := range []string{"kv.chunk_cache_hit_ratio", "kv.node_cache_hit_ratio"} {
			if v := m[n].Value; v <= 0.02 || v >= 0.98 {
				t.Errorf("%s: %s = %.2f: the workload should produce both hits and misses", wl, n, v)
			}
		}
	}
}

// TestGateCatchesTruncatedWAL: drop one record from the WAL between close
// and reopen and the recovered state must no longer match.
func TestGateCatchesTruncatedWAL(t *testing.T) {
	setProcs()
	e, err := buildRegSatWAL(5, t.TempDir(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	clk := newClock()
	load := runClosed(clk, e, stopAtCount(20))
	if load.firstErr != nil {
		t.Fatal(load.firstErr)
	}
	e.stop()
	state, err := e.wal.freeze()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.wal.recoverMatches(state); err != nil {
		t.Fatalf("untouched WAL must recover to the pre-close state: %v", err)
	}
	kept, err := store.RollbackWAL(e.wal.dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("WAL truncated to %d records", kept)
	if _, err := e.wal.recoverMatches(state); err == nil {
		t.Error("a WAL missing its last record recovered to the pre-close state: the gate is blind")
	} else if !strings.Contains(err.Error(), "differs") {
		t.Errorf("unexpected failure: %v", err)
	}
}

// TestGateCatchesFlippedBlob: flip one byte of a stored chunk and the
// read that needs it must fail the run.
func TestGateCatchesFlippedBlob(t *testing.T) {
	setProcs()
	e, err := buildKVMix(5, "", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	w := e.workers[0].(*kvWorker)
	const key = kvKeys - 7 // deep in the Zipf tail: not yet in anyone's cache
	if err := w.checkedGet(context.Background(), 1, workload.KeyName(key)); err != nil {
		t.Fatalf("honest read: %v", err)
	}
	const victim = kvKeys - 8
	chunk := prefillValue(1, victim)
	hash := crypto.Hash(chunk)
	chunk[100] ^= 1
	if err := e.kv.mem.PutBlob(hash, chunk); err != nil {
		t.Fatal(err)
	}
	getErr := w.checkedGet(context.Background(), 1, workload.KeyName(victim))
	if getErr == nil {
		t.Fatal("a read over a flipped chunk returned a value")
	}
	if _, err := e.verify(loadResult{attempted: 1, failed: 1, firstErr: getErr}); err == nil {
		t.Error("the gate passed a run with a failed read")
	}
}

// TestGateCatchesWrongValue: a store that answers with a value nobody
// wrote must be reported by the model even though no call failed.
func TestGateCatchesWrongValue(t *testing.T) {
	m := newKVModel()
	m.ack("k", m.begin("k", []byte("v1"), false))
	floor := m.pin("k") // a read that stays in flight to the end
	if !m.admits("k", floor, []byte("v1"), true) {
		t.Error("the acknowledged value must be admitted")
	}
	if m.admits("k", floor, []byte("v0"), true) {
		t.Error("a value never written was admitted")
	}
	if m.admits("k", floor, nil, false) {
		t.Error("not-found was admitted for a key that was written and never deleted")
	}
	second := m.begin("k", []byte("v2"), false) // in flight
	if !m.admits("k", floor, []byte("v2"), true) || !m.admits("k", floor, []byte("v1"), true) {
		t.Error("while a put is in flight both the old and the new value are valid")
	}
	m.ack("k", second)
	late := m.pin("k")
	if m.admits("k", late, []byte("v1"), true) {
		t.Error("a read that began after v2 was acknowledged must not return v1")
	}
	m.unpin("k", late)
	if !m.admits("k", floor, []byte("v1"), true) {
		t.Error("a read that began before v2 was acknowledged may still return v1")
	}
	del := m.begin("k", nil, true)
	m.ack("k", del)
	late = m.pin("k")
	if !m.admits("k", late, nil, false) || m.admits("k", late, []byte("v2"), true) {
		t.Error("after an acknowledged delete only not-found is valid")
	}
	m.unpin("k", late)
	if got := len(m.muts["k"]); got != 3 {
		t.Errorf("%d mutations kept while the first read is in flight, want all 3", got)
	}
	m.unpin("k", floor)
	if got := len(m.muts["k"]); got != 1 || len(m.pins) != 0 {
		t.Errorf("%d mutations and %d pinned keys kept with no read in flight, want the acknowledged delete alone", got, len(m.pins))
	}
}

// stallLink delays one Send by a fixed time: a server hiccup.
type stallLink struct {
	transport.Link
	at    int64 // stall the at-th SUBMIT
	d     time.Duration
	sends atomic.Int64
}

func (l *stallLink) Send(m wire.Message) error {
	if _, ok := m.(*wire.Submit); ok && l.sends.Add(1) == l.at {
		time.Sleep(l.d)
	}
	return l.Link.Send(m)
}

// TestOpenLoopChargesAStallToEveryDelayedOp is the coordinated-omission
// regression test. One 100 ms stall at 350 ops/s delays about thirty-five
// operations. Timed from when each was due, that is 3 % of the run's
// operations and it must show in the p99; timed from when the client got
// round to them (what a closed loop does) it is one slow operation in a
// thousand and the p99 would not move. The generator itself must not be
// blamed: it woke the client on time whenever the client was idle.
func TestOpenLoopChargesAStallToEveryDelayedOp(t *testing.T) {
	setProcs()
	const stall = 100 * time.Millisecond
	ring, signers := crypto.NewTestKeyring(1, 9)
	nw := transport.NewNetwork(1, ustor.NewServer(1))
	defer nw.Stop()
	link := &stallLink{Link: nw.ClientLink(0), at: 200, d: stall}
	e := &env{wl: "stall", n: 1, seed: 9}
	e.addRegWorkers([]regClient{ustorClient{ustor.NewClient(0, ring, signers[0], link)}}, 64)
	e.histLeft.Store(0)
	clk := newClock()
	d := 3 * time.Second
	r := runOpen(clk, e, openSchedules(9, 1, 350, d), d)
	if r.firstErr != nil {
		t.Fatal(r.firstErr)
	}
	p99, n := latQuantile(r.samples, anyClass, 0.99)
	if n < 1000 || r.skipped > 0 {
		t.Fatalf("only %d operations completed, %d never started", n, r.skipped)
	}
	if p99 < 20_000 {
		t.Errorf("open-loop p99 = %.0f us: a 100 ms stall was not charged to the operations it delayed", p99)
	}
	p50, _ := latQuantile(r.samples, anyClass, 0.50)
	if p50 > 5_000 {
		t.Errorf("open-loop p50 = %.0f us: the stall should not reach the median", p50)
	}
	lag := sortedCopy(r.schedLagNs)
	if len(lag) == 0 {
		t.Fatal("no scheduling-lag samples")
	}
	if lagP99 := quantileSorted(lag, 0.99) / 1e3; lagP99 > 5_000 {
		t.Errorf("gen.sched_lag p99 = %.0f us: the generator is blamed for the server's stall", lagP99)
	}
	maxDepth := 0
	for _, p := range r.backlog {
		if p.depth > maxDepth {
			maxDepth = p.depth
		}
	}
	if maxDepth < 15 {
		t.Errorf("backlog peaked at %d: about thirty-five operations fell due during the stall", maxDepth)
	}
	// The same operations timed the closed-loop way: from actual start.
	service := make([]float64, 0, len(r.samples))
	prevEnd := int64(0)
	for _, s := range r.samples {
		start := s.end - s.latNs // due time
		if prevEnd > start {
			start = prevEnd
		}
		service = append(service, float64(s.end-start)/1e3)
		prevEnd = s.end
	}
	sort.Float64s(service)
	if got := quantileSorted(service, 0.99); got > 10_000 {
		t.Errorf("service-time p99 = %.0f us: expected the stall to hide in it, which is why it is not what we report", got)
	}
}

func TestBenchmarkFileMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(raw))
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	want := defaultBenchmarkFile()
	if len(bf.Workloads) != len(want.Workloads) || len(bf.EndToEnd) != len(want.EndToEnd) || len(bf.PerLayer) != len(want.PerLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d and %d",
			len(bf.Workloads), len(bf.EndToEnd), len(bf.PerLayer), len(want.Workloads), len(want.EndToEnd), len(want.PerLayer))
	}
	for i := range want.Workloads {
		if bf.Workloads[i] != want.Workloads[i] {
			t.Errorf("workload %d: %+v, program has %+v", i, bf.Workloads[i], want.Workloads[i])
		}
	}
	sawSetup := false
	for i, d := range want.EndToEnd {
		got := bf.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("end_to_end %d: %+v, program has %+v", i, got, d)
		}
		if got.Bound <= 0 || got.Bound > boundCap {
			t.Errorf("%s: bound %v outside (0, %v]", got.Name, got.Bound, boundCap)
		}
		if got.Name == "setup_s" && got.Unit == "s" && got.Better == lower {
			sawSetup = true
		}
	}
	if !sawSetup {
		t.Error("end_to_end must contain setup_s in s, lower is better")
	}
	for i, d := range want.PerLayer {
		if bf.PerLayer[i] != d {
			t.Errorf("per_layer %d: %+v, program has %+v", i, bf.PerLayer[i], d)
		}
	}
	if bf.RunSeconds != runSeconds || len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d paths %v", bf.RunSeconds, bf.Paths)
	}
}

// TestSpecFitsTheDriversLimits checks the tables against the limits
// BENCHMARK.json is refused for.
func TestSpecFitsTheDriversLimits(t *testing.T) {
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer", len(workloads), len(endToEnd), len(perLayer))
	}
	okName := func(s string) bool {
		if s == "" || len(s) > 64 || !(s[0] >= 'a' && s[0] <= 'z' || s[0] >= 'A' && s[0] <= 'Z' || s[0] >= '0' && s[0] <= '9') {
			return false
		}
		return strings.Trim(s, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-") == ""
	}
	okUnit := func(s string) bool {
		return s != "" && len(s) <= 16 && strings.Trim(s, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-") == ""
	}
	seen := map[string]bool{}
	for _, w := range workloads {
		if !okName(w.Name) || seen[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad or repeated name, or a why of %d characters", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !okName(d.Name) || seen[d.Name] || !okUnit(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("metric %+v: bad or repeated name, unit or direction", d)
		}
		seen[d.Name] = true
	}
}

// TestHistoryKeepsWritesConcurrentWithItsLastReads: the checked history is
// a prefix of the run, and a read at its end may return a value whose
// write was invoked after the prefix filled up. Such writes must be
// recorded too, and nothing else must be, or recording never stops.
func TestHistoryKeepsWritesConcurrentWithItsLastReads(t *testing.T) {
	e := &env{n: 2}
	e.addRegWorkers([]regClient{nil, nil}, 64)
	e.histLeft.Store(1)
	read := workload.Op{Client: 0, Reg: 1}
	write := workload.Op{Client: 1, IsWrite: true, Reg: 1, Value: []byte("c1-1|")}

	lastRead, counted := e.record(0, read) // takes the last slot
	if lastRead == nil || !counted {
		t.Fatal("the last slot was not given out")
	}
	late, lateCounted := e.record(1, write) // no slot, but the read is in flight
	if late == nil || lateCounted {
		t.Fatal("a write invoked while a recorded read is in flight must be recorded, without a slot")
	}
	if p, _ := e.record(0, read); p != nil {
		t.Error("a read invoked after the slots ran out must not be recorded")
	}
	e.recorded(late, lateCounted, nil, 1)
	e.recorded(lastRead, counted, []byte("c1-1|"), 2)
	if p, _ := e.record(1, write); p != nil {
		t.Error("once every slot holder has returned, later writes must not be recorded")
	}
	if err := e.checkLinearizable(); err != nil {
		t.Errorf("read of a concurrently written value: %v", err)
	}
	if got := len(e.hist.History().Ops); got != 2 {
		t.Errorf("%d operations recorded, want 2", got)
	}
}
