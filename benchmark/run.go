package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"faust/internal/kv"
	"faust/internal/wire"
	"faust/internal/workload"
)

// runConfig is one invocation: one workload, one seed, traced or not.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	dataRoot string // data directories are created under it
	outDir   string // trace-<workload>.json is written here
	setups   int    // how many times set-up is repeated for its median
	cal      calibration
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is the last line a run prints: exactly these four keys.
type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runDetail is printed on the line before: what a reader needs to trust
// or question the numbers, which the driver does not parse.
type runDetail struct {
	Meta     runMeta            `json:"meta"`
	Workload string             `json:"workload"`
	Traced   bool               `json:"traced"`
	Seconds  float64            `json:"seconds"`
	Samples  map[string]int     `json:"samples"`
	Aux      map[string]float64 `json:"aux,omitempty"`
	Notes    []string           `json:"notes,omitempty"`
	Failure  string             `json:"failure,omitempty"`
}

func (d *runDetail) note(format string, args ...any) {
	d.Notes = append(d.Notes, fmt.Sprintf(format, args...))
}

const (
	samplesPerWindow = 2000
	// Shares of --seconds each phase of a run gets.
	tracedBaseShare  = 0.4  // traced run: the undecorated phase e2e.* come from
	tracedSpanShare  = 0.6  // traced run: the decorated phase
	ladderStepShare  = 0.09 // reg-tcp-wal, traced run: each of the five rate steps
	tcpTracedShare   = 0.45 // reg-tcp-wal, traced run: decorated open loop at r3
	allocTailOps     = 200  // kv-mix: single-goroutine ops per type for allocs_per_*
	latencyRateIndex = 2    // r3: the step latency is reported at
)

func share(seconds, s float64) time.Duration {
	return time.Duration(seconds * s * float64(time.Second))
}

// setUp builds the workload and warms it up with a fixed number of
// operations per client; the time it returns is the benchmark's set-up
// cost: key generation, server and WAL open, dial, prefill, warm-up. The
// traced run's WAL syncs to the device (see walOptions).
func setUp(cfg runConfig, kit *spyKit) (*env, *clock, time.Duration, error) {
	start := time.Now()
	impl := impls[cfg.workload]
	e, err := impl.build(cfg.seed, cfg.dataRoot, kit, cfg.traced)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("building %s: %w", cfg.workload, err)
	}
	clk := newClock()
	if kit != nil {
		clk = kit.tr.clk
	}
	warm := runClosed(clk, e, stopAtCount(impl.warmOps))
	if warm.firstErr != nil {
		e.close()
		return nil, nil, 0, fmt.Errorf("warming up %s: %w", cfg.workload, warm.firstErr)
	}
	return e, clk, time.Since(start), nil
}

// e2eStats are the client-visible numbers of one measured phase.
type e2eStats struct {
	writeP50, readP50, opP50 float64
	writeP99, readP99, opP99 float64
	opP90                    float64
	opsPerS                  float64
	nWrite, nRead, nOps      int
	windows                  int
}

func classQuantile(keep func(opClass) bool, q float64) func([]sample) (float64, bool) {
	return func(w []sample) (float64, bool) {
		v, n := latQuantile(w, keep, q)
		return v, n > 0
	}
}

// latencyStats reports each percentile as the median over equal windows
// of the phase (about samplesPerWindow operations each).
func latencyStats(r loadResult, seconds float64) e2eStats {
	maxWin := int(seconds)
	if maxWin < 1 {
		maxWin = 1
	}
	wins := windowed(r.samples, r.from, r.to, samplesPerWindow, maxWin)
	st := e2eStats{windows: len(wins), nOps: len(r.samples)}
	for _, s := range r.samples {
		switch s.class {
		case classWrite:
			st.nWrite++
		case classRead:
			st.nRead++
		}
	}
	st.writeP50 = windowMedian(wins, classQuantile(isClass(classWrite), 0.50))
	st.readP50 = windowMedian(wins, classQuantile(isClass(classRead), 0.50))
	st.opP50 = windowMedian(wins, classQuantile(timedClasses, 0.50))
	st.writeP99 = windowMedian(wins, classQuantile(isClass(classWrite), 0.99))
	st.readP99 = windowMedian(wins, classQuantile(isClass(classRead), 0.99))
	st.opP99 = windowMedian(wins, classQuantile(timedClasses, 0.99))
	st.opP90 = windowMedian(wins, classQuantile(timedClasses, 0.90))
	winSec := r.seconds() / float64(len(wins))
	st.opsPerS = windowMedian(wins, func(w []sample) (float64, bool) {
		return float64(len(w)) / winSec, winSec > 0
	})
	return st
}

func sumLoads(loads ...loadResult) loadResult {
	var out loadResult
	for _, l := range loads {
		out.attempted += l.attempted
		out.failed += l.failed
		out.skipped += l.skipped
		out.payloadBytes += l.payloadBytes
		if out.firstErr == nil {
			out.firstErr = l.firstErr
		}
	}
	return out
}

func (cfg runConfig) rate(i int) float64 { return cfg.cal.Rates[i] }

// runWorkload is one driver invocation. The error is for the harness
// itself breaking; a failed correctness check comes back in the output
// (correct=false) with the reason in the detail.
func runWorkload(cfg runConfig) (runOutput, runDetail, error) {
	if _, ok := impls[cfg.workload]; !ok {
		return runOutput{}, runDetail{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	detail := runDetail{
		Meta:     collectMeta(cfg.seed, cfg.dataRoot),
		Workload: cfg.workload,
		Traced:   cfg.traced,
		Seconds:  cfg.seconds,
		Samples:  map[string]int{},
	}
	if detail.Meta.DataDirFS == "tmpfs" && (cfg.workload == wlRegTCPWAL || cfg.workload == wlRegSatWAL) {
		detail.note("data dir is on tmpfs: fdatasync costs nothing there, so store.flush_* and this workload's latencies do not describe a disk")
	}
	var values map[string]float64
	var total loadResult
	var err error
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
		values, total, err = runTraced(cfg, &detail)
	} else {
		values, total, err = runUntraced(cfg, &detail)
	}
	if err != nil {
		var failedCheck checkError
		if !errors.As(err, &failedCheck) {
			return runOutput{}, detail, err
		}
		detail.Failure = err.Error()
	}
	out := runOutput{
		Correct:   err == nil,
		Attempted: total.attempted,
		Failed:    total.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out, detail, nil
}

// checkError marks a failed correctness check, as opposed to a harness
// failure.
type checkError struct{ error }

func (c checkError) Unwrap() error { return c.error }

// measureClosed runs the undecorated closed loop every gating number
// comes from and returns it with the process counters over it.
func measureClosed(e *env, clk *clock, stop stopper) (loadResult, procSnap) {
	before := snapProc()
	load := runClosed(clk, e, stop)
	return load, snapProc().sub(before)
}

func runUntraced(cfg runConfig, detail *runDetail) (map[string]float64, loadResult, error) {
	e, clk, took, err := setUp(cfg, nil)
	if err != nil {
		return nil, loadResult{}, err
	}
	defer e.close()
	setups := []float64{took.Seconds()}
	runtime.GC() // start every measured phase from a collected heap

	mark := &rssMark{at: impls[cfg.workload].rssOps}
	total, proc := measureClosed(e, clk, mark.before(stopAfter(clk, share(cfg.seconds, 1))))
	ls := latencyStats(total, cfg.seconds)
	ops := float64(len(total.samples))
	values := map[string]float64{
		"setup_s":       setups[0],
		"write_p50_us":  ls.writeP50,
		"read_p50_us":   ls.readP50,
		"allocs_per_op": ratio(float64(proc.mallocs), ops),
		"rss_peak_mb":   mark.mib,
	}
	if mark.mib == 0 {
		values["rss_peak_mb"] = rssPeakMiB()
		detail.note("rss_peak_mb is taken after %d operations and the run completed %d: it reads low", mark.at, len(total.samples))
	}
	detail.Samples["write_p50_us"] = ls.nWrite
	detail.Samples["read_p50_us"] = ls.nRead
	detail.Samples["allocs_per_op"] = ls.nOps
	detail.Samples["windows"] = ls.windows
	// Not gating, but printed with every run so throughput and a tail can
	// be followed without a traced run.
	detail.Aux = map[string]float64{"ops_per_s": ls.opsPerS, "op_p50_us": ls.opP50, "op_p90_us": ls.opP90, "op_p99_us": ls.opP99}

	if _, cerr := e.verify(total); cerr != nil {
		return values, total, checkError{cerr}
	}
	e.close()

	// The other set-ups, for the median, come after the measurement: the
	// measured phase and rss_peak_mb then see a process that has set up
	// once, as a server has, and not the garbage of four torn-down copies.
	for len(setups) < cfg.setups {
		again, _, took, err := setUp(cfg, nil)
		if err != nil {
			return nil, loadResult{}, err
		}
		again.close()
		setups = append(setups, took.Seconds())
	}
	values["setup_s"] = median(setups)
	detail.Samples["setup_s"] = len(setups)
	return values, total, nil
}

// runTraced is the --trace 1 run: an undecorated phase for the e2e.*
// rows and the overhead baseline, then the same workload rebuilt with the
// timing decorators for everything else.
func runTraced(cfg runConfig, detail *runDetail) (map[string]float64, loadResult, error) {
	values := map[string]float64{}

	// ---- undecorated phase ----
	e, clk, _, err := setUp(cfg, nil)
	if err != nil {
		return nil, loadResult{}, err
	}
	runtime.GC()
	var base e2eStats
	var baseLoad loadResult
	if cfg.workload == wlRegTCPWAL {
		base, baseLoad = runLadder(cfg, e, clk, values, detail)
	} else {
		baseLoad, _ = measureClosed(e, clk, stopAfter(clk, share(cfg.seconds, tracedBaseShare)))
		base = latencyStats(baseLoad, cfg.seconds*tracedBaseShare)
		values["e2e.ops_per_s"] = base.opsPerS // closed loops only: an open loop completes what it is offered
		values["e2e.fail_frac"] = ratio(float64(baseLoad.failed), float64(baseLoad.attempted))
	}
	values["e2e.op_p50_us"] = base.opP50
	values["e2e.op_p90_us"] = base.opP90
	values["e2e.op_p99_us"] = base.opP99
	values["e2e.write_p99_us"] = base.writeP99
	values["e2e.read_p99_us"] = base.readP99
	detail.Samples["e2e.op_p50_us"] = base.nWrite + base.nRead
	if base.windows > 0 && !tailSupported((base.nWrite+base.nRead)/base.windows, 0.99) {
		detail.note("e2e.*_p99_us rest on %d samples per window: too few for a p99, a lower percentile is reported under that name", (base.nWrite+base.nRead)/base.windows)
	}
	if e.lag != nil {
		lag := sortedCopy(e.lag.takeLags())
		values["e2e.stable_lag_p50_us"] = quantileSorted(lag, 0.50) / 1e3
		detail.Samples["e2e.stable_lag_p50_us"] = len(lag)
	}
	if e.kv != nil {
		puts, gets, err := kvAllocTail(e)
		if err != nil {
			e.close()
			return values, baseLoad, err
		}
		values["kv.allocs_per_put"], values["kv.allocs_per_getfrom"] = puts, gets
	}
	_, cerr := e.verify(baseLoad)
	e.close()
	if cerr != nil {
		return values, baseLoad, checkError{fmt.Errorf("undecorated phase: %w", cerr)}
	}

	// ---- decorated phase ----
	kit := newSpyKit()
	te, tclk, _, err := setUp(cfg, kit)
	if err != nil {
		return values, baseLoad, err
	}
	defer te.close()
	runtime.GC()
	phase := tracedPhase{e: te, before: te.snapCounters()}
	if te.lag != nil {
		te.lag.takeLags() // drop warm-up samples
	}
	procBefore := snapProc()
	if cfg.workload == wlRegTCPWAL {
		d := share(cfg.seconds, tcpTracedShare)
		phase.load = runOpen(tclk, te, openSchedules(cfg.seed+1, te.n, cfg.rate(latencyRateIndex), d), d)
	} else {
		phase.load = runClosed(tclk, te, stopAfter(tclk, share(cfg.seconds, tracedSpanShare)))
	}
	phase.proc = snapProc().sub(procBefore)
	phase.after = te.snapCounters()
	if te.lag != nil {
		phase.lagNs = te.lag.takeLags()
	}
	kit.cnt.mu.Lock()
	phase.batchSizes = append([]int(nil), kit.cnt.batchSizes[phase.before.batches:phase.after.batches]...)
	captured := append([]wire.Message(nil), kit.cnt.captured...)
	blobs := kit.cnt.blobs
	kit.cnt.mu.Unlock()

	total := sumLoads(baseLoad, phase.load)
	phase.reopen, cerr = te.verify(phase.load)
	phase.spans = kit.tr.collect(phase.load.from, phase.load.to)
	phase.replay = replay(captured, te.ring, te.signers)
	if phase.replay.blobPutUS, phase.replay.blobGetUS, err = replayFileBlobs(cfg.dataRoot, blobs); err != nil {
		return values, total, err
	}
	for k, v := range layerMetrics(phase) {
		values[k] = v
	}
	traced := latencyStats(phase.load, cfg.seconds)
	values["bench.trace_overhead_pct"] = 100 * ratio(traced.opP50-base.opP50, base.opP50)
	detail.Samples["traced_ops"] = len(phase.load.samples)
	detail.Samples["spans"] = countSpans(phase.spans)
	if v := values["bench.unattributed_pct"]; v > 10 {
		detail.note("bench.unattributed_pct = %.1f: more than a tenth of op latency lies in operations that lack one of the spans op, send, rpc, handler (and apply, append under a WAL): spans were lost, or one of those decorators is not installed", v)
	}
	tracePath := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
	if err := writeTraceFile(tracePath, phase.spans); err != nil {
		return values, total, err
	}
	detail.note("spans written to %s", tracePath)
	if cerr != nil {
		return values, total, checkError{fmt.Errorf("decorated phase: %w", cerr)}
	}
	return values, total, nil
}

func countSpans(byKind [numSpanKinds][]span) int {
	n := 0
	for _, s := range byKind {
		n += len(s)
	}
	return n
}

// runLadder offers the five calibrated rates in ascending order, fills in
// the gen.* rows, max_rate_ok and fail_frac, and returns the r3 step as
// the phase the e2e.* latencies and the tracing overhead are taken from.
func runLadder(cfg runConfig, e *env, clk *clock, values map[string]float64, detail *runDetail) (e2eStats, loadResult) {
	d := share(cfg.seconds, ladderStepShare)
	var steps []stepVerdict
	var loads []loadResult
	var lagNs []float64
	backlogMax := 0
	for i, rate := range cfg.cal.Rates {
		r := runOpen(clk, e, openSchedules(cfg.seed+int64(100*(i+1)), e.n, rate, d), d)
		v := judgeStep(rate, r, d)
		steps = append(steps, v)
		loads = append(loads, r)
		lagNs = append(lagNs, r.schedLagNs...)
		for _, p := range r.backlog {
			if p.depth > backlogMax {
				backlogMax = p.depth
			}
		}
		values[fmt.Sprintf("gen.p50_us.r%d", i+1)] = v.p50
		values[fmt.Sprintf("gen.p99_us.r%d", i+1)] = v.ptail
		detail.Samples[fmt.Sprintf("gen.p99_us.r%d", i+1)] = v.n
		if v.tailQ < 0.99 {
			detail.note("r%d (%.0f ops/s): %d samples support p%.0f, reported under the p99 name", i+1, rate, v.n, 100*v.tailQ)
		}
		if r.firstErr != nil {
			break // a halted client fails every later step too
		}
	}
	lag := sortedCopy(lagNs)
	values["gen.sched_lag_p99_us"] = quantileSorted(lag, pickTail(len(lag), 0.99)) / 1e3
	values["gen.backlog_max"] = float64(backlogMax)
	values["e2e.max_rate_ok"] = maxRateOK(steps, cfg.cal.LimitUS)
	detail.note("limit_us = %.0f; max_rate_ok = %.0f of rates %v", cfg.cal.LimitUS, values["e2e.max_rate_ok"], cfg.cal.Rates)
	total := sumLoads(loads...)
	if len(loads) <= latencyRateIndex {
		return e2eStats{}, total
	}
	r3 := loads[latencyRateIndex]
	values["e2e.fail_frac"] = limitMissFrac(r3, cfg.cal.LimitUS)
	return latencyStats(r3, d.Seconds()), total
}

// kvAllocTail counts heap allocations per Put and per GetFrom with a
// single goroutine and everything else idle, so the count belongs to the
// operation and not to a neighbour.
func kvAllocTail(e *env) (perPut, perGetFrom float64, err error) {
	st := e.kv.stores[0]
	cfg := kvConfig
	cfg.Seed = e.seed + 7
	stream := workload.NewKV(e.n, cfg).Stream(0)
	ctx := context.Background()
	model := e.kv.models[0]
	var puts []workload.KVOp
	for len(puts) < allocTailOps {
		puts = append(puts, stream.NextPut())
	}
	runtime.GC()
	before := snapProc()
	for _, op := range puts {
		idx := model.begin(op.Key, op.Value, false)
		if err := st.Put(ctx, op.Key, op.Value); err != nil {
			return 0, 0, fmt.Errorf("alloc tail put: %w", err)
		}
		model.ack(op.Key, idx)
	}
	mid := snapProc()
	for _, op := range puts {
		if _, err := st.GetFrom(ctx, 1, op.Key); err != nil && !isNotFound(err) {
			return 0, 0, fmt.Errorf("alloc tail getfrom: %w", err)
		}
	}
	after := snapProc()
	return float64(mid.sub(before).mallocs) / allocTailOps, float64(after.sub(mid).mallocs) / allocTailOps, nil
}

func isNotFound(err error) bool { return errors.Is(err, kv.ErrNotFound) }
