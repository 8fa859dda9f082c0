package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

const (
	calibrationFile  = "benchmark/calibration.json"
	calibrateSeconds = 10
	limitFactor      = 4 // limit_us = 4 x p99 at r1
	// The bound rule, as issue 11 fixed it: three times the relative
	// inter-quartile range of the calibration runs, no lower than 0.10. A
	// metric the rule gives more than 0.25 (the most the driver accepts)
	// cannot gate and is demoted to the per-layer list as e2e.<name>.
	boundSpreadMult = 3
	boundFloor      = 0.10
	boundCap        = 0.25
)

var rateShares = []float64{0.2, 0.4, 0.6, 0.8, 1.0}

// measureCalibration measures the closed-loop capacity of the reg-tcp-wal
// configuration and the p99 at the lowest rate, and derives the frozen
// rates and the latency limit from them.
func measureCalibration(o options) (calibration, error) {
	cfg := o.runConfig()
	cfg.workload = wlRegTCPWAL
	cfg.traced = true // the rate ladder runs in the traced run, whose WAL syncs
	e, clk, _, err := setUp(cfg, nil)
	if err != nil {
		return calibration{}, err
	}
	defer e.close()
	d := calibrateSeconds * time.Second
	closed := runClosed(clk, e, stopAfter(clk, d))
	if closed.firstErr != nil {
		return calibration{}, closed.firstErr
	}
	capacity := latencyStats(closed, calibrateSeconds).opsPerS
	cal := calibration{Schema: schemaVersion, CapacityOpsPS: capacity, CalibratedWith: collectMeta(o.seed, o.dataDir)}
	for _, s := range rateShares {
		cal.Rates = append(cal.Rates, round2(capacity*s))
	}
	low := runOpen(clk, e, openSchedules(o.seed, e.n, cal.Rates[0], d), d)
	if low.firstErr != nil {
		return calibration{}, low.firstErr
	}
	p99, n := latQuantile(low.samples, anyClass, 0.99)
	if !tailSupported(n, 0.99) {
		return calibration{}, fmt.Errorf("calibration: %d samples at r1 do not support a p99", n)
	}
	cal.LimitUS = round2(limitFactor * p99)
	fmt.Fprintf(os.Stderr, "calibrate: capacity %.0f ops/s, rates %v, p99 at r1 %.0f us, limit %.0f us\n",
		capacity, cal.Rates, p99, cal.LimitUS)
	return cal, nil
}

// boundFor applies the bound rule to one metric's spreads over the
// workloads (the worst workload decides, because a bound belongs to a
// metric). ok is false when the rule asks for more than the cap: the
// metric is too noisy to gate.
func boundFor(spreads []float64) (bound float64, ok bool) {
	worst := 0.0
	for _, s := range spreads {
		worst = math.Max(worst, s)
	}
	// Whole percent, rounded up; the inner rounding keeps 3 x 0.06 from
	// becoming 18.000000000000004 and then 19.
	pct := math.Ceil(math.Round(boundSpreadMult*worst*1e4) / 1e2)
	bound = math.Max(boundFloor, pct/100)
	if bound > boundCap {
		return boundCap, false
	}
	return bound, true
}

// calibrateMain freezes everything later runs are judged against: the
// open-loop rates and limit (calibration.json) and the regression bounds
// (BENCHMARK.json). Run it on the parent commit of a benchmark change,
// from the repository root.
func calibrateMain(o options) int {
	if o.runs == 0 {
		o.runs = setRuns
	}
	cal, err := measureCalibration(o)
	if err != nil {
		return harnessFailed(err)
	}
	if err := writeJSONFile(calibrationFile, cal); err != nil {
		return harnessFailed(err)
	}
	// The binary running now still embeds the old file; its sub-runs read
	// the new one from disk.
	o.calFile, _ = filepath.Abs(calibrationFile)
	rep, err := runSet(o, "calibrate")
	if err != nil {
		return harnessFailed(err)
	}
	if o.jsonOut != "" {
		if err := writeJSONFile(o.jsonOut, rep); err != nil {
			return harnessFailed(err)
		}
	}
	bf := defaultBenchmarkFile()
	demote := 0
	largest := 0.0
	for i := range bf.EndToEnd {
		name := bf.EndToEnd[i].Name
		var spreads []float64
		for _, w := range rep.Workloads {
			spreads = append(spreads, w.EndToEnd[name].RelIQR)
		}
		bound, ok := boundFor(spreads)
		fmt.Fprintf(os.Stderr, "calibrate: %-14s spreads %.3f -> bound %.2f\n", name, spreads, bound)
		switch {
		case ok:
		case name == "setup_s":
			fmt.Fprintf(os.Stderr, "calibrate: setup_s spreads wider than %.3f; the driver requires the metric, so it stays at the cap\n", boundCap/boundSpreadMult)
		default:
			fmt.Fprintf(os.Stderr, "calibrate: %s spreads wider than %.3f: demote it to the per-layer list as e2e.%s\n", name, boundCap/boundSpreadMult, name)
			demote++
		}
		bf.EndToEnd[i].Bound = bound
		largest = math.Max(largest, bound)
	}
	for i := range bf.EndToEnd {
		if bf.EndToEnd[i].Name == "setup_s" {
			bf.EndToEnd[i].Bound = largest // the driver asks that set-up carry the largest bound of the list
		}
	}
	if err := writeJSONFile(o.benchFile, bf); err != nil {
		return harnessFailed(err)
	}
	if !rep.allCorrect() {
		fmt.Fprintln(os.Stderr, "benchmark: correctness gate failed during calibration")
		return 1
	}
	if demote > 0 {
		return 1
	}
	return 0
}
