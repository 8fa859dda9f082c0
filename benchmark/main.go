// Command benchmark is the repository's one trusted benchmark: four
// workloads, client-visible metrics from an undecorated run, and per-layer
// attribution from a second run that wraps the layers' public interfaces
// with timing decorators. See README.md in this directory.
//
// The driver's protocol is one run per invocation:
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which prints one JSON object on the last line of standard output.
// Without --workload the program runs every workload, each in a fresh
// subprocess, and prints one report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       int
	dataDir     string
	outDir      string
	calFile     string
	quick       bool
	calibrate   bool
	selfcheck   bool
	compare     bool
	runs        int
	benchFile   string
	jsonOut     string
	calibration calibration
}

const (
	quickSeconds   = 2
	defaultDataDir = ".bench_build/data"
	defaultOutDir  = ".bench_build"
)

func parseFlags(args []string) (options, []string, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run this one workload and print the driver's result line; empty runs all four")
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run (default 20, or 2 with -quick)")
	fs.IntVar(&o.trace, "trace", 0, "0: undecorated run, end-to-end metrics; 1: decorated run, per-layer metrics")
	fs.StringVar(&o.dataDir, "data-dir", defaultDataDir, "directory WAL and blob directories are created under")
	fs.StringVar(&o.outDir, "out-dir", defaultOutDir, "directory trace-<workload>.json files are written to")
	fs.StringVar(&o.calFile, "calibration", "", "calibration file to use instead of the one built in")
	fs.BoolVar(&o.quick, "quick", false, "2 s per run and one set-up: smoke use only, numbers are not comparable")
	fs.BoolVar(&o.calibrate, "calibrate", false, "measure capacity and bounds on this commit and write calibration.json and BENCHMARK.json")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run two sets on this commit and fail if a gating metric disagrees beyond its bound")
	fs.BoolVar(&o.compare, "compare", false, "compare two reports: -compare a.json b.json")
	fs.IntVar(&o.runs, "runs", 0, "undecorated runs per workload in a set; 0 means 1 in all-workloads mode and 5 for -calibrate and -selfcheck")
	fs.StringVar(&o.benchFile, "benchmark-file", "BENCHMARK.json", "where -calibrate writes, and -compare/-selfcheck read, the bounds")
	fs.StringVar(&o.jsonOut, "o", "", "also write the report to this file")
	if err := fs.Parse(args); err != nil {
		return o, nil, err
	}
	if o.seconds == 0 {
		o.seconds = runSeconds
		if o.quick {
			o.seconds = quickSeconds
		}
	}
	if o.seconds < 0 || o.seconds > 600 {
		return o, nil, fmt.Errorf("-seconds %v out of range", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return o, nil, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.runs < 0 {
		return o, nil, fmt.Errorf("-runs must not be negative")
	}
	calData := builtinCalibration
	if o.calFile != "" {
		var err error
		if calData, err = os.ReadFile(o.calFile); err != nil {
			return o, nil, err
		}
	}
	var err error
	if o.calibration, err = parseCalibration(calData); err != nil {
		return o, nil, err
	}
	return o, fs.Args(), nil
}

func (o options) runConfig() runConfig {
	setups := 5
	if o.quick {
		setups = 1
	}
	return runConfig{
		workload: o.workload,
		seed:     o.seed,
		seconds:  o.seconds,
		traced:   o.trace == 1,
		dataRoot: o.dataDir,
		outDir:   o.outDir,
		setups:   setups,
		cal:      o.calibration,
	}
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

// harnessFailed reports a failure of the benchmark itself (exit 2), as
// opposed to a failed correctness gate or comparison (exit 1).
func harnessFailed(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func realMain(args []string) int {
	o, rest, err := parseFlags(args)
	if err != nil {
		return harnessFailed(err)
	}
	setProcs()
	for _, dir := range []string{o.dataDir, o.outDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return harnessFailed(err)
		}
	}
	switch {
	case o.compare:
		return compareMain(o, rest)
	case o.calibrate:
		return calibrateMain(o)
	case o.selfcheck:
		return selfcheckMain(o)
	case o.workload == "":
		return allMain(o)
	}
	return singleMain(o)
}

// singleMain is the driver's protocol: the detail line, then the result
// line, last.
func singleMain(o options) int {
	out, detail, err := runWorkload(o.runConfig())
	if err != nil {
		return harnessFailed(err)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(detail); err != nil {
		return harnessFailed(err)
	}
	if err := enc.Encode(out); err != nil {
		return harnessFailed(err)
	}
	if !out.Correct {
		fmt.Fprintln(os.Stderr, "benchmark: correctness gate failed:", detail.Failure)
		return 1
	}
	return 0
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
