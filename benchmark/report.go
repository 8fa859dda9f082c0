package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// report is what the all-workloads mode, -selfcheck and -calibrate write:
// every metric by name and unit for each workload, over a set of runs.
type report struct {
	Meta    runMeta `json:"meta"`
	Quick   bool    `json:"quick"`
	Seconds float64 `json:"seconds"`
	Runs    int     `json:"runs"`
	// Claim is always null: the change that defines the benchmark claims
	// no gain, and a later change states its claim in its issue, not here.
	Claim     any              `json:"claim"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name     string                   `json:"name"`
	Correct  bool                     `json:"correct"`
	EndToEnd map[string]metricSummary `json:"end_to_end"`
	PerLayer map[string]metricSummary `json:"per_layer"`
	Samples  map[string]int           `json:"samples"`
	Notes    []string                 `json:"notes,omitempty"`
}

type metricSummary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	RelIQR float64   `json:"rel_iqr"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) metricSummary {
	return metricSummary{Unit: unit, Median: median(values), RelIQR: relIQR(values), Values: values}
}

func (r report) workload(name string) (workloadReport, bool) {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadReport{}, false
}

// runSubprocess runs one workload once in a fresh process, so that peak
// RSS, heap state and scheduler history belong to that run alone.
func runSubprocess(o options, wl string, seed int64, trace int) (runOutput, runDetail, error) {
	self, err := os.Executable()
	if err != nil {
		return runOutput{}, runDetail{}, err
	}
	args := []string{
		"-workload", wl,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
		"-data-dir", o.dataDir,
		"-out-dir", o.outDir,
	}
	if o.quick {
		args = append(args, "-quick")
	}
	if o.calFile != "" {
		args = append(args, "-calibration", o.calFile)
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if len(lines) < 2 {
		return runOutput{}, runDetail{}, fmt.Errorf("%s trace=%d: no result (%v)", wl, trace, runErr)
	}
	var out runOutput
	var detail runDetail
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return out, detail, fmt.Errorf("%s trace=%d: result line: %w", wl, trace, err)
	}
	if err := json.Unmarshal(lines[len(lines)-2], &detail); err != nil {
		return out, detail, fmt.Errorf("%s trace=%d: detail line: %w", wl, trace, err)
	}
	return out, detail, nil
}

// setRuns is how many undecorated runs per workload -calibrate and
// -selfcheck make unless -runs says otherwise.
const setRuns = 5

// runSet runs every workload o.runs times undecorated (seeds seed,
// seed+1, ...) and once decorated.
func runSet(o options, label string) (report, error) {
	rep := report{Quick: o.quick, Seconds: o.seconds, Runs: o.runs}
	for _, w := range workloads {
		wr := workloadReport{Name: w.Name, Correct: true,
			EndToEnd: map[string]metricSummary{}, PerLayer: map[string]metricSummary{}, Samples: map[string]int{}}
		e2e := map[string][]float64{}
		for i := 0; i < o.runs; i++ {
			start := time.Now()
			out, detail, err := runSubprocess(o, w.Name, o.seed+int64(i), 0)
			if err != nil {
				return rep, err
			}
			rep.Meta = detail.Meta
			rep.Meta.Seed = o.seed
			for name, v := range out.Metrics {
				e2e[name] = append(e2e[name], v.Value)
			}
			wr.absorb(out, detail)
			fmt.Fprintf(os.Stderr, "%s %s run %d/%d: %.1fs correct=%v\n", label, w.Name, i+1, o.runs, time.Since(start).Seconds(), out.Correct)
		}
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = summarize(d.Unit, e2e[d.Name])
		}
		out, detail, err := runSubprocess(o, w.Name, o.seed, 1)
		if err != nil {
			return rep, err
		}
		wr.absorb(out, detail)
		for _, d := range perLayer {
			wr.PerLayer[d.Name] = summarize(d.Unit, []float64{out.Metrics[d.Name].Value})
		}
		fmt.Fprintf(os.Stderr, "%s %s traced run: correct=%v\n", label, w.Name, out.Correct)
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

// absorb folds one run's verdict, sample counts and notes into the
// workload's report.
func (wr *workloadReport) absorb(out runOutput, detail runDetail) {
	wr.Correct = wr.Correct && out.Correct
	for k, n := range detail.Samples {
		wr.Samples[k] = n
	}
	wr.Notes = appendNew(wr.Notes, detail.Notes...)
	if detail.Failure != "" {
		wr.Notes = appendNew(wr.Notes, "FAILED: "+detail.Failure)
	}
}

func appendNew(list []string, items ...string) []string {
next:
	for _, it := range items {
		for _, have := range list {
			if have == it {
				continue next
			}
		}
		list = append(list, it)
	}
	return list
}

func (r report) allCorrect() bool {
	for _, w := range r.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

func emitReport(o options, rep report) int {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return harnessFailed(err)
	}
	fmt.Println(string(data))
	if o.jsonOut != "" {
		if err := writeJSONFile(o.jsonOut, rep); err != nil {
			return harnessFailed(err)
		}
	}
	if !rep.allCorrect() {
		fmt.Fprintln(os.Stderr, "benchmark: correctness gate failed on at least one workload")
		return 1
	}
	return 0
}

// allMain runs the four workloads, each run in a fresh subprocess, and
// prints one report. In this mode one run per workload is the default
// (-runs raises it); the driver's many-run protocol uses --workload.
func allMain(o options) int {
	if o.runs == 0 {
		o.runs = 1
	}
	rep, err := runSet(o, "run")
	if err != nil {
		return harnessFailed(err)
	}
	return emitReport(o, rep)
}

// ---- compare ----

type verdict string

const (
	verdictBetter     verdict = "better"
	verdictWithin     verdict = "within bound"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// judge compares medians a (before) and b (after) of one metric. worse is
// the change in the bad direction as a share of a. A pair whose own
// run-to-run spread is wider than the bound cannot resolve a change of
// the bound's size and is reported as unresolved, not as unchanged.
func judge(def metricDef, a, b metricSummary) (verdict, float64) {
	if a.Median == 0 {
		return verdictUnresolved, 0
	}
	worse := (b.Median - a.Median) / math.Abs(a.Median)
	if def.Better == higher {
		worse = -worse
	}
	spread := math.Max(a.RelIQR, b.RelIQR)
	switch {
	case len(a.Values) > 1 && spread > def.Bound:
		return verdictUnresolved, worse
	case worse > def.Bound:
		return verdictWorse, worse
	case worse < -def.Bound:
		return verdictBetter, worse
	}
	return verdictWithin, worse
}

func loadBounds(path string) []metricDef {
	defs := append([]metricDef(nil), endToEnd...)
	data, err := os.ReadFile(path)
	if err != nil {
		return defs
	}
	var bf benchmarkFile
	if json.Unmarshal(data, &bf) != nil {
		return defs
	}
	for i := range defs {
		if d, ok := findMetric(bf.EndToEnd, defs[i].Name); ok && d.Bound > 0 {
			defs[i].Bound = d.Bound
		}
	}
	return defs
}

// compareReports prints one row per metric x workload and returns how
// many are worse and how many unresolved.
func compareReports(defs []metricDef, a, b report) (worse, unresolved int) {
	fmt.Printf("%-12s %-14s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "spread", "verdict")
	for _, w := range workloads {
		wa, okA := a.workload(w.Name)
		wb, okB := b.workload(w.Name)
		if !okA || !okB {
			continue
		}
		for _, d := range defs {
			v, change := judge(d, wa.EndToEnd[d.Name], wb.EndToEnd[d.Name])
			spread := math.Max(wa.EndToEnd[d.Name].RelIQR, wb.EndToEnd[d.Name].RelIQR)
			fmt.Printf("%-12s %-14s %12.4g %12.4g %+7.1f%% %6.0f%% %6.1f%%  %s\n", w.Name, d.Name,
				wa.EndToEnd[d.Name].Median, wb.EndToEnd[d.Name].Median, 100*change, 100*d.Bound, 100*spread, v)
			switch v {
			case verdictWorse:
				worse++
			case verdictUnresolved:
				unresolved++
			}
		}
	}
	return worse, unresolved
}

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Meta.Schema != schemaVersion {
		return r, fmt.Errorf("%s: schema %d, this program reads schema %d", path, r.Meta.Schema, schemaVersion)
	}
	return r, nil
}

func compareMain(o options, files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare needs two report files")
		return 2
	}
	a, err := readReport(files[0])
	if err != nil {
		return harnessFailed(err)
	}
	b, err := readReport(files[1])
	if err != nil {
		return harnessFailed(err)
	}
	worse, unresolved := compareReports(loadBounds(o.benchFile), a, b)
	fmt.Printf("%d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return 1
	}
	return 0
}

// selfcheckMain measures the same code twice. Two sets of one commit must
// agree within the bounds; if they do not, the bound is too tight for this
// machine or the metric is too noisy to gate.
func selfcheckMain(o options) int {
	if o.runs == 0 {
		o.runs = setRuns
	}
	a, err := runSet(o, "set A")
	if err != nil {
		return harnessFailed(err)
	}
	b, err := runSet(o, "set B")
	if err != nil {
		return harnessFailed(err)
	}
	if o.jsonOut != "" {
		ext := filepath.Ext(o.jsonOut)
		stem := o.jsonOut[:len(o.jsonOut)-len(ext)]
		if err := writeJSONFile(stem+".a"+ext, a); err != nil {
			return harnessFailed(err)
		}
		if err := writeJSONFile(stem+".b"+ext, b); err != nil {
			return harnessFailed(err)
		}
	}
	defs := loadBounds(o.benchFile)
	worseAB, unresolved := compareReports(defs, a, b)
	worseBA := 0
	for _, w := range workloads {
		wa, _ := a.workload(w.Name)
		wb, _ := b.workload(w.Name)
		for _, d := range defs {
			if v, _ := judge(d, wb.EndToEnd[d.Name], wa.EndToEnd[d.Name]); v == verdictWorse {
				worseBA++
			}
		}
	}
	fmt.Printf("selfcheck: %d disagree beyond bound, %d unresolved\n", worseAB+worseBA, unresolved)
	if !a.allCorrect() || !b.allCorrect() {
		fmt.Fprintln(os.Stderr, "benchmark: correctness gate failed")
		return 1
	}
	if worseAB+worseBA+unresolved > 0 {
		return 1
	}
	return 0
}
