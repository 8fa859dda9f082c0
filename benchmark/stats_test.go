package main

import (
	"math"
	"testing"
	"time"
)

func TestPickTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{999, 0.95}, // 9.99 samples beyond p99: not enough
		{1000, 0.99},
		{200, 0.95},
		{199, 0.90},
		{100, 0.90},
		{99, 0.50},
		{0, 0.50},
	}
	for _, c := range cases {
		if got := pickTail(c.n, 0.99); got != c.want {
			t.Errorf("pickTail(%d, 0.99) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := pickTail(5000, 0.50); got != 0.50 {
		t.Errorf("pickTail must never exceed what was asked: got %v", got)
	}
}

func TestLatQuantileFallsBackWithFewSamples(t *testing.T) {
	var few, many []sample
	for i := 1; i <= 400; i++ {
		few = append(few, sample{latNs: int64(i) * 1000, class: classWrite})
	}
	for i := 1; i <= 2000; i++ {
		many = append(many, sample{latNs: int64(i) * 1000, class: classWrite})
	}
	got, n := latQuantile(few, anyClass, 0.99)
	if n != 400 || math.Abs(got-380) > 1.5 { // p95 of 1..400 us
		t.Errorf("400 samples: got %.1f us (n=%d), want their p95, about 380", got, n)
	}
	got, _ = latQuantile(many, anyClass, 0.99)
	if math.Abs(got-1980) > 1.5 {
		t.Errorf("2000 samples: got %.1f us, want their p99, about 1980", got)
	}
	if _, n := latQuantile(many, isClass(classRead), 0.5); n != 0 {
		t.Errorf("class filter let %d samples through", n)
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(v, n=4) returns, because that is what the driver
// computes its spread with.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31.0 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
	q1, q2, q3 = quartiles([]float64{10, 20, 30, 40, 50})
	if q1 != 15 || q2 != 30 || q3 != 45 {
		t.Errorf("quartiles = %v %v %v, want 15 30 45", q1, q2, q3)
	}
	if got := relIQR([]float64{10, 20, 30, 40, 50}); got != 1.0 {
		t.Errorf("relIQR = %v, want 1", got)
	}
}

func TestWindowMedianIgnoresOneStalledWindow(t *testing.T) {
	var s []sample
	for w := 0; w < 5; w++ {
		lat := int64(100_000)
		if w == 2 {
			lat = 5_000_000 // one second of the run stalled
		}
		for i := 0; i < 2000; i++ {
			s = append(s, sample{end: int64(w)*1e9 + int64(i)*1000, latNs: lat, class: classRead})
		}
	}
	wins := windowed(s, 0, 5e9, 2000, 5)
	if len(wins) != 5 {
		t.Fatalf("got %d windows, want 5", len(wins))
	}
	got := windowMedian(wins, classQuantile(anyClass, 0.99))
	if got != 100 {
		t.Errorf("window median p99 = %v us, want 100", got)
	}
}

func TestRound2(t *testing.T) {
	for in, want := range map[float64]float64{3582: 3600, 716.4: 720, 6456.8: 6500, 0.0123: 0.012, 0: 0} {
		if got := round2(in); math.Abs(got-want) > 1e-9 {
			t.Errorf("round2(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestPoissonScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := poissonSchedule(7, 0, 1000, time.Second)
	b := poissonSchedule(7, 0, 1000, time.Second)
	c := poissonSchedule(8, 0, 1000, time.Second)
	d := poissonSchedule(7, 1, 1000, time.Second)
	if len(a) != len(b) {
		t.Fatalf("equal seeds gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("equal seeds differ at arrival %d", i)
		}
	}
	same := func(x, y []int64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if same(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	if same(a, d) {
		t.Error("different clients gave the same schedule")
	}
	if len(a) < 850 || len(a) > 1150 {
		t.Errorf("%d arrivals in 1 s at 1000/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("schedule is not ascending")
		}
	}
}

func TestMaxRateOK(t *testing.T) {
	const limit = 1000.0
	good := func(rate float64) stepVerdict { return stepVerdict{rate: rate, n: 2000, ptail: 400} }
	slow := good(400)
	slow.ptail = 1500
	grows := good(400)
	grows.growing = true
	refused := good(400)
	refused.missed = 3
	cases := []struct {
		name  string
		steps []stepVerdict
		want  float64
	}{
		{"all pass", []stepVerdict{good(100), good(200), good(300)}, 300},
		{"tail over the limit", []stepVerdict{good(100), good(200), good(300), slow}, 300},
		{"growing backlog", []stepVerdict{good(100), grows, good(500)}, 100},
		{"refused operations", []stepVerdict{good(100), good(200), refused}, 200},
		{"first step fails", []stepVerdict{slow, good(500)}, 0},
		{"a later pass does not rescue an earlier failure", []stepVerdict{good(100), slow, good(300)}, 100},
		{"no samples", []stepVerdict{{rate: 100}}, 0},
	}
	for _, c := range cases {
		if got := maxRateOK(c.steps, limit); got != c.want {
			t.Errorf("%s: maxRateOK = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBacklogGrowing(t *testing.T) {
	d := time.Second
	var stable, climbing, burst []backlogPoint
	for i := 0; i < 1000; i++ {
		at := int64(i) * int64(time.Millisecond)
		stable = append(stable, backlogPoint{at: at, depth: 3 + i%2})
		climbing = append(climbing, backlogPoint{at: at, depth: i / 10})
		depth := 0
		if i > 400 && i < 500 {
			depth = 40 // a stall in the middle that drains again
		}
		burst = append(burst, backlogPoint{at: at, depth: depth})
	}
	if backlogGrowing(stable, d) {
		t.Error("a queue hovering at 3-4 is not growing")
	}
	if !backlogGrowing(climbing, d) {
		t.Error("a queue climbing from 0 to 100 is growing")
	}
	if backlogGrowing(burst, d) {
		t.Error("a burst that drains is not a growing backlog")
	}
	if backlogGrowing(nil, d) {
		t.Error("no samples, no growth")
	}
}

func TestJudgeAndBoundRule(t *testing.T) {
	lat := metricDef{Name: "write_p50_us", Better: lower, Bound: 0.10}
	thr := metricDef{Name: "ops_per_s", Better: higher, Bound: 0.10}
	sum := func(med, spread float64) metricSummary {
		return metricSummary{Median: med, RelIQR: spread, Values: []float64{med, med}}
	}
	cases := []struct {
		def  metricDef
		a, b metricSummary
		want verdict
	}{
		{lat, sum(100, 0.02), sum(105, 0.02), verdictWithin},
		{lat, sum(100, 0.02), sum(115, 0.02), verdictWorse},
		{lat, sum(100, 0.02), sum(85, 0.02), verdictBetter},
		{lat, sum(100, 0.15), sum(115, 0.02), verdictUnresolved},
		{thr, sum(1000, 0.02), sum(850, 0.02), verdictWorse},
		{thr, sum(1000, 0.02), sum(1200, 0.02), verdictBetter},
		{thr, sum(0, 0), sum(1200, 0.02), verdictUnresolved},
	}
	for i, c := range cases {
		if got, _ := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("case %d: judge = %q, want %q", i, got, c.want)
		}
	}

	if b, ok := boundFor([]float64{0.01, 0.02}); b != boundFloor || !ok {
		t.Errorf("quiet metric: bound %v ok %v, want the floor", b, ok)
	}
	if b, ok := boundFor([]float64{0.01, 0.06}); math.Abs(b-0.18) > 1e-9 || !ok {
		t.Errorf("6 %% spread: bound %v ok %v, want 0.18", b, ok)
	}
	if b, ok := boundFor([]float64{0.083, 0.01}); b != boundCap || !ok {
		t.Errorf("8.3 %% spread: bound %v ok %v, want the cap and still gating", b, ok)
	}
	if _, ok := boundFor([]float64{0.01, 0.09}); ok {
		t.Error("three times a 9 % spread is more than the driver accepts as a bound: demote")
	}
}
