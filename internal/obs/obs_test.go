package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"faust/internal/obs/trace"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry(0)
	c := r.Counter("faust_test_total", "shard", "alpha")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels returns the same handle.
	if c2 := r.Counter("faust_test_total", "shard", "alpha"); c2 != c {
		t.Fatalf("re-registration returned a different handle")
	}
	// Label order must not create a distinct series.
	g := r.Gauge("faust_test_gauge", "a", "1", "b", "2")
	g2 := r.Gauge("faust_test_gauge", "b", "2", "a", "1")
	if g != g2 {
		t.Fatalf("label order created a distinct gauge series")
	}
	g.Set(7)
	g.Dec()
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry(0)
	r.Counter("faust_conflict")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on kind conflict")
		}
	}()
	r.Gauge("faust_conflict")
}

func TestBucketIndexMonotoneAndBounded(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 2, 127, 128, 129, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucket index not monotone at %d: %d < %d", v, idx, prev)
		}
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("bucket index %d out of range for %d", idx, v)
		}
		if up := bucketUpper(idx); up < v {
			t.Fatalf("bucketUpper(%d) = %d < value %d", idx, up, v)
		}
		prev = idx
	}
	// Exhaustively: upper bound of each bucket maps back to the bucket.
	for idx := 0; idx < numBuckets; idx += 7 {
		up := bucketUpper(idx)
		if got := bucketIndex(up); got != idx {
			t.Fatalf("bucketIndex(bucketUpper(%d)) = %d", idx, got)
		}
	}
}

func TestHistogramQuantileError(t *testing.T) {
	h := NewHistogram()
	// Uniform 1..100000 ns: quantile estimates must be within the 1/64
	// relative error bound of the true value.
	const n = 100000
	for i := 1; i <= n; i++ {
		h.Observe(int64(i))
	}
	s := h.Snapshot()
	if s.Count != n {
		t.Fatalf("count = %d, want %d", s.Count, n)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		truth := float64(q) * n
		got := float64(s.Quantile(q))
		if got < truth || got > truth*(1+1.0/64+0.001) {
			t.Fatalf("q=%g: got %g, true %g (outside [truth, truth*1.017])", q, got, truth)
		}
	}
	if s.Max != n {
		t.Fatalf("max = %d, want %d", s.Max, n)
	}
	if mean := s.Mean(); math.Abs(mean-float64(n+1)/2) > 1 {
		t.Fatalf("mean = %g", mean)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := int64(1); i <= 1000; i++ {
		a.Observe(i)
		b.Observe(i * 1000)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 2000 {
		t.Fatalf("merged count = %d", sa.Count)
	}
	if sa.Max != 1000*1000 {
		t.Fatalf("merged max = %d", sa.Max)
	}
	// Merged p50 sits at the boundary between the two populations.
	if p := sa.P50(); p < 1000 || p > 1100 {
		t.Fatalf("merged p50 = %d, want ~1000", p)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := int64(0); i < 10000; i++ {
				h.Observe(seed*31 + i%4096)
			}
		}(int64(w))
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 80000 {
		t.Fatalf("count = %d, want 80000", got)
	}
}

func TestEventLogRingAndCounts(t *testing.T) {
	l := NewEventLog(4)
	base := time.Unix(1700000000, 0)
	tick := 0
	l.SetClock(func() time.Time { tick++; return base.Add(time.Duration(tick) * time.Millisecond) })

	for i := 0; i < 6; i++ {
		l.Record(EventFork, i, "s0", "check failed")
	}
	l.Record(EventFail, 9, "s1", "notified")

	if got := l.Len(); got != 4 {
		t.Fatalf("ring len = %d, want 4", got)
	}
	if got := l.Total(EventFork); got != 6 {
		t.Fatalf("fork total = %d, want 6 (must survive eviction)", got)
	}
	if got := l.Total(EventFail); got != 1 {
		t.Fatalf("fail total = %d", got)
	}
	snap := l.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	// Oldest-first, strictly increasing seq and time.
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq <= snap[i-1].Seq {
			t.Fatalf("seq not increasing: %+v", snap)
		}
		if !snap[i].Time.After(snap[i-1].Time) {
			t.Fatalf("time not increasing: %+v", snap)
		}
	}
	if snap[len(snap)-1].Kind != EventFail || snap[len(snap)-1].Client != 9 {
		t.Fatalf("last event = %+v", snap[len(snap)-1])
	}
	kinds := l.Kinds()
	if !sort.SliceIsSorted(kinds, func(i, j int) bool { return kinds[i] < kinds[j] }) || len(kinds) != 2 {
		t.Fatalf("kinds = %v", kinds)
	}
}

// TestEventLogCutsRenderAtReadTime: a stability-cut event is stored as
// the cut itself (copied into the ring slot's reused storage, so the
// caller keeps its slice) and reads as "W=[...]"; a slot that held a cut
// does not leak it into the plain event that overwrites it.
func TestEventLogCutsRenderAtReadTime(t *testing.T) {
	l := NewEventLog(2)
	cut := []int64{3, 1, 4}
	l.RecordCut(7, cut)
	cut[0] = 99 // the log took a copy
	l.RecordCut(7, []int64{5, 9, 2})
	snap := l.Snapshot()
	if len(snap) != 2 || snap[0].Detail != "W=[3 1 4]" || snap[1].Detail != "W=[5 9 2]" ||
		snap[0].Kind != EventStabilityCut || snap[0].Client != 7 {
		t.Fatalf("cut events read back as %+v", snap)
	}
	if got := l.Total(EventStabilityCut); got != 2 {
		t.Fatalf("stability-cut total = %d, want 2", got)
	}
	l.Record(EventFail, 1, "", "plain") // overwrites the first cut's slot
	if snap = l.Snapshot(); snap[1].Detail != "plain" {
		t.Fatalf("a plain event inherited its slot's old cut: %+v", snap[1])
	}
}

// TestAllocBudgetEventLog: neither record path allocates in steady state.
// Runs without -race in CI (race instrumentation changes alloc counts).
func TestAllocBudgetEventLog(t *testing.T) {
	l := NewEventLog(4)
	steady := []int64{1, 2, 3}
	if got := testing.AllocsPerRun(100, func() { l.RecordCut(0, steady) }); got != 0 {
		t.Errorf("RecordCut costs %.0f allocations per call, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { l.Record(EventFail, 0, "", "x") }); got != 0 {
		t.Errorf("Record costs %.0f allocations per call, want 0", got)
	}
}

func TestEventLogConcurrentSeqOrder(t *testing.T) {
	l := NewEventLog(1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Record(EventStabilityCut, id, "", "")
			}
		}(w)
	}
	wg.Wait()
	snap := l.Snapshot()
	if len(snap) != 800 {
		t.Fatalf("len = %d", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq != snap[i-1].Seq+1 {
			t.Fatalf("seq gap at %d: %d -> %d", i, snap[i-1].Seq, snap[i].Seq)
		}
		if snap[i].Time.Before(snap[i-1].Time) {
			t.Fatalf("timestamps out of order at %d", i)
		}
	}
}

func TestSetEnabledDropsObservations(t *testing.T) {
	defer SetEnabled(true)
	r := NewRegistry(0)
	c := r.Counter("faust_gate_total")
	h := r.Histogram("faust_gate_ns")
	SetEnabled(false)
	c.Inc()
	h.Observe(5)
	r.Events().Record(EventFork, 0, "", "")
	SetEnabled(true)
	if c.Value() != 0 || h.Snapshot().Count != 0 || r.Events().Len() != 0 {
		t.Fatalf("disabled observations were recorded")
	}
	c.Inc()
	if c.Value() != 1 {
		t.Fatalf("re-enabled counter did not record")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry(0)
	r.Help("faust_ops_total", "operations handled")
	r.Counter("faust_ops_total", "shard", "alpha").Add(3)
	r.Counter("faust_ops_total", "shard", "beta").Add(5)
	r.Gauge("faust_conns").Set(2)
	h := r.Histogram("faust_op_latency_ns", "op", "read")
	for i := int64(1); i < 1000; i++ {
		h.Observe(i * 1000)
	}
	h.ObserveExemplarAlways(1000*1000, trace.TraceID{1})
	r.Events().Record(EventFork, 1, "alpha", "line 36")
	r.Events().Record(EventFail, 1, "alpha", "")

	var b strings.Builder
	r.WritePrometheus(&b)
	text := b.String()

	for _, want := range []string{
		"# HELP faust_ops_total operations handled",
		"# TYPE faust_ops_total counter",
		`faust_ops_total{shard="alpha"} 3`,
		`faust_ops_total{shard="beta"} 5`,
		"# TYPE faust_conns gauge",
		"faust_conns 2",
		"# TYPE faust_op_latency_ns histogram",
		`faust_op_latency_ns_bucket{op="read",le="+Inf"} 1000`,
		`faust_op_latency_ns_count{op="read"} 1000`,
		`# EXEMPLAR faust_op_latency_ns{op="read"} trace_id=01000000000000000000000000000000 value=0.001 `,
		"# TYPE faust_op_latency_ns_p50 gauge",
		`faust_op_latency_ns_p50{op="read"}`,
		`faust_op_latency_ns_p999{op="read"}`,
		"# TYPE faust_events_total counter",
		`faust_events_total{kind="fork-detected"} 1`,
		`faust_events_total{kind="fail-notification"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	// Minimal format validation: every non-comment line is "name{...} value"
	// or "name value", every TYPE line appears exactly once per family.
	seenType := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fam := strings.Fields(line)[2]
			if seenType[fam] {
				t.Fatalf("duplicate TYPE for %s", fam)
			}
			seenType[fam] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
	}
}
