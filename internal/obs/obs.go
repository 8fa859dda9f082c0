// Package obs is the observability substrate of the FAUST reproduction:
// lock-free counters and gauges, log-bucketed latency histograms with
// mergeable snapshots and quantile estimation, and a bounded ring-buffer
// protocol event log recording the fail-aware outcomes the paper is about
// (fork detection, fail notifications, stability-cut advances, rollbacks,
// preflight rejections, blob tampering).
//
// The package is zero-dependency (standard library only) and built so the
// instrumented hot paths pay only an atomic add or two per observation:
// metric handles are resolved once at construction time and touched
// lock-free afterwards. A process-wide default registry (Default) collects
// everything the built-in instrumentation emits; cmd/faust-server exposes
// it over HTTP as Prometheus text exposition and net/http/pprof (see
// expose.go).
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates every observation site. It defaults to on; flipping it
// off is how instrumentation overhead is measured.
// Reads are a single atomic load, so the gate itself is nearly free.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns observation on or off process-wide. Metric handles stay
// valid either way; disabled handles simply drop observations.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether observation is currently on.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing lock-free counter. The zero value
// is ready to use, but counters obtained from a Registry are also exported
// over /metrics; prefer those for anything an operator should see.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if enabled.Load() {
		c.v.Add(1)
	}
}

// Add adds n (n must be non-negative for the exposition to stay monotonic;
// this is not enforced).
func (c *Counter) Add(n int64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a lock-free instantaneous value (current connections, in-flight
// requests). Unlike Counter it may go down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if enabled.Load() {
		g.v.Store(n)
	}
}

// Add adds n (negative to decrement).
func (g *Gauge) Add(n int64) {
	if enabled.Load() {
		g.v.Add(n)
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// StartTimer returns the current time when observation is enabled and the
// zero time otherwise. Paired with Histogram.ObserveSince it keeps fully
// disabled hot paths free of clock reads.
func StartTimer() time.Time {
	if !enabled.Load() {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the nanoseconds elapsed since start, dropping the
// observation when start is the zero time (i.e. observation was disabled
// when the timer started).
func (h *Histogram) ObserveSince(start time.Time) {
	if start.IsZero() {
		return
	}
	h.Observe(time.Since(start).Nanoseconds())
}

// metricKind discriminates registry entries for the exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered time series: a metric family name, an optional
// sorted label set, and exactly one of the three instrument types.
type metric struct {
	family string // family name without labels
	labels string // rendered {k="v",...} or ""
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry is a named collection of metrics plus one protocol event log.
// Registration (Counter/Gauge/Histogram calls) takes a mutex and is
// idempotent — the same name+labels returns the same handle — so callers
// register once at construction time and keep the returned pointer for the
// hot path. The zero value is not usable; use NewRegistry or Default.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	help    map[string]string // family -> HELP text
	events  *EventLog
}

// NewRegistry creates an empty registry whose event log keeps the last
// eventCap events (DefaultEventCap when eventCap <= 0).
func NewRegistry(eventCap int) *Registry {
	return &Registry{
		metrics: make(map[string]*metric),
		help:    make(map[string]string),
		events:  NewEventLog(eventCap),
	}
}

// defaultRegistry is the process-wide registry the built-in
// instrumentation reports into.
var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry. All instrumentation in
// internal/{transport,store,crypto,...} reports here unless explicitly
// given another registry or event log.
func Default() *Registry {
	defaultOnce.Do(func() { defaultReg = NewRegistry(0) })
	return defaultReg
}

// Labels is an alternating key, value, key, value... list. It renders in
// sorted key order so label order at the call site does not create
// distinct series.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		kv = append(kv, "INVALID")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup returns the metric registered under family+labels, creating it
// with mk when absent. Panics if the name is already registered with a
// different instrument kind — that is a programming error, not runtime
// input.
func (r *Registry) lookup(family string, kind metricKind, kv []string, mk func() *metric) *metric {
	key := family + renderLabels(kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		if m.kind != kind {
			panic("obs: metric " + key + " re-registered with a different kind")
		}
		return m
	}
	m := mk()
	m.family = family
	m.labels = renderLabels(kv)
	m.kind = kind
	r.metrics[key] = m
	return m
}

// Counter returns the counter registered under name with the given
// alternating key/value labels, creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	m := r.lookup(name, kindCounter, labels, func() *metric { return &metric{c: &Counter{}} })
	return m.c
}

// Gauge returns the gauge registered under name+labels, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	m := r.lookup(name, kindGauge, labels, func() *metric { return &metric{g: &Gauge{}} })
	return m.g
}

// Histogram returns the histogram registered under name+labels, creating
// it on first use. Histograms record non-negative int64 observations
// (nanoseconds by convention; the exposition converts to seconds).
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	m := r.lookup(name, kindHistogram, labels, func() *metric { return &metric{h: NewHistogram()} })
	return m.h
}

// Help sets the HELP text for a metric family. Optional; families without
// help render only the TYPE line.
func (r *Registry) Help(family, text string) {
	r.mu.Lock()
	r.help[family] = text
	r.mu.Unlock()
}

// Events returns the registry's protocol event log.
func (r *Registry) Events() *EventLog { return r.events }

// snapshotMetrics returns the registered metrics sorted by family then
// label string, so the exposition is deterministic and families stay
// contiguous.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.Lock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].family != out[j].family {
			return out[i].family < out[j].family
		}
		return out[i].labels < out[j].labels
	})
	return out
}
