package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"

	"faust/internal/obs/trace"
)

// This file turns a Registry into an operator-facing HTTP surface:
//
//	/metrics        Prometheus text exposition (counters, gauges,
//	                histograms with per-octave buckets + p50/p99/p999,
//	                plus trace-ID exemplar comments)
//	/events         the protocol event log as JSON, oldest first;
//	                filterable with ?kind=, ?since=<seq>, ?limit=
//	/trace          retained traces as Chrome trace_event JSON
//	                (load in Perfetto or chrome://tracing)
//	/trace/slowest  the n slowest retained traces as span trees (?n=)
//	/debug/pprof/*  the standard runtime profiles
//
// Everything is standard library; there is no client dependency to take.

// quantiles rendered for every histogram family, as (suffix, q) pairs.
var exportQuantiles = []struct {
	suffix string
	q      float64
}{
	{"_p50", 0.50},
	{"_p99", 0.99},
	{"_p999", 0.999},
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4). Histograms render as native
// histogram families — cumulative per-octave `le` buckets, `_sum` and
// `_count`, all in seconds — plus companion gauge families
// `<name>_p50/_p99/_p999` carrying the estimated quantiles, so tail
// latency is readable without a PromQL engine.
func (r *Registry) WritePrometheus(w io.Writer) {
	metrics := r.snapshotMetrics()
	r.mu.Lock()
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	lastFamily := ""
	emitHeader := func(w io.Writer, family, typ string) {
		if family == lastFamily {
			return
		}
		lastFamily = family
		if h, ok := help[family]; ok {
			fmt.Fprintf(w, "# HELP %s %s\n", family, h)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", family, typ)
	}

	// Quantile gauges derived from histograms are separate metric
	// families (<name>_p50 etc.); buffer them per family so each family's
	// samples stay contiguous under a single TYPE line.
	quantileFams := make(map[string]*bytes.Buffer)

	for _, m := range metrics {
		switch m.kind {
		case kindCounter:
			emitHeader(w, m.family, "counter")
			fmt.Fprintf(w, "%s%s %d\n", m.family, m.labels, m.c.Value())
		case kindGauge:
			emitHeader(w, m.family, "gauge")
			fmt.Fprintf(w, "%s%s %d\n", m.family, m.labels, m.g.Value())
		case kindHistogram:
			writePromHistogram(w, m, emitHeader, quantileFams)
		}
	}

	qNames := make([]string, 0, len(quantileFams))
	for name := range quantileFams {
		qNames = append(qNames, name)
	}
	sort.Strings(qNames)
	for _, name := range qNames {
		fmt.Fprintf(w, "# TYPE %s gauge\n", name)
		_, _ = w.Write(quantileFams[name].Bytes())
	}

	// The protocol event log exports its lifetime per-kind counters as
	// one counter family, whatever registry names its metrics use.
	kinds := r.events.Kinds()
	if len(kinds) > 0 {
		emitHeader(w, "faust_events_total", "counter")
		for _, k := range kinds {
			fmt.Fprintf(w, "faust_events_total{kind=%q} %d\n", string(k), r.events.Total(k))
		}
	}
}

// writePromHistogram renders one histogram series: octave-granularity
// cumulative buckets (collapsing the fine sub-buckets keeps the exposition
// compact; the fine resolution still backs the quantile estimates), then
// sum/count in seconds. The quantile gauges are appended to the per-family
// buffers in quantileFams for the caller to flush at the end.
func writePromHistogram(w io.Writer, m *metric, emitHeader func(w io.Writer, family, typ string), quantileFams map[string]*bytes.Buffer) {
	s := m.h.Snapshot()
	emitHeader(w, m.family, "histogram")

	// Collapse fine buckets into per-octave "le" bounds. Bucket upper
	// bounds are nanoseconds; exposition is seconds.
	type ob struct {
		upperNs int64
		n       int64
	}
	var octaves []ob
	idxs := make([]int, 0, len(s.Buckets))
	for i := range s.Buckets {
		idxs = append(idxs, i)
	}
	sortInts(idxs)
	for _, i := range idxs {
		upper := bucketUpper(i)
		// Round the bound up to the enclosing power of two so all fine
		// buckets of one octave share a bound.
		oct := int64(1)
		for oct < upper {
			oct <<= 1
		}
		if len(octaves) > 0 && octaves[len(octaves)-1].upperNs == oct {
			octaves[len(octaves)-1].n += s.Buckets[i]
		} else {
			octaves = append(octaves, ob{oct, s.Buckets[i]})
		}
	}
	cum := int64(0)
	labels := promLabelPrefix(m.labels)
	for _, o := range octaves {
		cum += o.n
		fmt.Fprintf(w, "%s_bucket%sle=\"%g\"} %d\n", m.family, labels, float64(o.upperNs)/1e9, cum)
	}
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", m.family, labels, s.Count)
	fmt.Fprintf(w, "%s_sum%s %g\n", m.family, m.labels, float64(s.Sum)/1e9)
	fmt.Fprintf(w, "%s_count%s %d\n", m.family, m.labels, s.Count)
	// The most recent over-threshold observation's trace ID, as a comment
	// so plain 0.0.4 parsers skip it: the link from "the p999 spiked" to
	// the retained trace that did it (GET /trace).
	if e := latestExemplar(m.h); e != nil {
		fmt.Fprintf(w, "# EXEMPLAR %s%s trace_id=%s value=%g ts=%d\n",
			m.family, m.labels, e.Trace.String(), float64(e.Value)/1e9, e.At)
	}

	for _, eq := range exportQuantiles {
		name := m.family + eq.suffix
		buf := quantileFams[name]
		if buf == nil {
			buf = &bytes.Buffer{}
			quantileFams[name] = buf
		}
		fmt.Fprintf(buf, "%s%s %g\n", name, m.labels, float64(s.Quantile(eq.q))/1e9)
	}
}

// promLabelPrefix turns a rendered label set ("{a=\"b\"}" or "") into the
// prefix needed before an le label: "{a=\"b\"," or "{".
func promLabelPrefix(labels string) string {
	if labels == "" {
		return "{"
	}
	return labels[:len(labels)-1] + ","
}

// Handler returns the registry's HTTP surface (see the file comment for
// the routes).
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, req *http.Request) {
		evs := r.Events().Snapshot()
		q := req.URL.Query()
		if kind := q.Get("kind"); kind != "" {
			kept := evs[:0:0]
			for _, e := range evs {
				if string(e.Kind) == kind {
					kept = append(kept, e)
				}
			}
			evs = kept
		}
		if s := q.Get("since"); s != "" {
			since, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
				return
			}
			// Seq is strictly increasing, so "entries after seq N" is the
			// tail starting at the first Seq > N.
			i := 0
			for i < len(evs) && evs[i].Seq <= since {
				i++
			}
			evs = evs[i:]
		}
		if s := q.Get("limit"); s != "" {
			limit, err := strconv.Atoi(s)
			if err != nil || limit < 0 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
			if len(evs) > limit {
				evs = evs[len(evs)-limit:] // most recent wins
			}
		}
		if evs == nil {
			evs = []Event{} // encode as [], not null, when the filter matches nothing
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(evs)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = trace.Default().WriteTraceEvents(w)
	})
	mux.HandleFunc("/trace/slowest", func(w http.ResponseWriter, req *http.Request) {
		n := 5
		if s := req.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v <= 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		trace.Default().WriteSlowest(w, n)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprintf(w, "faust observability endpoint\n\n/metrics\n/events\n/trace\n/trace/slowest\n/debug/pprof/\n")
	})
	return mux
}

// Serve starts an HTTP server for the registry on addr and returns the
// bound listener (so callers learn the port when addr ends in ":0") and
// a shutdown function that closes the server and all its connections.
// The read and idle timeouts bound what one slow or silent client can
// hold open — this is an operator port, but it should not be the
// process's easiest resource-exhaustion target.
func Serve(addr string, r *Registry) (net.Listener, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           r.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { _ = srv.Serve(ln) }()
	return ln, srv.Close, nil
}
