package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"faust/internal/obs/trace"
)

// Histogram exemplars: every latency histogram can remember the trace
// ID of its most recent over-threshold observation, linking the
// aggregate view ("p999 spiked") to the request-scoped one ("this is
// the trace that did it"). The threshold is the tracing slow threshold
// (trace.Configure); with tracing off or no threshold set, exemplars
// cost one atomic load per observation and store nothing.

// exemplar is one over-threshold observation with its trace.
type exemplar struct {
	Trace trace.TraceID
	Value int64 // the observed value, nanoseconds
	At    int64 // unix nanoseconds when observed
}

// exemplarSlots holds one slot per histogram, attached lazily: most
// histograms never see a traced observation, so the slot lives beside
// the histogram rather than inside its cache-line-tuned layout. The
// map is reached only on the rare over-threshold path and on scrapes,
// never on the plain Observe hot path.
type exemplarSlot struct {
	p atomic.Pointer[exemplar]
}

var exemplarSlots = struct {
	sync.Mutex
	m map[*Histogram]*exemplarSlot
}{m: make(map[*Histogram]*exemplarSlot)}

func exemplarOf(h *Histogram, create bool) *exemplarSlot {
	exemplarSlots.Lock()
	defer exemplarSlots.Unlock()
	s := exemplarSlots.m[h]
	if s == nil && create {
		s = &exemplarSlot{}
		exemplarSlots.m[h] = s
	}
	return s
}

// ObserveSinceExemplar is ObserveSince with an exemplar: it records the
// nanoseconds elapsed since start and, when they meet the tracing slow
// threshold and id is present, remembers (id, elapsed) as the
// histogram's exemplar.
func (h *Histogram) ObserveSinceExemplar(start time.Time, id trace.TraceID) {
	v := time.Since(start).Nanoseconds()
	h.Observe(v)
	slow := trace.SlowNs()
	if slow <= 0 || v < slow || id.IsZero() {
		return
	}
	e := &exemplar{Trace: id, Value: v, At: time.Now().UnixNano()}
	exemplarOf(h, true).p.Store(e)
}

// latestExemplar returns the histogram's most recent over-threshold
// exemplar, nil when none was recorded.
func latestExemplar(h *Histogram) *exemplar {
	s := exemplarOf(h, false)
	if s == nil {
		return nil
	}
	return s.p.Load()
}
