// Package trace implements request-scoped distributed tracing for the
// FAUST stack: 128-bit trace IDs minted at the client once per register
// or KV operation, 64-bit span IDs for every timed stage, carried
// in-process via context.Context and across the wire in the optional
// trace fields of SUBMIT/REPLY and the blob messages (package wire).
//
// The design constraints come from PR 8's invariants:
//
//   - Near-zero cost when disabled: every entry point checks one atomic
//     bool and returns zero values; no clock reads, no allocation, no
//     context wrapping happen on the disabled path.
//   - No locks: the collector is built from atomic slot claims, a
//     refcount-guarded seal, and atomic.Pointer rings — span recording
//     never blocks and is safe to call with application mutexes held.
//   - Pooled span storage: spans are value slots inside pooled per-trace
//     entries; the record path allocates nothing and formats nothing
//     (span names are static string constants supplied by callers).
//
// Sampling is tail-based: every span of every trace is recorded while
// the trace is live, and the retention decision happens when the trace
// seals — traces whose wall-clock duration meets the slow threshold are
// always retained, plus a deterministic 1-in-N head sample (whose
// "keep" bit travels on the wire so a server retains exactly the traces
// its clients chose). Retained traces land in a bounded ring exported
// by the /trace and /trace/slowest endpoints of package obs.
package trace

import (
	"context"
	"encoding/hex"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end operation; 128 bits so independent
// clients never collide without coordination.
type TraceID [16]byte

// SpanID identifies one span within a trace.
type SpanID uint64

// IsZero reports whether the ID is the absent value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String returns the canonical lowercase hex form.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// Span is one timed region of a trace: a named stage with a parent link
// that reconstructs the tree. Start is unix nanoseconds; Dur is the
// span's length in nanoseconds (zero while still open).
type Span struct {
	ID     SpanID
	Parent SpanID
	Name   string
	Start  int64
	Dur    int64
}

// Trace is one sealed, retained trace: the spans recorded by this
// process for one TraceID. Over TCP each process retains its own side;
// the export groups by TraceID so the halves line up in Perfetto.
type Trace struct {
	ID    TraceID
	Start int64 // unix nanoseconds of the first span
	Dur   int64 // wall-clock of the whole trace as seen by this process
	Spans []Span
}

// Process-wide tracing state. Tracing is off until a cmd enables it
// (faust-server -trace-sample/-trace-slow, faust-client); the library
// never turns it on by itself.
var (
	enabled atomic.Bool
	slowNs  atomic.Int64 // tail retention threshold; <= 0 disables
	headN   atomic.Int64 // head sampling 1-in-N; <= 0 disables
	headCtr atomic.Uint64
)

// SetEnabled turns span recording on or off process-wide.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether tracing is on.
func Enabled() bool { return enabled.Load() }

// Configure sets the sampling knobs: retain one trace in sampleN by
// head sampling (<= 0 disables head sampling) and always retain traces
// at least slow long (<= 0 disables tail retention).
func Configure(sampleN int, slow time.Duration) {
	headN.Store(int64(sampleN))
	slowNs.Store(int64(slow))
}

// SlowNs returns the tail-retention threshold in nanoseconds (<= 0 when
// disabled). Histograms use it to decide when an observation deserves a
// trace-ID exemplar.
func SlowNs() int64 { return slowNs.Load() }

// headSample makes the 1-in-N head sampling decision for a new root.
func headSample() bool {
	n := headN.Load()
	return n > 0 && headCtr.Add(1)%uint64(n) == 0
}

// ID generation: splitmix64 over an atomic counter, seeded per process.
// Tracing IDs need uniqueness, not unpredictability, so this stays off
// the crypto boundary (package crypto owns all key material).
var idCtr atomic.Uint64

func init() {
	seed := uint64(time.Now().UnixNano())
	idCtr.Store(splitmix64(seed ^ 0x9e3779b97f4a7c15))
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func nextID() uint64 {
	// A zero draw would read as "absent" on the wire; skip it.
	for {
		if v := splitmix64(idCtr.Add(1)); v != 0 {
			return v
		}
	}
}

// NewTraceID mints a fresh trace ID.
func NewTraceID() TraceID {
	var id TraceID
	a, b := nextID(), nextID()
	for i := 0; i < 8; i++ {
		id[i] = byte(a >> (8 * i))
		id[8+i] = byte(b >> (8 * i))
	}
	return id
}

// ctxKey carries a ctxRef through context.Context.
type ctxKey struct{}

// ctxRef is the in-process carrier: the live entry plus the span that
// children should parent under. The entry stays valid for as long as
// the handle that created this ref is open (it holds a reference).
type ctxRef struct {
	e    *active
	span SpanID
}

// Handle is an open span. End completes it; a Handle created by the
// call that started (or joined) the trace also settles the trace's
// fate when it ends. The zero Handle is a no-op.
type Handle struct {
	e     *active
	idx   int32
	id    SpanID
	final bool // mark the trace done when this handle ends
}

// End completes the span (and, for a final handle, seals the trace once
// no other local handles remain open).
func (h Handle) End() {
	if h.e == nil {
		return
	}
	h.e.finishSpan(h.idx, time.Now().UnixNano())
	if h.final {
		h.e.done.Store(true)
	}
	h.e.release()
}

// Start begins a span. If ctx already carries a trace, the span is a
// child of the current one; otherwise a new root trace is created
// (applying the head-sampling decision). With tracing disabled it
// returns ctx unchanged and a no-op handle.
func Start(ctx context.Context, name string) (context.Context, Handle) {
	if !enabled.Load() {
		return ctx, Handle{}
	}
	now := time.Now().UnixNano()
	if ref, ok := ctx.Value(ctxKey{}).(ctxRef); ok {
		if !ref.e.acquire() {
			return ctx, Handle{}
		}
		idx, id := ref.e.claim(ref.span, name, now)
		if idx < 0 {
			ref.e.release()
			return ctx, Handle{}
		}
		h := Handle{e: ref.e, idx: idx, id: id}
		return context.WithValue(ctx, ctxKey{}, ctxRef{e: ref.e, span: id}), h
	}
	e := defaultCollector.create(NewTraceID(), now, true, headSample())
	if e == nil {
		return ctx, Handle{}
	}
	idx, id := e.claim(0, name, now)
	h := Handle{e: e, idx: idx, id: id, final: true}
	return context.WithValue(ctx, ctxKey{}, ctxRef{e: e, span: id}), h
}

// Child begins a span only when ctx already carries a live trace; it
// never creates a root. Inner stages (blob transfers, tree-node
// fetches, WAL appends) use it so that work running outside any traced
// operation — background probes, untraced callers — records nothing.
func Child(ctx context.Context, name string) (context.Context, Handle) {
	if !enabled.Load() {
		return ctx, Handle{}
	}
	if _, ok := ctx.Value(ctxKey{}).(ctxRef); !ok {
		return ctx, Handle{}
	}
	return Start(ctx, name)
}

// StartRemote begins a span for a trace that arrived over the wire:
// the span joins the process-local entry for id (creating one if this
// is the first sight of the trace), parented under the sender's span.
// keep forces retention (the sender's head-sampling decision). final
// marks the trace done when the handle ends — the SUBMIT that finishes
// an operation passes true; blob requests pass false so the entry
// lingers and accumulates across the many requests of one KV op.
func StartRemote(ctx context.Context, id TraceID, parent SpanID, keep, final bool, name string) (context.Context, Handle) {
	if !enabled.Load() || id.IsZero() {
		return ctx, Handle{}
	}
	now := time.Now().UnixNano()
	e := defaultCollector.join(id, now)
	if e == nil {
		return ctx, Handle{}
	}
	if keep {
		e.keep.Store(true)
	}
	idx, sid := e.claim(parent, name, now)
	if idx < 0 {
		e.release()
		return ctx, Handle{}
	}
	h := Handle{e: e, idx: idx, id: sid, final: final}
	return context.WithValue(ctx, ctxKey{}, ctxRef{e: e, span: sid}), h
}

// Event records an already-elapsed span [start, now] under the current
// trace — used for stages whose start predates having a context, like
// the dispatcher queue wait measured from the enqueue stamp.
func Event(ctx context.Context, name string, start time.Time) {
	if !enabled.Load() || start.IsZero() {
		return
	}
	ref, ok := ctx.Value(ctxKey{}).(ctxRef)
	if !ok || !ref.e.acquire() {
		return
	}
	s := start.UnixNano()
	if idx, _ := ref.e.claim(ref.span, name, s); idx >= 0 {
		ref.e.finishSpan(idx, time.Now().UnixNano())
	}
	ref.e.release()
}

// RecordAt records one completed span into the live entry for id, if
// this process has one — a one-shot for instrumentation points that see
// only the wire message (e.g. frame writes). Absent traces are dropped.
func RecordAt(id TraceID, parent SpanID, name string, start, end int64) {
	if !enabled.Load() || id.IsZero() {
		return
	}
	e := defaultCollector.lookup(id)
	if e == nil {
		return
	}
	if idx, _ := e.claim(parent, name, start); idx >= 0 {
		e.finishSpan(idx, end)
	}
	e.release()
}

// FromContext extracts the wire-propagation fields of the current
// trace: its ID, the span new remote work should parent under, and the
// keep bit. ok is false when ctx carries no live trace.
func FromContext(ctx context.Context) (id TraceID, span SpanID, keep bool, ok bool) {
	if !enabled.Load() {
		return TraceID{}, 0, false, false
	}
	ref, refOK := ctx.Value(ctxKey{}).(ctxRef)
	if !refOK {
		return TraceID{}, 0, false, false
	}
	return ref.e.id, ref.span, ref.e.keep.Load(), true
}
