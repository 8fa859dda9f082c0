package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind names one class of fail-aware protocol outcome. The set
// mirrors what the paper makes first-class: integrity violations detected
// by USTOR's checks, FAUST's fail and stability notifications, and the
// server-side admission/tamper signals added by later layers.
type EventKind string

const (
	// EventFork: a client's consistency checks found evidence of a forked
	// or otherwise inconsistent server history (USTOR DetectionError,
	// FAUST incomparable-version ForkError).
	EventFork EventKind = "fork-detected"
	// EventFail: a FAUST client delivered a fail_i notification — locally
	// detected or received from another client as a FAILURE message.
	EventFail EventKind = "fail-notification"
	// EventStabilityCut: a FAUST client's stability cut advanced and the
	// OnStable callback fired with a new vector W.
	EventStabilityCut EventKind = "stability-cut-advance"
	// EventRollback: the server presented a version that does not extend
	// the client's own — the signature of replaying old state.
	EventRollback EventKind = "rollback-detected"
	// EventPreflightReject: the server refused a shard handshake during
	// preflight (unknown shard, dimension mismatch, bad magic).
	EventPreflightReject EventKind = "preflight-reject"
	// EventBlobTamper: a reader recomputed a blob's content hash and it
	// did not match the address it was fetched under.
	EventBlobTamper EventKind = "blob-tamper"
	// EventBackendDown: a blob backend's EMA aliveness fell below the
	// dead threshold and the failover store stopped routing to it —
	// the fleet is serving in degraded mode (see internal/blobfleet).
	EventBackendDown EventKind = "blob-backend-down"
	// EventBackendUp: a previously dead blob backend answered a probe
	// (or live traffic) and was resurrected into the rotation.
	EventBackendUp EventKind = "blob-backend-up"
	// EventSubmitReject: the dispatcher's opt-in SUBMIT verification
	// refused an operation — forged signature, or a sender id claiming
	// another client's identity. The op is dropped before it can touch
	// the core; the rest of its batch proceeds.
	EventSubmitReject EventKind = "submit-sig-reject"
)

// Event is one timestamped entry of the protocol event log. Client is the
// client index the event concerns (-1 when not applicable, e.g. server-side
// preflight rejections of unknown peers); Shard is the shard name ("" for
// single-tenant setups). Detail carries the human-readable specifics: the
// failed check, the stability cut, the offending hash.
type Event struct {
	Seq    uint64    `json:"seq"`
	Time   time.Time `json:"time"`
	Kind   EventKind `json:"kind"`
	Client int       `json:"client"`
	Shard  string    `json:"shard,omitempty"`
	Detail string    `json:"detail,omitempty"`

	// cut is a RecordCut event's stability cut, held in the ring slot's
	// own storage and rendered into Detail by Snapshot.
	cut []int64
}

// DefaultEventCap is the ring capacity used when none is given.
const DefaultEventCap = 1024

// EventLog is a bounded ring buffer of protocol events plus per-kind
// lifetime counters (the counters survive ring eviction, so
// faust_events_total stays accurate however small the ring). Append is
// mutex-guarded — protocol events are rare by design (each one is a
// detection or a notification, not a data operation), so a lock here costs
// nothing on the hot path.
type EventLog struct {
	mu   sync.Mutex
	buf  []Event
	cap  int
	seq  uint64
	next int // ring write position
	full bool

	counts sync.Map // EventKind -> *atomic.Int64

	// now is the clock, swappable by tests for deterministic timestamps.
	now func() time.Time
}

// NewEventLog creates an event log keeping the last capacity events
// (DefaultEventCap when capacity <= 0).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCap
	}
	return &EventLog{
		buf: make([]Event, capacity),
		cap: capacity,
		now: time.Now,
	}
}

// Record appends an event, stamping sequence number and time. Safe for
// concurrent use; sequence numbers are strictly increasing and assigned
// in timestamp order (both under the same lock).
func (l *EventLog) Record(kind EventKind, client int, shard, detail string) {
	l.mu.Lock()
	l.stamp(kind, client, shard, detail)
	l.mu.Unlock()
}

// RecordCut appends a stability-cut-advance event carrying the new cut W.
// Cuts advance about once per operation and the log is read rarely, so
// the detail ("W=[...]") is rendered by Snapshot, not here; cut is copied
// into the ring slot's reused storage and stays the caller's.
func (l *EventLog) RecordCut(client int, cut []int64) {
	l.mu.Lock()
	e := l.stamp(EventStabilityCut, client, "", "")
	e.cut = append(e.cut[:0], cut...)
	l.mu.Unlock()
}

// stamp fills the next ring slot and bumps the kind's lifetime counter
// (allocated the first time a kind is seen). The slot keeps its cut
// buffer for reuse. Caller holds l.mu.
func (l *EventLog) stamp(kind EventKind, client int, shard, detail string) *Event {
	cv, ok := l.counts.Load(kind)
	if !ok {
		cv, _ = l.counts.LoadOrStore(kind, new(atomic.Int64))
	}
	cv.(*atomic.Int64).Add(1)

	l.seq++
	e := &l.buf[l.next]
	*e = Event{
		Seq:    l.seq,
		Time:   l.now(),
		Kind:   kind,
		Client: client,
		Shard:  shard,
		Detail: detail,
		cut:    e.cut[:0],
	}
	l.next++
	if l.next == l.cap {
		l.next = 0
		l.full = true
	}
	return e
}

// Snapshot returns the retained events oldest-first, with the details of
// stability-cut events rendered.
func (l *EventLog) Snapshot() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	if l.full {
		out = append(make([]Event, 0, l.cap), l.buf[l.next:]...)
	}
	out = append(out, l.buf[:l.next]...)
	for i := range out {
		e := &out[i]
		if len(e.cut) > 0 {
			e.Detail = fmt.Sprintf("W=%v", e.cut)
		}
		e.cut = nil // ring storage: must not escape the lock
	}
	return out
}

// Total returns the lifetime count of events of the given kind, including
// ones already evicted from the ring.
func (l *EventLog) Total(kind EventKind) int64 {
	cv, ok := l.counts.Load(kind)
	if !ok {
		return 0
	}
	return cv.(*atomic.Int64).Load()
}

// Kinds returns every kind that has ever been recorded, sorted.
func (l *EventLog) Kinds() []EventKind {
	var out []EventKind
	l.counts.Range(func(k, _ any) bool {
		out = append(out, k.(EventKind))
		return true
	})
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
