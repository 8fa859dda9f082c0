package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Spans are recorded by the decorators in spies.go, around the calls into
// each layer; nothing inside the program under test is touched and its
// own tracer (internal/obs/trace) stays off. Spans of one register
// operation share the key (client, Submit.T); spans of one KV operation
// share the key (client, op sequence number) carried in the context.

type spanKind uint8

const (
	spOp         spanKind = iota // ustor: client call, start to return
	spSend                       // transport: Link.Send of the SUBMIT
	spRPC                        // transport: Send(SUBMIT) start to Recv(REPLY) return
	spHandler                    // server core: HandleSubmit / HandleSubmitBuffered
	spBatchFlush                 // server core: FlushBatch, one span per op of the batch
	spApply                      // ustor: HandleSubmit on the volatile core under store.Persistent
	spAppend                     // store: Backend.Append of the SUBMIT record
	spFlush                      // store: Backend.Flush that had records to write (no key)
	spSnapshot                   // store: Backend.WriteSnapshot (no key)
	spCommit                     // server core: HandleCommit
	spKVOp                       // kv: Put / GetFrom / Get / Delete, start to return
	spKVReg                      // kv: Register.ReadX / WriteX issued by a KV op
	spKVBlob                     // kv: BlobChannel.PutBlob / GetBlob issued by a KV op
	numSpanKinds
)

var spanNames = [numSpanKinds]struct{ name, layer string }{
	spOp:         {"op", "ustor"},
	spSend:       {"send", "transport"},
	spRPC:        {"rpc", "transport"},
	spHandler:    {"handler", "store"},
	spBatchFlush: {"batch.flush", "store"},
	spApply:      {"apply", "ustor"},
	spAppend:     {"wal.append", "store"},
	spFlush:      {"wal.flush", "store"},
	spSnapshot:   {"wal.snapshot", "store"},
	spCommit:     {"commit", "ustor"},
	spKVOp:       {"kv.op", "kv"},
	spKVReg:      {"kv.register", "kv"},
	spKVBlob:     {"kv.blob", "transport"},
}

type span struct {
	kind   spanKind
	class  opClass
	client int32
	key    int64 // Submit.T, or the KV op sequence number; -1 when unkeyed
	start  int64 // ns since the clock base
	end    int64
}

func (s span) dur() int64 { return s.end - s.start }

// clock gives every decorator the same time base.
type clock struct{ base time.Time }

func newClock() *clock { return &clock{base: time.Now()} }

func (c *clock) now() int64 { return int64(time.Since(c.base)) }

// spanLog is one decorator's span buffer. Each decorator owns its own, so
// the lock is contended only where the wrapped interface itself is called
// from several goroutines.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// tracer hands out span logs and collects them when the run ends.
type tracer struct {
	clk  *clock
	mu   sync.Mutex
	logs []*spanLog
}

func newTracer() *tracer { return &tracer{clk: newClock()} }

func (t *tracer) newLog() *spanLog {
	l := &spanLog{}
	t.mu.Lock()
	t.logs = append(t.logs, l)
	t.mu.Unlock()
	return l
}

// collect returns every recorded span with start in [from,to), grouped by
// kind. Call it only after the workload's goroutines have stopped.
func (t *tracer) collect(from, to int64) [numSpanKinds][]span {
	var out [numSpanKinds][]span
	t.mu.Lock()
	logs := append([]*spanLog(nil), t.logs...)
	t.mu.Unlock()
	for _, l := range logs {
		l.mu.Lock()
		for _, s := range l.spans {
			if s.start >= from && s.start < to {
				out[s.kind] = append(out[s.kind], s)
			}
		}
		l.mu.Unlock()
	}
	return out
}

type opKey struct {
	client int32
	key    int64
}

func (s span) opKey() opKey { return opKey{s.client, s.key} }

func indexByKey(spans []span) map[opKey]span {
	m := make(map[opKey]span, len(spans))
	for _, s := range spans {
		m[s.opKey()] = s
	}
	return m
}

// containedDur sums, for every parent, the time of the children that
// start inside it. Parents must not overlap each other (the dispatcher
// calls the core from one goroutine, so handler and batch-flush spans do
// not). Both slices are sorted in place.
func containedDur(parents, children []span) map[opKey]int64 {
	sort.Slice(parents, func(i, j int) bool { return parents[i].start < parents[j].start })
	sort.Slice(children, func(i, j int) bool { return children[i].start < children[j].start })
	out := make(map[opKey]int64)
	ci := 0
	for _, p := range parents {
		for ci < len(children) && children[ci].start < p.start {
			ci++
		}
		for j := ci; j < len(children) && children[j].start < p.end; j++ {
			end := children[j].end
			if end > p.end {
				end = p.end
			}
			out[p.opKey()] += end - children[j].start
		}
	}
	return out
}

// unionDur is the length of the union of the spans' intervals: the wall
// time during which at least one of them was open. Blob fetches of one KV
// op run in parallel, so their sum would exceed the time the op waited.
func unionDur(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var total int64
	curS, curE := spans[0].start, spans[0].end
	for _, s := range spans[1:] {
		if s.start > curE {
			total += curE - curS
			curS, curE = s.start, s.end
			continue
		}
		if s.end > curE {
			curE = s.end
		}
	}
	return total + curE - curS
}

// traceEvent is one Chrome trace_event "complete" event; Perfetto and
// chrome://tracing both load a {"traceEvents": [...]} file of them.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"` // client index; 1000 = server
	TID  int            `json:"tid"` // span kind
	Args map[string]any `json:"args,omitempty"`
}

const (
	serverPID       = 1000
	traceFileMaxOps = 2000 // per client; keeps trace-<workload>.json a few MB
)

// writeTraceFile writes the spans of each client's first traceFileMaxOps
// keys as a Chrome trace. Server-side spans are shown under pid 1000 so a
// request reads left to right across the two process rows.
func writeTraceFile(path string, byKind [numSpanKinds][]span) error {
	firstKey := map[int32]int64{}
	for _, kind := range []spanKind{spOp, spKVOp} {
		for _, s := range byKind[kind] {
			if k, ok := firstKey[s.client]; !ok || s.key < k {
				firstKey[s.client] = s.key
			}
		}
	}
	var events []traceEvent
	for kind, spans := range byKind {
		for _, s := range spans {
			if s.key >= 0 {
				if base, ok := firstKey[s.client]; ok && s.key >= base+traceFileMaxOps {
					continue
				}
			} else if len(events) > 20*traceFileMaxOps {
				continue
			}
			pid := int(s.client)
			switch spanKind(kind) {
			case spHandler, spBatchFlush, spApply, spAppend, spFlush, spSnapshot, spCommit:
				pid = serverPID
			}
			events = append(events, traceEvent{
				Name: spanNames[kind].name,
				Cat:  spanNames[kind].layer,
				Ph:   "X",
				TS:   float64(s.start) / 1e3,
				Dur:  float64(s.dur()) / 1e3,
				PID:  pid,
				TID:  kind,
				Args: map[string]any{"client": s.client, "t": s.key},
			})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		_ = f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}
