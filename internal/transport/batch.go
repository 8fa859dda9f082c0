package transport

import (
	"context"
	"time"

	"faust/internal/crypto"
	"faust/internal/obs"
	"faust/internal/obs/trace"
	"faust/internal/wire"
)

// Batched dispatch pipeline, shared by the TCP and in-memory transports.
//
// Under load the inbox holds many queued operations, and every per-op
// cost that can legally be amortized across them should be. One dispatcher
// goroutine per sink runs one loop with one body over whatever a drain
// returned:
//
//	drain     popBatch takes everything queued, up to the -max-batch cap,
//	          preserving arrival (and therefore per-connection FIFO) order
//	verify    SUBMIT signatures of the whole batch check in parallel on
//	          crypto's worker pool — a forged one rejects only its own op
//	apply     verified ops run sequentially against the single-writer
//	          core, exactly as the paper's atomic handlers require; a
//	          BatchCore buffers its WAL appends
//	flush     a BatchCore makes the whole batch durable with one fsync
//	          instead of one per op
//	reply     replies coalesce into one framed write per destination
//
// A batch of one is a small batch, not a second code path: it verifies
// inline (crypto.VerifyBatch does not fan out below two jobs), flushes
// once and sends one reply. Batches never reorder: ops apply in arrival
// order and per-client reply order is preserved, so the reliable-FIFO
// contract the protocol assumes is untouched.

// DefaultMaxBatch caps how many envelopes one drain may take when the
// transport was not configured otherwise. Large enough to amortize fsync
// and verification fan-out, small enough to bound the latency a first-in
// op waits for its batchmates' apply stage.
const DefaultMaxBatch = 64

// oversizedBatch is the size from which a drained batch is considered
// queue-pressure evidence worth linking to a trace: the batch-size
// histogram then records the batch's first traced SUBMIT as its exemplar.
const oversizedBatch = 32

// batchSink is the transport-specific half of the pipeline: the core and
// (optional) verification keyring a dispatcher serves, and how replies
// leave the server. shardRT implements it for TCP, Network for the
// in-memory transport, which is what lets both run the same dispatch
// engine — and the same drain-after-close semantics.
type batchSink interface {
	sinkCore() ServerCore
	sinkRing() *crypto.Keyring
	sinkName() string
	// countOp accounts one dispatched envelope (per-tenant op counters).
	countOp()
	// sendReplies delivers a batch's replies for client `to` in order,
	// coalesced into as few transport writes as possible. Delivery
	// failures are the destination's problem (dead connection, closed
	// outbox) — the dispatcher never blocks on them.
	sendReplies(to int, msgs []wire.Message)
	// dropUnknown accounts a message kind the core cannot handle.
	dropUnknown()
}

// BatchCore is an optional ServerCore extension for cores whose
// durability barrier can cover many operations at once. The dispatcher
// applies a batch's ops through HandleSubmitBuffered — append and apply,
// no flush — and calls FlushBatch once per batch; replies are withheld
// until the flush succeeds, so the "no client observes an operation
// recovery cannot replay" invariant of store.Persistent holds unchanged,
// at one fsync per batch instead of one per op. store.Persistent
// implements it structurally.
type BatchCore interface {
	ServerCore
	HandleSubmitBuffered(ctx context.Context, from int, s *wire.Submit) *wire.Reply
	FlushBatch() error
}

// verify-job markers for batchOp.job.
const (
	jobNone     = -1 // no verification configured for this dispatcher
	jobRejected = -2 // rejected before verification (sender id mismatch)
)

// batchOp is the pipeline's per-SUBMIT state across stages. Ops stay
// index-aligned with their batch envelopes; COMMIT and generic messages
// use their slot for done-keeping only (job stays jobNone).
type batchOp struct {
	ctx      context.Context
	h        trace.Handle
	start    time.Time
	tid      trace.TraceID
	job      int
	reply    *wire.Reply
	isSubmit bool
	buffered bool // applied through HandleSubmitBuffered: reply waits for FlushBatch
	done     bool
}

// dispatcher is one dispatcher goroutine's state: the sink it serves,
// with its core's optional extensions resolved once, and the reusable
// buffers — the steady state allocates nothing per batch beyond what
// crypto's pool needs for fan-out.
type dispatcher struct {
	sink batchSink
	core ServerCore
	bc   BatchCore       // core as a BatchCore, nil when it is not one
	ring *crypto.Keyring // nil = no SUBMIT verification

	batch   []envelope
	ops     []batchOp
	jobs    []crypto.VerifyJob
	payload []byte
	msgs    []wire.Message
}

func newDispatcher(sink batchSink) *dispatcher {
	d := &dispatcher{sink: sink, core: sink.sinkCore(), ring: sink.sinkRing()}
	d.bc, _ = d.core.(BatchCore)
	return d
}

// dispatchBatches is the dispatcher event loop both transports run: drain
// a batch, pipeline it, repeat until the inbox closes and empties.
func dispatchBatches(q *fifo[envelope], sink batchSink, maxBatch int) {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	d := newDispatcher(sink)
	for {
		batch, ok := q.popBatch(maxBatch, d.batch[:0])
		d.batch = batch
		if len(batch) == 0 {
			if !ok {
				return
			}
			continue
		}
		observeBatchSize(batch)
		d.runBatch(batch)
	}
}

// observeBatchSize feeds the dispatch batch-size histogram; oversized
// batches pin their first traced SUBMIT as the histogram exemplar so a
// queue-pressure spike links straight to a trace of an op that sat in it.
func observeBatchSize(batch []envelope) {
	var tid trace.TraceID
	if len(batch) >= oversizedBatch {
		for i := range batch {
			if s, ok := batch[i].msg.(*wire.Submit); ok {
				if id := exemplarID(s.Inv.Trace); !id.IsZero() {
					tid = id
					break
				}
			}
		}
	}
	tmBatchSize.ObserveExemplarAlways(int64(len(batch)), tid)
}

const submitRejectDetail = "SUBMIT signature verification failed"

// rejectSubmit accounts one refused SUBMIT: metrics plus a protocol
// event, mirroring how handshake preflight rejections are surfaced.
func (d *dispatcher) rejectSubmit(from int) {
	tmVerifyRejects.Inc()
	obs.Default().Events().Record(obs.EventSubmitReject, from, d.sink.sinkName(), submitRejectDetail)
}

// runBatch pipelines a drained batch of one or more envelopes through
// verify, apply, flush and coalesced reply.
//
//faustlint:hotpath
func (d *dispatcher) runBatch(batch []envelope) {
	ops := d.ops[:0]
	jobs := d.jobs[:0]
	payload := d.payload[:0]

	// Stage 1 — classify: join traces, stamp queue waits, and build the
	// verification jobs. The sender must claim its own identity —
	// otherwise a replayed honest SUBMIT would verify under the victim's
	// key — and the signature must cover exactly the payload the client
	// signed. Job payloads slice into one shared scratch buffer; each
	// slice is taken immediately after its append, so later growth cannot
	// disturb it.
	for i := range batch {
		e := &batch[i]
		d.sink.countOp()
		op := batchOp{job: jobNone}
		if m, isSubmit := e.msg.(*wire.Submit); isSubmit {
			op.isSubmit = true
			op.ctx, op.h = joinWireTrace(context.Background(), m.Inv.Trace, true, spanSrvSubmit)
			trace.Event(op.ctx, spanQueue, e.enq)
			op.start = obs.StartTimer()
			op.tid = exemplarID(m.Inv.Trace)
			if d.ring != nil {
				if m.Inv.Client != e.from {
					op.job = jobRejected
				} else {
					pstart := len(payload)
					payload = wire.AppendSubmitPayload(payload, m.Inv.Op, m.Inv.Reg, m.T, m.Inv.Trace)
					jobs = append(jobs, crypto.VerifyJob{
						Ring:    d.ring,
						Signer:  e.from,
						Domain:  crypto.DomainSubmit,
						Sig:     m.Inv.SubmitSig,
						Payload: payload[pstart:len(payload):len(payload)],
					})
					op.job = len(jobs) - 1
				}
			}
		}
		ops = append(ops, op)
	}
	d.ops = ops
	d.jobs = jobs
	d.payload = payload

	// Stage 2 — verify the whole batch at once, fanning out across the
	// shared worker pool when it is wide enough to pay off.
	if len(jobs) > 0 {
		var vstart time.Time
		if trace.Enabled() {
			vstart = time.Now()
		}
		crypto.VerifyBatch(jobs)
		for i := range ops {
			if ops[i].job >= 0 {
				trace.Event(ops[i].ctx, spanVerify, vstart)
			}
		}
	}

	// Stage 3 — apply in arrival order. SUBMITs against a BatchCore
	// buffer their WAL append; a plain ServerCore has no durability
	// barrier to share, so its HandleSubmit is the whole apply. A message
	// kind with server-push semantics (GenericCore) is a barrier: the
	// prefix must flush and reply first, or its handler could push
	// messages that overtake replies owed to the same client.
	for i := range batch {
		e := &batch[i]
		op := &ops[i]
		switch m := e.msg.(type) {
		case *wire.Submit:
			if op.job == jobRejected || (op.job >= 0 && !jobs[op.job].OK) {
				d.rejectSubmit(e.from)
				continue
			}
			if d.bc != nil {
				op.reply = d.bc.HandleSubmitBuffered(op.ctx, e.from, m)
				op.buffered = true
			} else {
				op.reply = d.core.HandleSubmit(op.ctx, e.from, m)
			}
		case *wire.Commit:
			start := obs.StartTimer()
			d.core.HandleCommit(context.Background(), e.from, m)
			tmCommitNs.ObserveSince(start)
		default:
			d.flushAndSend(batch[:i], ops[:i])
			if gc, ok := d.core.(GenericCore); ok {
				gc.HandleMessage(e.from, e.msg)
				continue
			}
			d.sink.dropUnknown()
		}
	}

	// Stages 4+5 — flush the BatchCore once, then send the batch's
	// replies coalesced per destination.
	d.flushAndSend(batch, ops)
}

// flushAndSend settles every not-yet-done op in the prefix: batch-flush
// the core if the prefix buffered anything (suppressing every reply the
// flush covered when it fails — the clients must observe silence, and the
// core has poisoned itself), close the SUBMITs' spans and latency
// observations, then deliver replies grouped by destination in arrival
// order. Idempotent per op via the done flag, so the mid-batch barrier
// and the final call compose.
//
//faustlint:hotpath
func (d *dispatcher) flushAndSend(batch []envelope, ops []batchOp) {
	first := 0
	for first < len(ops) && (ops[first].done || !ops[first].buffered) {
		first++
	}
	if first < len(ops) {
		var fstart time.Time
		if trace.Enabled() {
			fstart = time.Now()
		}
		err := d.bc.FlushBatch()
		for i := first; i < len(ops); i++ {
			op := &ops[i]
			if op.done || !op.buffered {
				continue
			}
			if err != nil {
				op.reply = nil
			}
			trace.Event(op.ctx, spanBatchFlush, fstart)
		}
	}

	// Before any reply leaves: a client holding its reply must find the
	// server's half of the operation's trace complete.
	for i := range ops {
		op := &ops[i]
		if op.isSubmit && !op.done {
			tmSubmitNs.ObserveSinceExemplar(op.start, op.tid)
			op.h.End()
		}
	}

	for i := range ops {
		op := &ops[i]
		if op.done {
			continue
		}
		op.done = true
		if op.reply == nil {
			continue
		}
		from := batch[i].from
		msgs := append(d.msgs[:0], wire.Message(op.reply))
		for j := i + 1; j < len(ops); j++ {
			oj := &ops[j]
			if oj.done || oj.reply == nil || batch[j].from != from {
				continue
			}
			msgs = append(msgs, oj.reply)
			oj.done = true
		}
		d.msgs = msgs
		d.sink.sendReplies(from, msgs)
	}
}
