package transport

import (
	"context"
	"time"

	"faust/internal/crypto"
	"faust/internal/obs"
	"faust/internal/obs/trace"
	"faust/internal/wire"
)

// The hub: the server half the TCP and in-memory transports share —
// everything but the socket.
//
// A hub is one core's inbox and dispatcher. Messages enter only through
// hub.admit (the TCP read loop, an in-memory link, Stepped.Admit) and
// leave only through the hub's deliver func — the transport's one
// delivery method, which both the dispatcher's coalesced replies and a
// GenericCore's pushes go through. Under load the inbox holds many queued
// operations, and every per-op cost that can legally be amortized across
// them should be. The dispatcher goroutine runs one loop with one body
// over whatever a drain returned:
//
//	drain     popBatch takes everything queued, up to the transport's cap
//	          (DefaultMaxBatch unless WithMaxBatch says otherwise),
//	          preserving arrival (and therefore per-connection FIFO) order
//	verify    SUBMIT signatures of the whole batch check in one call
//	          (crypto.VerifyBatch), one single check each — a forged one
//	          rejects only its own op
//	apply     verified ops run sequentially against the single-writer
//	          core, exactly as the paper's atomic handlers require; a
//	          BatchCore buffers its WAL appends
//	flush     a BatchCore makes the whole batch durable with one fsync
//	          instead of one per op
//	reply     replies coalesce into one framed write per destination
//
// A batch of one is a small batch, not a second code path: it verifies
// its one signature, flushes once and sends one reply. Batches never
// reorder: ops apply in arrival order and per-client reply order is
// preserved, so the reliable-FIFO contract the protocol assumes is
// untouched.

// DefaultMaxBatch caps how many envelopes one drain may take when the
// transport was not configured otherwise. Large enough to amortize the
// WAL fsync across a batch, small enough to bound the latency a first-in
// op waits for its batchmates' verify and apply stages: with -verify,
// every SUBMIT costs one single signature check on the dispatcher
// goroutine, so verification is paid per op, not per batch.
const DefaultMaxBatch = 64

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

// hub is one core's inbox and dispatcher. The transport sets name, core,
// ring, count and deliver; initHub sets the rest. The scratch buffers
// at the end belong to the dispatcher goroutine and are reused across
// batches, so the steady state allocates nothing per batch (the
// verifier's scratch is crypto's, pooled).
type hub struct {
	name  string // shard name for events; "" in memory
	core  ServerCore
	ring  *crypto.Keyring // nil = no SUBMIT verification
	count *obs.Counter    // per-shard dispatched-op counter; nil in memory
	// deliver sends messages to client `to` in order, as few transport
	// writes as possible. Failures are the destination's problem (dead
	// connection, closed outbox): the dispatcher never blocks on them.
	deliver func(to int, msgs []wire.Message) error

	inbox *fifo[envelope]
	bc    BatchCore   // core as a BatchCore, nil when it is not one
	gc    GenericCore // core as a GenericCore, nil when it is not one
	done  chan struct{}

	batch   []envelope
	ops     []batchOp
	jobs    []crypto.VerifyJob
	payload []byte
	msgs    []wire.Message
}

// initHub completes h — inbox, the core's optional extensions, a
// GenericCore's pusher as a one-message deliver — without starting its
// dispatcher: the transports then run `go h.run(maxBatch)`, while
// Stepped steps it with popBatch and runBatch.
func initHub(h *hub) {
	h.inbox = newFIFO[envelope]()
	h.done = make(chan struct{})
	h.bc, _ = h.core.(BatchCore)
	if h.gc, _ = h.core.(GenericCore); h.gc != nil {
		h.gc.AttachPusher(func(to int, m wire.Message) error { return h.deliver(to, []wire.Message{m}) })
	}
}

// Stepped is a hub without its dispatcher goroutine: the caller admits
// messages as a link would and runs each batch on its own goroutine, so
// a scheduler decides which messages share a batch and when it runs.
// Batches go through the same verify, apply, flush and reply body as
// the transports' dispatcher.
type Stepped struct{ h *hub }

// NewStepped returns a stepped hub over core; replies and a GenericCore's
// pushes leave through deliver, which must copy msgs if it keeps them.
func NewStepped(core ServerCore, deliver func(to int, msgs []wire.Message) error) *Stepped {
	h := &hub{core: core, deliver: deliver}
	initHub(h)
	return &Stepped{h: h}
}

// Admit queues a message from client `from` for the next Step.
func (s *Stepped) Admit(from int, m wire.Message) { s.h.admit(from, m) }

// Step runs the oldest admitted messages, at most max of them, as one
// batch. At least one message must have been admitted: Step blocks
// otherwise.
func (s *Stepped) Step(max int) {
	batch, _ := s.h.inbox.popBatch(max, s.h.batch[:0])
	s.h.batch = batch
	s.h.runBatch(batch)
}

// admit queues a message from client `from` for the dispatcher: the one
// place a message enters a server. False once the hub has stopped.
func (h *hub) admit(from int, m wire.Message) bool {
	return h.inbox.push(envelope{from: from, msg: m, enq: traceStamp(m)})
}

// stop closes the inbox and waits until the dispatcher has drained
// everything admitted before.
func (h *hub) stop() {
	h.inbox.close()
	<-h.done
}

// run is the dispatcher event loop: drain a batch of at most maxBatch
// envelopes (DefaultMaxBatch when maxBatch <= 0), pipeline it, repeat
// until the inbox closes and empties.
//
//faustlint:hotpath
func (h *hub) run(maxBatch int) {
	defer close(h.done)
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	for {
		batch, ok := h.inbox.popBatch(maxBatch, h.batch[:0])
		h.batch = batch
		if len(batch) == 0 {
			if !ok {
				return
			}
			continue
		}
		h.runBatch(batch)
	}
}

const submitRejectDetail = "SUBMIT signature verification failed"

// rejectSubmit accounts one refused SUBMIT: metrics plus a protocol
// event, mirroring how refused handshakes are surfaced.
func (h *hub) rejectSubmit(from int) {
	tmVerifyRejects.Inc()
	obs.Default().Events().Record(obs.EventSubmitReject, from, h.name, submitRejectDetail)
}

// runBatch pipelines a drained batch of one or more envelopes through
// verify, apply, flush and coalesced reply.
//
//faustlint:hotpath
func (h *hub) runBatch(batch []envelope) {
	if h.count != nil {
		h.count.Add(int64(len(batch)))
	}
	ops := h.ops[:0]
	jobs := h.jobs[:0]
	payload := h.payload[:0]

	// Stage 1 — classify: join traces, stamp queue waits, and build the
	// verification jobs. The sender must claim its own identity —
	// otherwise a replayed honest SUBMIT would verify under the victim's
	// key — and the signature must cover exactly the payload the client
	// signed. Job payloads slice into one shared scratch buffer; each
	// slice is taken immediately after its append, so later growth cannot
	// disturb it.
	for i := range batch {
		e := &batch[i]
		op := batchOp{job: jobNone}
		if m, isSubmit := e.msg.(*wire.Submit); isSubmit {
			op.isSubmit = true
			op.ctx, op.h = joinWireTrace(context.Background(), m.Inv.Trace, true, spanSrvSubmit)
			trace.Event(op.ctx, spanQueue, e.enq)
			op.start = time.Now()
			op.tid = exemplarID(m.Inv.Trace)
			if h.ring != nil {
				if m.Inv.Client != e.from {
					op.job = jobRejected
				} else {
					pstart := len(payload)
					payload = wire.AppendSubmitPayload(payload, m.Inv.Op, m.Inv.Reg, m.T, m.Inv.Trace)
					jobs = append(jobs, crypto.VerifyJob{
						Ring:    h.ring,
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
	h.ops = ops
	h.jobs = jobs
	h.payload = payload

	// Stage 2 — verify the whole batch's SUBMIT signatures.
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
				h.rejectSubmit(e.from)
				continue
			}
			if h.bc != nil {
				op.reply = h.bc.HandleSubmitBuffered(op.ctx, e.from, m)
				op.buffered = true
			} else {
				op.reply = h.core.HandleSubmit(op.ctx, e.from, m)
			}
		case *wire.Commit:
			start := time.Now()
			h.core.HandleCommit(context.Background(), e.from, m)
			tmCommitNs.ObserveSince(start)
		default:
			h.flushAndSend(batch[:i], ops[:i])
			if h.gc != nil {
				h.gc.HandleMessage(e.from, e.msg)
			}
		}
	}

	// Stages 4+5 — flush the BatchCore once, then send the batch's
	// replies coalesced per destination.
	h.flushAndSend(batch, ops)
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
func (h *hub) flushAndSend(batch []envelope, ops []batchOp) {
	first := 0
	for first < len(ops) && (ops[first].done || !ops[first].buffered) {
		first++
	}
	if first < len(ops) {
		var fstart time.Time
		if trace.Enabled() {
			fstart = time.Now()
		}
		err := h.bc.FlushBatch()
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
		msgs := append(h.msgs[:0], wire.Message(op.reply))
		for j := i + 1; j < len(ops); j++ {
			oj := &ops[j]
			if oj.done || oj.reply == nil || batch[j].from != from {
				continue
			}
			msgs = append(msgs, oj.reply)
			oj.done = true
		}
		h.msgs = msgs
		_ = h.deliver(from, msgs)
	}
}
