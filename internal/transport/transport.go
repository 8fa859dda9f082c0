// Package transport provides the communication substrate of the model in
// Section 2 of the paper: asynchronous reliable FIFO channels between each
// client and the server.
//
// Two implementations share one interface: an in-memory network used by
// tests, simulations and benchmarks (optionally with randomized
// per-message delays to exercise asynchrony), and a TCP transport used by
// the cmd/ tools. Both preserve per-link FIFO order and never drop
// messages while open; that is exactly the reliability the protocol
// assumes.
//
// On the server side the two share everything but the socket: each core
// sits behind a hub (batch.go) whose admit is the one place a message
// enters the server and whose dispatcher goroutine drains the inbox in
// arrival-order batches, putting every batch — a batch of one included —
// through one body: verify, apply, flush, reply. Replies and a
// GenericCore's pushes leave through the transport's one delivery method:
// Network.deliver queues on a client's outbox, shardRT.deliver writes
// one frame batch on the client's connection. The TCP transport has one
// handshake — one ShardResolver call, acked by the server and bounded by
// a timeout on both ends (tcp.go) — and a bulk blob channel beside the
// protocol connections (blob.go).
package transport

import (
	"context"
	"errors"
	"sync"
	"time"

	"faust/internal/wire"
)

// ErrClosed is returned by link operations after the link has been closed.
var ErrClosed = errors.New("transport: link closed")

// Link is one endpoint of a reliable FIFO duplex channel between a client
// and the server. Send never blocks (channels are unbounded, matching the
// asynchronous model); Recv blocks until a message arrives or the link
// closes.
type Link interface {
	Send(m wire.Message) error
	Recv() (wire.Message, error)
	Close() error
}

// ServerCore is the pure state machine of a storage server. The network
// delivers each arriving message to exactly one handler call; calls are
// serialized, matching the paper's atomic event handlers ("the server
// processes arriving SUBMIT messages in FIFO order, and the execution of
// each event handler is atomic").
//
// HandleSubmit returns the REPLY to send back to the submitting client.
// A nil reply means the server sends nothing (only Byzantine servers do
// that; a correct server always replies, which is what makes the protocol
// wait-free).
//
// The context carries the operation's tracing context (when the SUBMIT
// arrived with one) so wrapping cores — the durable store, the USTOR
// state machine — can attach their stages to the request's trace. Cores
// must not use it for cancellation: the protocol's atomic handlers run
// to completion.
type ServerCore interface {
	HandleSubmit(ctx context.Context, from int, s *wire.Submit) *wire.Reply
	HandleCommit(ctx context.Context, from int, c *wire.Commit)
}

// GenericCore is an optional extension of ServerCore for protocols whose
// servers push messages to arbitrary clients at arbitrary times — the
// lock-step baseline defers its replies until the previous operation
// commits, so a plain request-reply core does not fit it.
//
// When the core implements GenericCore, the network calls AttachPusher
// once before dispatch starts, and routes every message that is neither a
// SUBMIT nor a COMMIT to HandleMessage (still serialized with all other
// handler calls).
type GenericCore interface {
	HandleMessage(from int, m wire.Message)
	AttachPusher(push func(to int, m wire.Message) error)
}

// envelope tags a message with its sender for a server inbox. enq is the
// enqueue stamp for the dispatcher queue-wait span; it is zero when
// tracing is off so the disabled path never reads the clock.
type envelope struct {
	from int
	msg  wire.Message
	enq  time.Time
}

// fifo is the one queue of the transport layer: an unbounded FIFO with
// blocking pop over a ring buffer, used for the in-memory network's
// inbox, outboxes and delay pumps and for the TCP server's per-shard
// inboxes. The ring doubles when full and is otherwise reused in place,
// so a queue in steady state allocates nothing. push returns false once
// the queue is closed; pop blocks until an item is available or the queue
// closes (items queued before close are still delivered — reliable
// channel).
type fifo[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ring   []T // len is zero or a power of two
	head   int // index of the oldest item
	n      int // items queued
	closed bool
}

func newFIFO[T any]() *fifo[T] {
	q := &fifo[T]{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// put appends v, doubling the ring when it is full. Caller holds q.mu.
func (q *fifo[T]) put(v T) {
	if q.n == len(q.ring) {
		grown := make([]T, max(8, 2*len(q.ring)))
		k := copy(grown, q.ring[q.head:])
		copy(grown[k:], q.ring[:q.head])
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = v
	q.n++
}

// drop forgets the k oldest items, zeroing their slots so the ring does
// not keep delivered messages alive. Caller holds q.mu.
func (q *fifo[T]) drop(k int) {
	var zero T
	for i := 0; i < k; i++ {
		q.ring[(q.head+i)&(len(q.ring)-1)] = zero
	}
	q.head = (q.head + k) & (len(q.ring) - 1)
	q.n -= k
}

func (q *fifo[T]) push(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.put(v)
	q.cond.Signal()
	return true
}

// pushAll appends a batch of items atomically — one lock round and one
// wake-up for a whole batch of coalesced replies.
func (q *fifo[T]) pushAll(vs []T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	for _, v := range vs {
		q.put(v)
	}
	q.cond.Broadcast()
	return true
}

func (q *fifo[T]) pop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.n == 0 {
		var zero T
		return zero, false
	}
	v := q.ring[q.head]
	q.drop(1)
	return v, true
}

// popBatch blocks like pop, then drains up to max queued items (all of
// them when max <= 0) into buf and returns the extended slice. Items
// queued before close are still delivered — the drain path after close
// behaves exactly like the live path, batching included. The second
// return is false only when the queue is closed AND empty.
//
//faustlint:hotpath
func (q *fifo[T]) popBatch(max int, buf []T) ([]T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.cond.Wait()
	}
	k := q.n
	if k == 0 {
		return buf, false
	}
	if max > 0 && k > max {
		k = max
	}
	// The k oldest items are one run of the ring, or two when it wraps.
	first := min(k, len(q.ring)-q.head)
	buf = append(buf, q.ring[q.head:q.head+first]...)
	buf = append(buf, q.ring[:k-first]...)
	q.drop(k)
	return buf, true
}

func (q *fifo[T]) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// Stats aggregates message counts and encoded sizes per direction. It is
// populated only when the network is created with metrics enabled.
type Stats struct {
	ClientToServerMsgs  int64
	ClientToServerBytes int64
	ServerToClientMsgs  int64
	ServerToClientBytes int64
}

// RoundsPerOp returns the average number of client->server->client message
// rounds per operation, assuming every operation sends SUBMIT + COMMIT and
// receives one REPLY. It exists for the E5 experiment.
func (s Stats) RoundsPerOp(ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(s.ServerToClientMsgs) / float64(ops)
}
