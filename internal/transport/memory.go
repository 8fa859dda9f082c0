package transport

import (
	"sync/atomic"

	"faust/internal/crypto"
	"faust/internal/wire"
)

// Network is an in-memory star network connecting n clients to one server
// core over reliable FIFO links. It is a hub (batch.go) with per-client
// outboxes for a socket: links admit their messages into the hub, whose
// one dispatcher goroutine drains them in arrival-order batches and runs
// the core's handlers one at a time, exactly as Algorithm 2 assumes
// (batching changes how much the dispatcher takes per drain, never the
// application order); replies and pushes leave through deliver.
type Network struct {
	n        int
	hub      *hub
	outboxes []*fifo[wire.Message]
	links    []*memoryLink

	metrics  bool
	stats    Stats
	maxBatch int

	blobs BlobStore // nil = no bulk channel

	stopped atomic.Bool
}

// Option configures a Network.
type Option func(*Network)

// WithMetrics enables message counting and size accounting. Sizes are
// computed with the canonical codec, so in-memory runs report the same
// bytes a TCP deployment would send.
func WithMetrics() Option {
	return func(nw *Network) { nw.metrics = true }
}

// WithBlobStore attaches a bulk blob store to the network. Clients reach
// it through Network.BlobChannel; blob transfers run concurrently with
// the dispatcher, exactly as the TCP transport's blob connections do.
func WithBlobStore(bs BlobStore) Option {
	return func(nw *Network) { nw.blobs = bs }
}

// WithVerifier arms server-side SUBMIT-signature verification: the
// dispatcher checks every SUBMIT against the ring and silently drops
// forged ones. The protocol's guarantees never depend on this (the
// server is the untrusted party); it is admission hygiene, and it gives
// the batch pipeline its parallel verification stage.
func WithVerifier(ring *crypto.Keyring) Option {
	return func(nw *Network) { nw.hub.ring = ring }
}

// WithMaxBatch caps how many queued messages the dispatcher drains per
// batch (default DefaultMaxBatch). 1 disables batching: every drain is
// a batch of one.
func WithMaxBatch(n int) Option {
	return func(nw *Network) { nw.maxBatch = n }
}

// memoryLink is the client-side endpoint of an in-memory FIFO channel.
type memoryLink struct {
	nw     *Network
	id     int
	in     *fifo[wire.Message] // server -> client
	closed atomic.Bool
}

var _ Link = (*memoryLink)(nil)

// NewNetwork creates an in-memory network with n client links attached to
// the given server core and starts its hub.
func NewNetwork(n int, core ServerCore, opts ...Option) *Network {
	nw := &Network{
		n:        n,
		hub:      &hub{core: core},
		outboxes: make([]*fifo[wire.Message], n),
		links:    make([]*memoryLink, n),
	}
	for _, o := range opts {
		o(nw)
	}
	for i := 0; i < n; i++ {
		nw.outboxes[i] = newFIFO[wire.Message]()
		nw.links[i] = &memoryLink{nw: nw, id: i, in: nw.outboxes[i]}
	}
	nw.hub.deliver = nw.deliver
	initHub(nw.hub)
	go nw.hub.run(nw.maxBatch)
	return nw
}

// deliver is the network's one delivery method, for the dispatcher's
// replies and a GenericCore's pushes alike: account the messages, then
// queue them on client `to`'s outbox in one lock round.
func (nw *Network) deliver(to int, msgs []wire.Message) error {
	if to < 0 || to >= nw.n {
		return ErrClosed
	}
	if nw.metrics {
		atomic.AddInt64(&nw.stats.ServerToClientMsgs, int64(len(msgs)))
		var bytes int64
		for _, m := range msgs {
			bytes += int64(wire.EncodedSize(m))
		}
		atomic.AddInt64(&nw.stats.ServerToClientBytes, bytes)
	}
	if !nw.outboxes[to].pushAll(msgs) {
		return ErrClosed
	}
	return nil
}

// ClientLink returns the link endpoint for client i.
func (nw *Network) ClientLink(i int) Link { return nw.links[i] }

// Blobs returns the network's blob store, nil when none is attached.
func (nw *Network) Blobs() BlobStore { return nw.blobs }

// BlobChannel opens a bulk blob channel into the network's blob store.
// It fails when the network was created without WithBlobStore.
func (nw *Network) BlobChannel() (BlobChannel, error) {
	if nw.blobs == nil {
		return nil, ErrNoBlobStore
	}
	return &memBlobChannel{nw: nw}, nil
}

// countBlob accounts one blob transfer in the traffic counters.
// toServer is true for puts (client->server direction).
func (nw *Network) countBlob(toServer bool, bytes int) {
	if toServer {
		atomic.AddInt64(&nw.stats.ClientToServerMsgs, 1)
		atomic.AddInt64(&nw.stats.ClientToServerBytes, int64(bytes))
		return
	}
	atomic.AddInt64(&nw.stats.ServerToClientMsgs, 1)
	atomic.AddInt64(&nw.stats.ServerToClientBytes, int64(bytes))
}

// Stats returns a snapshot of the traffic counters. Valid only when the
// network was created WithMetrics.
func (nw *Network) Stats() Stats {
	return Stats{
		ClientToServerMsgs:  atomic.LoadInt64(&nw.stats.ClientToServerMsgs),
		ClientToServerBytes: atomic.LoadInt64(&nw.stats.ClientToServerBytes),
		ServerToClientMsgs:  atomic.LoadInt64(&nw.stats.ServerToClientMsgs),
		ServerToClientBytes: atomic.LoadInt64(&nw.stats.ServerToClientBytes),
	}
}

// Stop shuts the network down: all links close, the hub drains what it
// admitted, then blocked Recv calls return ErrClosed. Stop is idempotent.
func (nw *Network) Stop() {
	if nw.stopped.Swap(true) {
		return
	}
	for _, l := range nw.links {
		l.closed.Store(true)
	}
	nw.hub.stop()
	for _, q := range nw.outboxes {
		q.close()
	}
}

// Send enqueues a message toward the server.
func (l *memoryLink) Send(m wire.Message) error {
	if l.closed.Load() {
		return ErrClosed
	}
	if l.nw.metrics {
		atomic.AddInt64(&l.nw.stats.ClientToServerMsgs, 1)
		atomic.AddInt64(&l.nw.stats.ClientToServerBytes, int64(wire.EncodedSize(m)))
	}
	if !l.nw.hub.admit(l.id, m) {
		return ErrClosed
	}
	return nil
}

// Recv blocks for the next server message.
func (l *memoryLink) Recv() (wire.Message, error) {
	m, ok := l.in.pop()
	if !ok {
		return nil, ErrClosed
	}
	return m, nil
}

// Close closes only this client's endpoint; the rest of the network keeps
// running. Used to simulate client crashes.
func (l *memoryLink) Close() error {
	l.closed.Store(true)
	l.in.close()
	return nil
}
