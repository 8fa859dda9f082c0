package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"sync"
	"sync/atomic"

	"faust/internal/obs/trace"
	"faust/internal/wire"
)

// The bulk blob channel. The KV layer stores large values as
// content-addressed chunks and its directory tree as content-addressed
// nodes; moving them through the USTOR request path would serialize bulk
// transfers behind the shard dispatcher and bloat the O(n) protocol
// messages. Instead every transport offers a second, independent channel
// that speaks only wire.BlobPut/BlobGet and talks directly to a
// BlobStore — concurrent with the dispatcher, with many requests in
// flight per channel (requests carry IDs; responses are matched as they
// arrive, so a batch of fetches pays one round trip, not one per blob).
//
// The channel is deliberately unauthenticated (the server is the
// untrusted party either way): readers recompute the content hash of
// every blob they receive, and the hashes themselves are integrity-
// protected by the KV directory whose Merkle root lives in a fail-aware
// register.
//
// Like the SUBMIT path — where any connection presenting an in-range
// client id may stream arbitrarily many operations — the blob channel
// imposes no identity, quota, or rate limit beyond the per-blob size
// cap: resource exhaustion by a network-level attacker is outside the
// protocol's threat model (it protects DATA, not AVAILABILITY; the
// paper's server can always refuse service). Deployments that care
// should front the listener with network ACLs, exactly as they would
// add TLS for confidentiality (see the transport comment in tcp.go).

// MaxBlobSize bounds a single blob. It stays under the TCP frame limit
// with room for framing.
const MaxBlobSize = 8 << 20

// ErrNoBlobStore is returned when the server side has no blob store
// configured for the requested shard.
var ErrNoBlobStore = fmt.Errorf("transport: no blob store")

// ErrBlobChannelBroken marks blob-channel failures caused by the
// underlying connection (dial, send, receive, decode) rather than by the
// request itself. A channel that returned such an error is permanently
// poisoned; callers who want to survive transient drops wrap the channel
// with NewRedialBlobChannel, which retries exactly these errors on a
// fresh connection. Server-side answers (a rejected put, a store error, a
// missing blob) are NOT tagged with it — redialing cannot fix those.
var ErrBlobChannelBroken = errors.New("transport: blob channel broken")

// BlobStore is the server-side storage of the bulk channel: a flat
// content-addressed blob namespace. Implementations must be safe for
// concurrent use. A missing blob reads as an error wrapping fs.ErrNotExist.
//
// PutBlob stores verbatim under the given hash WITHOUT verifying that the
// hash matches the data: the server verifies nothing in this protocol,
// and it is the reader's job to check content hashes. Tests exploit this
// to plant tampered chunks.
type BlobStore interface {
	PutBlob(hash, data []byte) error
	GetBlob(hash []byte) ([]byte, error)
}

// BlobStoreCtx is an optional BlobStore extension for stores that want
// the request's tracing context — the replicated blob fleet records its
// per-backend attempts and retries as spans of the operation's trace.
// BlobStore itself keeps context-free signatures: most stores (files, a
// map) have nothing to trace, and the interface is implemented widely.
type BlobStoreCtx interface {
	PutBlobCtx(ctx context.Context, hash, data []byte) error
	GetBlobCtx(ctx context.Context, hash []byte) ([]byte, error)
}

// putBlobStore routes a put to bs, through the ctx-aware entry point
// when the store offers one.
func putBlobStore(ctx context.Context, bs BlobStore, hash, data []byte) error {
	if tc, ok := bs.(BlobStoreCtx); ok {
		return tc.PutBlobCtx(ctx, hash, data)
	}
	return bs.PutBlob(hash, data)
}

func getBlobStore(ctx context.Context, bs BlobStore, hash []byte) ([]byte, error) {
	if tc, ok := bs.(BlobStoreCtx); ok {
		return tc.GetBlobCtx(ctx, hash)
	}
	return bs.GetBlob(hash)
}

// BlobChannel is the client-side handle of the bulk channel.
// Implementations are safe for concurrent use and keep concurrent calls
// in flight simultaneously — the TCP channel pipelines them over one
// connection using wire-level request IDs — so a caller that wants
// parallel transfers simply issues them from several goroutines.
//
// The context carries the operation's tracing context (attached to the
// wire messages so server-side spans join the same trace); it is not
// used for cancellation. Untraced callers pass context.Background().
type BlobChannel interface {
	PutBlob(ctx context.Context, hash, data []byte) error
	GetBlob(ctx context.Context, hash []byte) ([]byte, error)
	Close() error
}

// errBlobNotFound wraps fs.ErrNotExist with the hash for diagnostics.
func errBlobNotFound(hash []byte) error {
	return fmt.Errorf("blob %x: %w", shortHash(hash), fs.ErrNotExist)
}

func shortHash(hash []byte) []byte {
	if len(hash) > 8 {
		return hash[:8]
	}
	return hash
}

// checkBlobSizes validates a put against the channel limits.
func checkBlobSizes(hash, data []byte) error {
	if len(hash) == 0 {
		return fmt.Errorf("transport: empty blob hash")
	}
	if len(hash) > 64 {
		return fmt.Errorf("transport: blob hash of %d bytes exceeds limit 64", len(hash))
	}
	if len(data) > MaxBlobSize {
		return fmt.Errorf("transport: blob of %d bytes exceeds limit %d", len(data), MaxBlobSize)
	}
	return nil
}

// MemBlobs is the in-memory BlobStore: a map from hash to bytes. Safe for
// concurrent use.
type MemBlobs struct {
	mu sync.RWMutex
	m  map[string][]byte
}

var _ BlobStore = (*MemBlobs)(nil)

// NewMemBlobs creates an empty in-memory blob store.
func NewMemBlobs() *MemBlobs {
	return &MemBlobs{m: make(map[string][]byte)}
}

// PutBlob stores a copy of data under hash, overwriting any previous
// blob. No hash verification happens here (see BlobStore).
func (b *MemBlobs) PutBlob(hash, data []byte) error {
	if err := checkBlobSizes(hash, data); err != nil {
		return err
	}
	cp := append([]byte(nil), data...)
	b.mu.Lock()
	b.m[string(hash)] = cp
	b.mu.Unlock()
	return nil
}

// GetBlob returns a copy of the blob stored under hash.
func (b *MemBlobs) GetBlob(hash []byte) ([]byte, error) {
	b.mu.RLock()
	data, ok := b.m[string(hash)]
	b.mu.RUnlock()
	if !ok {
		return nil, errBlobNotFound(hash)
	}
	return append([]byte(nil), data...), nil
}

// Len returns the number of stored blobs.
func (b *MemBlobs) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.m)
}

// serveBlobMsg executes one decoded blob-channel request against a store
// and returns the response message, echoing the request's ID so a
// pipelining client can match it. Shared by the TCP connection loop and
// the in-memory channel. When the request carries a trace context, the
// store call runs as a span of that trace (joined non-final: one KV
// operation issues many blob requests against the same trace).
func serveBlobMsg(bs BlobStore, m wire.Message) wire.Message {
	switch req := m.(type) {
	case *wire.BlobPut:
		ctx, h := joinWireTrace(context.Background(), req.Trace, false, spanBlobPut)
		defer h.End()
		// Enforce the channel limits here so every store behind the
		// server — in-memory or file-backed — rejects oversized blobs
		// uniformly, whatever its own validation does.
		err := checkBlobSizes(req.Hash, req.Data)
		if err == nil {
			err = putBlobStore(ctx, bs, req.Hash, req.Data)
		}
		if err != nil {
			return &wire.BlobAck{ID: req.ID, Hash: req.Hash, OK: false, Msg: err.Error()}
		}
		return &wire.BlobAck{ID: req.ID, Hash: req.Hash, OK: true}
	case *wire.BlobGet:
		ctx, h := joinWireTrace(context.Background(), req.Trace, false, spanBlobGet)
		defer h.End()
		data, err := getBlobStore(ctx, bs, req.Hash)
		switch {
		case err == nil:
			return &wire.BlobData{ID: req.ID, Hash: req.Hash, Found: true, Data: data}
		case errors.Is(err, fs.ErrNotExist):
			return &wire.BlobData{ID: req.ID, Hash: req.Hash, Found: false}
		default:
			// A real store failure (I/O error, permissions) must not
			// masquerade as "not found" — answer with an explicit error
			// ack so operators and callers can tell the two apart.
			return &wire.BlobAck{ID: req.ID, Hash: req.Hash, OK: false, Msg: err.Error()}
		}
	default:
		return nil
	}
}

// parseBlobHello decodes a blob-channel handshake frame.
func parseBlobHello(hello []byte) (shardName string, err error) {
	if len(hello) < helloMinLen-4 || !bytes.Equal(hello[:4], blobMagic[:]) {
		return "", fmt.Errorf("transport: malformed blob handshake frame (%d bytes)", len(hello))
	}
	nameLen := int(binary.BigEndian.Uint16(hello[4:6]))
	if nameLen == 0 || nameLen > maxShardNameLen || len(hello) != 6+nameLen {
		return "", fmt.Errorf("transport: malformed blob handshake (name length %d in %d-byte frame)", nameLen, len(hello))
	}
	return string(hello[6:]), nil
}

// serveBlobConn runs one bulk blob-channel connection: resolve the named
// shard's blob store, ack, then serve BLOB_PUT/BLOB_GET requests directly
// on this goroutine. The caller has already read the hello frame through
// br, the connection's reader.
func (s *TCPServer) serveBlobConn(conn net.Conn, br *bufio.Reader, hello []byte) {
	name, err := parseBlobHello(hello)
	var sh Shard
	if err == nil {
		sh, err = s.resolver.ResolveShard(name, -1)
	}
	if err == nil && sh.Blobs == nil {
		err = ErrNoBlobStore
	}
	if !s.ack(conn, -1, name, err) {
		return
	}
	if !s.registerBlobConn(conn) {
		_ = conn.Close()
		return
	}
	tmConnsBlob.Inc()
	defer func() {
		s.mu.Lock()
		delete(s.blobConns, conn)
		s.mu.Unlock()
		tmConnsBlob.Dec()
		_ = conn.Close()
	}()

	var wmu sync.Mutex
	for {
		payload, err := readFrame(br)
		if err != nil {
			return
		}
		tmFramesIn.Inc()
		msg, err := wire.Decode(payload)
		if err != nil {
			return
		}
		tmBlobReqs.Inc()
		resp := serveBlobMsg(sh.Blobs, msg)
		if resp == nil {
			return // non-blob message on a blob connection: protocol error
		}
		if err := writeFramedMsg(conn, &wmu, resp); err != nil {
			return
		}
	}
}

// registerBlobConn moves a connection from the pending set into the blob
// registry so Stop closes it. Returns false when the server stopped.
func (s *TCPServer) registerBlobConn(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pending, conn)
	if s.stopped {
		return false
	}
	s.blobConns[conn] = struct{}{}
	return true
}

// DialTCPBlob opens a bulk blob channel to the named shard of a
// TCPServer at addr. The server must host a blob store for the shard
// (its resolver's Shard.Blobs); otherwise the handshake is rejected with
// the reason. An empty shard name targets the default
// shard. The channel is safe for concurrent use and pipelines concurrent
// requests over the one connection: each carries a request ID, responses
// are matched as they arrive, so a batch of fetches from several
// goroutines pays one round trip rather than one per blob.
func DialTCPBlob(addr, shard string) (BlobChannel, error) {
	conn, br, err := dialHello(addr, blobMagic[:], shard, "blob handshake", handshakeTimeout)
	if err != nil {
		return nil, err
	}
	c := &tcpBlobChannel{conn: conn, pending: make(map[uint32]chan wire.Message)}
	go c.readLoop(br)
	return c, nil
}

// tcpBlobChannel is the client side of one blob-channel connection, with
// request pipelining: any number of requests may be in flight at once,
// each tagged with a connection-local ID. A single reader goroutine
// demultiplexes responses to their waiting callers by ID, so concurrent
// fetches share the connection without serializing on round trips.
type tcpBlobChannel struct {
	conn net.Conn
	wmu  sync.Mutex // serializes frame writes

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]chan wire.Message // in-flight requests by ID
	err     error                        // sticky; set once the reader dies
}

var _ BlobChannel = (*tcpBlobChannel)(nil)

// readLoop is the demultiplexer: it reads response frames until the
// connection dies and hands each to the caller waiting on its request ID.
func (c *tcpBlobChannel) readLoop(br *bufio.Reader) {
	for {
		payload, err := readFrame(br)
		if err != nil {
			c.fail(fmt.Errorf("transport: blob recv: %w", err))
			return
		}
		m, err := wire.Decode(payload)
		if err != nil {
			c.fail(fmt.Errorf("transport: blob decode: %w", err))
			return
		}
		var id uint32
		switch resp := m.(type) {
		case *wire.BlobAck:
			id = resp.ID
		case *wire.BlobData:
			id = resp.ID
		default:
			c.fail(fmt.Errorf("transport: blob channel answered with a %T", m))
			return
		}
		c.mu.Lock()
		ch := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ch == nil {
			// A response for a request nobody is waiting on: the server
			// is confused or malicious; the channel is unusable.
			c.fail(fmt.Errorf("transport: blob response for unknown request id %d", id))
			return
		}
		ch <- m
	}
}

// fail poisons the channel: the sticky error is recorded and every
// in-flight caller is released with it (closed channel). The sticky
// error wraps ErrBlobChannelBroken so redialing wrappers can recognize
// connection-level death.
func (c *tcpBlobChannel) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = fmt.Errorf("%w: %v", ErrBlobChannelBroken, err)
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.mu.Unlock()
	_ = c.conn.Close()
}

// roundTrip registers a request ID, sends the message build(id) produces,
// and blocks until the reader delivers the matching response. Other
// callers' requests proceed concurrently.
func (c *tcpBlobChannel) roundTrip(build func(id uint32) wire.Message) (wire.Message, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	id := c.nextID
	c.nextID++
	ch := make(chan wire.Message, 1)
	c.pending[id] = ch
	c.mu.Unlock()
	tmBlobInflight.Inc()
	defer tmBlobInflight.Dec()

	if err := writeFramedMsg(c.conn, &c.wmu, build(id)); err != nil {
		c.mu.Lock()
		if c.pending[id] == ch {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		// A failed frame write means the connection is gone; tag it so a
		// redialing wrapper knows a fresh dial may succeed.
		return nil, fmt.Errorf("transport: blob send: %w: %v", ErrBlobChannelBroken, err)
	}
	m, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return nil, err
	}
	return m, nil
}

// PutBlob implements BlobChannel. The request carries ctx's trace
// context so the server's store spans join the operation's trace; the
// round trip itself is recorded as a blob.rpc span.
func (c *tcpBlobChannel) PutBlob(ctx context.Context, hash, data []byte) error {
	if err := checkBlobSizes(hash, data); err != nil {
		return err
	}
	ctx, h := trace.Child(ctx, spanBlobRPC)
	defer h.End()
	tc := WireTrace(ctx)
	m, err := c.roundTrip(func(id uint32) wire.Message {
		return &wire.BlobPut{ID: id, Hash: hash, Data: data, Trace: tc}
	})
	if err != nil {
		return err
	}
	ack, ok := m.(*wire.BlobAck)
	if !ok || !bytes.Equal(ack.Hash, hash) {
		return fmt.Errorf("transport: blob put answered with a mismatched %T", m)
	}
	if !ack.OK {
		return fmt.Errorf("transport: blob put rejected: %s", ack.Msg)
	}
	return nil
}

// GetBlob implements BlobChannel.
func (c *tcpBlobChannel) GetBlob(ctx context.Context, hash []byte) ([]byte, error) {
	ctx, h := trace.Child(ctx, spanBlobRPC)
	defer h.End()
	tc := WireTrace(ctx)
	m, err := c.roundTrip(func(id uint32) wire.Message {
		return &wire.BlobGet{ID: id, Hash: hash, Trace: tc}
	})
	if err != nil {
		return nil, err
	}
	// A server-side store failure (not a missing blob) arrives as an
	// error ack; keep it distinct from not-found.
	if ack, ok := m.(*wire.BlobAck); ok && bytes.Equal(ack.Hash, hash) && !ack.OK {
		return nil, fmt.Errorf("transport: blob get failed at the server: %s", ack.Msg)
	}
	data, ok := m.(*wire.BlobData)
	if !ok || !bytes.Equal(data.Hash, hash) {
		return nil, fmt.Errorf("transport: blob get answered with a mismatched %T", m)
	}
	if !data.Found {
		return nil, errBlobNotFound(hash)
	}
	return data.Data, nil
}

// Close implements BlobChannel.
func (c *tcpBlobChannel) Close() error { return c.conn.Close() }

// memBlobChannel is the memory transport's BlobChannel: requests go
// straight to the network's store, bypassing the dispatcher. Like the
// TCP channel it keeps concurrent calls in flight simultaneously — the
// store (required to be concurrency-safe) is the only serialization.
type memBlobChannel struct {
	nw   *Network
	dead atomic.Bool
}

var _ BlobChannel = (*memBlobChannel)(nil)

func (c *memBlobChannel) PutBlob(ctx context.Context, hash, data []byte) error {
	if c.dead.Load() {
		return ErrClosed
	}
	if err := checkBlobSizes(hash, data); err != nil {
		return err
	}
	if c.nw.metrics {
		c.nw.countBlob(true, len(hash)+len(data))
	}
	// In-process: the client's context IS the trace, no wire join needed.
	ctx, h := trace.Child(ctx, spanBlobPut)
	defer h.End()
	return putBlobStore(ctx, c.nw.blobs, hash, data)
}

func (c *memBlobChannel) GetBlob(ctx context.Context, hash []byte) ([]byte, error) {
	if c.dead.Load() {
		return nil, ErrClosed
	}
	ctx, h := trace.Child(ctx, spanBlobGet)
	defer h.End()
	data, err := getBlobStore(ctx, c.nw.blobs, hash)
	if err != nil {
		return nil, err
	}
	if c.nw.metrics {
		c.nw.countBlob(false, len(hash)+len(data))
	}
	return data, nil
}

func (c *memBlobChannel) Close() error {
	c.dead.Store(true)
	return nil
}
