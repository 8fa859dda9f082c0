package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"faust/internal/crypto"
	"faust/internal/obs"
	"faust/internal/obs/trace"
	"faust/internal/wire"
)

// TCP framing: every message is a 4-byte big-endian length followed by the
// canonical wire encoding. The first frame a client sends is the
// handshake: magic (4 bytes) | client ID (u32) | shard name length (u16) |
// shard name. The server answers with one ack frame — a status byte (0 =
// accepted) followed by an error message when rejected — so dialers fail
// fast on unknown shards or out-of-range IDs. Anything else, including the
// bare 4-byte client ID of the pre-shard protocol, is refused by closing
// the connection.
//
// The transport deliberately uses no TLS: the protocol's guarantees come
// from client-side signatures and are designed for an untrusted server —
// an attacker on the wire is no stronger than the server itself. Deploy
// behind TLS anyway if confidentiality matters; the framing is oblivious.

const maxFrame = 1 << 24 // 16 MiB per message is far beyond protocol needs

// DefaultShard is the shard DialTCP binds to and the name under which
// ServeTCP registers its single core.
const DefaultShard = "default"

// helloMagic prefixes every protocol-connection handshake frame.
var helloMagic = [4]byte{0xFA, 0x57, 'H', '2'}

// blobMagic prefixes the handshake of a bulk blob-channel connection:
// magic (4 bytes) | shard name length (u16) | shard name. The server
// answers with the same ack frame as a protocol hello. Blob connections
// carry only BLOB_* messages, served directly on the connection goroutine
// — bulk transfers never queue behind the shard dispatcher.
var blobMagic = [4]byte{0xFA, 0x57, 'B', '1'}

const (
	helloMinLen     = 10 // magic + id + name length, before the name bytes
	maxShardNameLen = 128
)

// defaultHandshakeTimeout bounds a handshake on both ends: how long an
// accepted connection may take to present its hello frame, and how long a
// dialer waits to connect and be acked. Without a bound, a half-open
// connection would pin a goroutine forever (and, before the pre-handshake
// tracking existed, deadlock Stop), and a peer that accepts and stays
// silent would park the dialer.
const defaultHandshakeTimeout = 10 * time.Second

// writeFrame writes a length-prefixed frame as a single Write call so
// concurrent writers guarded by a per-connection lock can never interleave
// header and payload bytes on the stream.
func writeFrame(conn net.Conn, payload []byte) error {
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	_, err := conn.Write(buf)
	return err
}

// readFrame reads one length-prefixed frame through the connection's
// buffered reader, so a frame — and whatever the peer sent right behind
// it, such as the next SUBMIT after a COMMIT — costs one read syscall,
// not two. A connection has exactly one reader, created before its first
// frame: bytes buffered past a frame must not be stranded. The payload is
// a fresh buffer per frame because wire.Decode takes it over.
//
//faustlint:hotpath
func readFrame(br *bufio.Reader) ([]byte, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrame {
		//faustlint:ignore hotpathalloc oversize-frame rejection path; the connection is torn down right after
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	_, _ = br.Discard(4) // cannot fail: Peek buffered these bytes
	//faustlint:ignore hotpathalloc the frame's one buffer, handed over to wire.Decode and aliased by the message
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// parseHello decodes a protocol-connection handshake frame.
func parseHello(hello []byte) (shardName string, id int, err error) {
	if len(hello) < helloMinLen || !bytes.Equal(hello[:4], helloMagic[:]) {
		return "", 0, fmt.Errorf("transport: malformed handshake frame (%d bytes)", len(hello))
	}
	id = int(binary.BigEndian.Uint32(hello[4:8]))
	nameLen := int(binary.BigEndian.Uint16(hello[8:10]))
	if nameLen == 0 || nameLen > maxShardNameLen || len(hello) != helloMinLen+nameLen {
		return "", 0, fmt.Errorf("transport: malformed handshake (name length %d in %d-byte frame)", nameLen, len(hello))
	}
	return string(hello[helloMinLen:]), id, nil
}

// ShardResolver maps the shard name from a handshake to the server core
// that owns it. Implementations may create shards lazily; returning an
// error rejects the handshake with the error text as the ack message.
// ResolveShard must return the same core for the same name for the
// lifetime of the server.
type ShardResolver interface {
	ResolveShard(name string) (ServerCore, error)
}

// ShardPreflight is an optional ShardResolver extension that validates a
// handshake WITHOUT instantiating the shard. When the resolver implements
// it, the server consults it before ResolveShard, so a rejected handshake
// (bad name, out-of-range id) costs nothing — in particular, a lazily
// creating resolver is never asked to materialize a shard for a
// connection that is about to be refused.
type ShardPreflight interface {
	PreflightShard(name string, id int) error
}

// staticShards is a fixed name->core resolver.
type staticShards map[string]ServerCore

func (m staticShards) ResolveShard(name string) (ServerCore, error) {
	core, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("transport: unknown shard %q", name)
	}
	return core, nil
}

// StaticShards builds a ShardResolver over a fixed shard table. The map is
// not copied; do not mutate it after the server starts.
func StaticShards(shards map[string]ServerCore) ShardResolver { return staticShards(shards) }

// TCPOption configures a TCPServer.
type TCPOption func(*TCPServer)

// WithHandshakeTimeout bounds how long an accepted connection may take to
// complete its handshake (default 10s). Connections that exceed it are
// closed; zero or negative disables the deadline (Stop still terminates
// promptly because pre-handshake connections are tracked and closed).
func WithHandshakeTimeout(d time.Duration) TCPOption {
	return func(s *TCPServer) { s.handshakeTimeout = d }
}

// WithTCPMaxBatch caps how many queued envelopes a dispatcher drains per
// batch (default DefaultMaxBatch); 1 makes every batch one. Wired to the
// faust-server -max-batch flag.
func WithTCPMaxBatch(n int) TCPOption {
	return func(s *TCPServer) { s.maxBatch = n }
}

// WithVerifyKeyring arms server-side SUBMIT-signature verification with
// one ring for every shard. A resolver implementing VerifierResolver
// overrides it per shard. Admission hygiene only: the protocol's
// guarantees remain client-enforced.
func WithVerifyKeyring(ring *crypto.Keyring) TCPOption {
	return func(s *TCPServer) { s.ring = ring }
}

// VerifierResolver is an optional ShardResolver extension supplying a
// per-shard public keyring for dispatcher-side SUBMIT verification. It is
// consulted once per shard-runtime creation, after ResolveShard; nil
// means this shard falls back to the server-wide WithVerifyKeyring ring
// (or no verification).
type VerifierResolver interface {
	ResolveVerifier(name string) *crypto.Keyring
}

// writeFramedMsg frames and writes one message as a single Write call
// under the given write lock, encoding into a pooled buffer. Both
// directions of the protocol (server pushes, client sends) share it.
func writeFramedMsg(conn net.Conn, wmu *sync.Mutex, m wire.Message) error {
	buf := wire.GetBuffer()
	b := append((*buf)[:0], 0, 0, 0, 0)
	b = wire.AppendEncode(b, m)
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	wmu.Lock()
	_, err := conn.Write(b)
	wmu.Unlock()
	*buf = b // keep any growth for the pool
	wire.PutBuffer(buf)
	tmFramesOut.Inc()
	return err
}

// writeFramedMsgs frames a whole batch of messages into one pooled buffer
// and writes it with a single Write call under the connection's write
// lock — one lock round and one syscall for every reply a batch owes this
// destination.
//
//faustlint:hotpath
func writeFramedMsgs(conn net.Conn, wmu *sync.Mutex, msgs []wire.Message) error {
	if len(msgs) == 1 {
		return writeFramedMsg(conn, wmu, msgs[0])
	}
	buf := wire.GetBuffer()
	b := (*buf)[:0]
	for _, m := range msgs {
		hdr := len(b)
		b = append(b, 0, 0, 0, 0)
		b = wire.AppendEncode(b, m)
		binary.BigEndian.PutUint32(b[hdr:], uint32(len(b)-hdr-4))
	}
	wmu.Lock()
	_, err := conn.Write(b)
	wmu.Unlock()
	*buf = b // keep any growth for the pool
	wire.PutBuffer(buf)
	tmFramesOut.Add(int64(len(msgs)))
	return err
}

// serverConn wraps an accepted connection with a write lock so REPLYs from
// the dispatcher and pushes from core goroutines (lockstep timers, async
// replies) cannot interleave frames on the stream.
type serverConn struct {
	conn net.Conn
	wmu  sync.Mutex // write-serialization lock: held across conn.Write by design
}

// writeMsg frames and writes one message atomically.
func (c *serverConn) writeMsg(m wire.Message) error {
	return writeFramedMsg(c.conn, &c.wmu, m)
}

// shardRT is the per-shard runtime inside a TCPServer: the resolved core,
// its inbox, the optional verification keyring, and the connection
// registry for push-backs. It is the TCP transport's batchSink: each
// shard's inbox is drained by that shard's own dispatcher goroutine.
type shardRT struct {
	name  string
	core  ServerCore
	inbox *fifo[envelope]
	ring  *crypto.Keyring
	ops   *obs.Counter // per-tenant dispatched-op counter

	mu    sync.Mutex
	conns map[int]*serverConn
}

// push delivers a server-initiated message to client `to` of this shard.
func (rt *shardRT) push(to int, m wire.Message) error {
	rt.mu.Lock()
	sc := rt.conns[to]
	rt.mu.Unlock()
	if sc == nil {
		return fmt.Errorf("transport: client %d not connected to shard %q", to, rt.name)
	}
	return sc.writeMsg(m)
}

// batchSink implementation.

func (rt *shardRT) sinkCore() ServerCore      { return rt.core }
func (rt *shardRT) sinkRing() *crypto.Keyring { return rt.ring }
func (rt *shardRT) sinkName() string          { return rt.name }
func (rt *shardRT) countOp()                  { rt.ops.Inc() }
func (rt *shardRT) dropUnknown()              {}

// sendReplies writes a batch's replies for one client as a single framed
// write: one connection-lock round and one syscall per destination per
// batch instead of one per reply.
func (rt *shardRT) sendReplies(to int, msgs []wire.Message) {
	rt.mu.Lock()
	sc := rt.conns[to]
	rt.mu.Unlock()
	if sc == nil {
		return
	}
	_ = writeFramedMsgs(sc.conn, &sc.wmu, msgs)
}

// TCPServer hosts one or more server cores on a TCP listener. Each shard's
// messages are serialized through that shard's dispatcher goroutine,
// preserving the atomic event handler semantics of Algorithm 2 within the
// shard while distinct shards execute in parallel.
type TCPServer struct {
	resolver         ShardResolver
	ln               net.Listener
	handshakeTimeout time.Duration
	maxBatch         int
	ring             *crypto.Keyring // server-wide verification fallback

	mu        sync.Mutex
	stopped   bool
	pending   map[net.Conn]struct{} // accepted, handshake not yet complete
	blobConns map[net.Conn]struct{} // post-handshake blob-channel connections
	shards    map[string]*shardRT   // successfully created runtimes
	slots     map[string]*shardSlot // creation slots, including in-flight ones
	wg        sync.WaitGroup
}

// shardSlot tracks one shard runtime's creation so concurrent handshakes
// for the same name share a single ResolveShard call — which may do real
// work (WAL recovery) — without holding the server mutex across it.
type shardSlot struct {
	ready chan struct{} // closed once rt/err are set
	rt    *shardRT
	err   error
}

// ServeTCP starts serving a single core on ln under the default shard name
// — the single-tenant deployment. It returns immediately; use Stop
// to shut down. The core's pusher (GenericCore) is attached before ServeTCP
// returns.
func ServeTCP(ln net.Listener, core ServerCore, opts ...TCPOption) *TCPServer {
	s := ServeTCPSharded(ln, StaticShards(map[string]ServerCore{DefaultShard: core}), opts...)
	// Pre-resolve the default shard so AttachPusher runs before any
	// traffic, matching the single-core server's historic behavior.
	_, _ = s.shardFor(DefaultShard)
	return s
}

// ServeTCPSharded starts serving every shard the resolver can produce.
// Shard runtimes (dispatcher goroutine, connection registry, AttachPusher)
// are created on the first handshake that names them. It returns
// immediately; use Stop to shut down.
func ServeTCPSharded(ln net.Listener, resolver ShardResolver, opts ...TCPOption) *TCPServer {
	s := &TCPServer{
		resolver:         resolver,
		ln:               ln,
		handshakeTimeout: defaultHandshakeTimeout,
		maxBatch:         DefaultMaxBatch,
		pending:          make(map[net.Conn]struct{}),
		blobConns:        make(map[net.Conn]struct{}),
		shards:           make(map[string]*shardRT),
		slots:            make(map[string]*shardSlot),
	}
	for _, o := range opts {
		o(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address.
func (s *TCPServer) Addr() net.Addr { return s.ln.Addr() }

// ActiveConns returns the number of post-handshake connections currently
// registered across all shards. Exposed for tests and operational
// introspection; dead connections are unregistered as soon as their read
// loop observes the failure.
func (s *TCPServer) ActiveConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, rt := range s.shards {
		rt.mu.Lock()
		total += len(rt.conns)
		rt.mu.Unlock()
	}
	return total
}

// Stop closes the listener and all connections — including ones still in
// the handshake — and waits for every goroutine to exit.
func (s *TCPServer) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	conns := make([]net.Conn, 0, len(s.pending)+len(s.blobConns))
	for c := range s.pending {
		conns = append(conns, c)
	}
	for c := range s.blobConns {
		conns = append(conns, c)
	}
	rts := make([]*shardRT, 0, len(s.shards))
	for _, rt := range s.shards {
		rt.mu.Lock()
		for _, sc := range rt.conns {
			conns = append(conns, sc.conn)
		}
		rt.mu.Unlock()
		rts = append(rts, rt)
	}
	s.mu.Unlock()

	// The close syscalls run outside the state locks: stopped is set, so
	// register admits nothing new and the snapshot above is complete.
	_ = s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}

	for _, rt := range rts {
		rt.inbox.close()
	}
	s.wg.Wait()
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if !s.trackPending(conn) {
			_ = conn.Close()
			continue
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// trackPending registers a freshly accepted connection so Stop can close
// it even before the handshake completes. Returns false when the server is
// already stopped.
func (s *TCPServer) trackPending(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return false
	}
	s.pending[conn] = struct{}{}
	return true
}

func (s *TCPServer) dropPending(conn net.Conn) {
	s.mu.Lock()
	delete(s.pending, conn)
	s.mu.Unlock()
}

// errStopped rejects work arriving after Stop.
var errStopped = fmt.Errorf("transport: server stopped")

// shardFor returns the runtime for a shard name, creating it — dispatcher
// goroutine, connection registry, pusher attachment — on first use. The
// resolver call runs outside the server mutex (lazy persistent shards
// replay their WAL here), so handshakes, teardowns and Stop on other
// shards are never blocked behind one shard's recovery; concurrent
// handshakes for the same name share one creation via its slot.
func (s *TCPServer) shardFor(name string) (*shardRT, error) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil, errStopped
	}
	if slot, ok := s.slots[name]; ok {
		s.mu.Unlock()
		<-slot.ready
		return slot.rt, slot.err
	}
	slot := &shardSlot{ready: make(chan struct{})}
	s.slots[name] = slot
	s.mu.Unlock()

	rt, err := s.createShard(name)
	if err != nil {
		// Drop the slot so a later handshake may retry (the failure could
		// be transient); waiters already parked on it still see the error.
		s.mu.Lock()
		delete(s.slots, name)
		s.mu.Unlock()
		slot.err = err
		close(slot.ready)
		return nil, err
	}
	slot.rt = rt
	close(slot.ready)
	return rt, nil
}

func (s *TCPServer) createShard(name string) (*shardRT, error) {
	core, err := s.resolver.ResolveShard(name)
	if err != nil {
		return nil, err
	}
	rt := &shardRT{
		name:  name,
		core:  core,
		inbox: newFIFO[envelope](),
		ring:  s.ring,
		ops:   shardOpsCounter(name),
		conns: make(map[int]*serverConn),
	}
	if vr, ok := s.resolver.(VerifierResolver); ok {
		if ring := vr.ResolveVerifier(name); ring != nil {
			rt.ring = ring
		}
	}
	if gc, ok := core.(GenericCore); ok {
		gc.AttachPusher(rt.push)
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil, errStopped
	}
	s.shards[name] = rt
	s.wg.Add(1)
	go s.dispatchShard(rt)
	s.mu.Unlock()
	return rt, nil
}

// checkID validates the handshake client ID against the core's group size
// when the core exposes one (an `N() int` method returning a non-negative
// count). Without the check any 32-bit ID would insert a connection map
// entry — a trivial memory-exhaustion vector.
func checkID(name string, core ServerCore, id int) error {
	if id < 0 {
		return fmt.Errorf("transport: negative client id %d", id)
	}
	if sized, ok := core.(interface{ N() int }); ok {
		if n := sized.N(); n >= 0 && id >= n {
			return fmt.Errorf("transport: client id %d out of range for shard %q (n=%d)", id, name, n)
		}
	}
	return nil
}

// writeAck sends the handshake acknowledgment: status 0, or status 1
// plus the rejection reason.
func writeAck(conn net.Conn, rejection error) error {
	if rejection == nil {
		return writeFrame(conn, []byte{0})
	}
	msg := rejection.Error()
	buf := make([]byte, 1+len(msg))
	buf[0] = 1
	copy(buf[1:], msg)
	return writeFrame(conn, buf)
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	if s.handshakeTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.handshakeTimeout))
	}
	br := bufio.NewReader(conn)
	hello, err := readFrame(br)
	if err != nil {
		s.dropPending(conn)
		_ = conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	if len(hello) >= 4 && bytes.Equal(hello[:4], blobMagic[:]) {
		s.serveBlobConn(conn, br, hello)
		return
	}
	name, id, err := parseHello(hello)
	if err != nil {
		s.dropPending(conn)
		_ = conn.Close()
		return
	}
	var rt *shardRT
	// Preflight first, when the resolver supports it: a rejected handshake
	// must not be able to force shard instantiation.
	if pf, ok := s.resolver.(ShardPreflight); ok {
		err = pf.PreflightShard(name, id)
	}
	if err == nil {
		if rt, err = s.shardFor(name); err == nil {
			err = checkID(name, rt.core, id)
		}
	}
	if ackErr := writeAck(conn, err); ackErr != nil && err == nil {
		err = ackErr
	}
	if err != nil {
		tmHandshakeRej.Inc()
		obs.Default().Events().Record(obs.EventPreflightReject, id, name, err.Error())
		s.dropPending(conn)
		_ = conn.Close()
		return
	}

	sc := &serverConn{conn: conn}
	if !s.register(rt, id, sc) {
		_ = conn.Close()
		return
	}
	tmHandshakeOK.Inc()
	tmConnsProto.Inc()
	defer func() {
		// Unregister only if this connection is still the current one for
		// the ID — a newer handshake may have replaced (and closed) it.
		rt.mu.Lock()
		if rt.conns[id] == sc {
			delete(rt.conns, id)
		}
		rt.mu.Unlock()
		tmConnsProto.Dec()
		_ = conn.Close()
	}()

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
		if !rt.inbox.push(envelope{from: id, msg: msg, enq: traceStamp(msg)}) {
			return
		}
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
	var bs BlobStore
	name, err := parseBlobHello(hello)
	if err == nil {
		if br, ok := s.resolver.(BlobResolver); ok {
			bs, err = br.ResolveBlobs(name)
			if err == nil && bs == nil {
				err = ErrNoBlobStore
			}
		} else {
			err = ErrNoBlobStore
		}
	}
	if ackErr := writeAck(conn, err); ackErr != nil && err == nil {
		err = ackErr
	}
	if err != nil || !s.registerBlobConn(conn) {
		if err != nil {
			tmHandshakeRej.Inc()
			obs.Default().Events().Record(obs.EventPreflightReject, -1, name, err.Error())
		}
		s.dropPending(conn)
		_ = conn.Close()
		return
	}
	tmHandshakeOK.Inc()
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
		resp := serveBlobMsg(bs, msg)
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

// register atomically moves a connection from the pending set into its
// shard's registry, closing any previous connection with the same ID. It
// holds s.mu across both steps so Stop can never observe a connection in
// neither set. Returns false when the server stopped meanwhile.
func (s *TCPServer) register(rt *shardRT, id int, sc *serverConn) bool {
	s.mu.Lock()
	delete(s.pending, sc.conn)
	if s.stopped {
		s.mu.Unlock()
		return false
	}
	rt.mu.Lock()
	old, dup := rt.conns[id]
	rt.conns[id] = sc
	rt.mu.Unlock()
	s.mu.Unlock()
	if dup {
		// The superseded connection is out of the registry, so nothing else
		// writes to it — its close syscall needs no lock.
		_ = old.conn.Close()
	}
	return true
}

// dispatchShard is a shard's event loop: the shared batched engine over
// the shard's inbox. Handlers still run one at a time in arrival order.
func (s *TCPServer) dispatchShard(rt *shardRT) {
	defer s.wg.Done()
	dispatchBatches(rt.inbox, rt, s.maxBatch)
}

// tcpLink is the client-side Link over one TCP connection.
type tcpLink struct {
	conn net.Conn
	br   *bufio.Reader // the connection's one reader; guarded by rmu
	wmu  sync.Mutex
	rmu  sync.Mutex
}

var _ Link = (*tcpLink)(nil)

// DialTCP connects client id to the default shard of a TCPServer at addr:
// DialTCPShard with an empty shard name.
func DialTCP(addr string, id int) (Link, error) {
	return DialTCPShard(addr, "", id)
}

// dialHello connects to addr, sends the handshake frame — prefix (magic,
// plus the client id on a protocol connection) | shard name length (u16) |
// shard name — and waits for the server's ack. Connect, send and ack
// together are bounded by timeout — a peer that accepts and stays silent
// fails the dial instead of parking it — and the deadline is cleared
// before the connection is handed back. kind names the handshake in
// errors. An empty shard name targets the default shard.
func dialHello(addr string, prefix []byte, shard, kind string, timeout time.Duration) (net.Conn, *bufio.Reader, error) {
	if shard == "" {
		shard = DefaultShard
	}
	if len(shard) > maxShardNameLen {
		return nil, nil, fmt.Errorf("transport: shard name %d bytes long, limit %d", len(shard), maxShardNameLen)
	}
	deadline := time.Now().Add(timeout)
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: dialing %s: %w", addr, err)
	}
	_ = conn.SetDeadline(deadline) // an unsupported deadline only loses the bound
	hello := make([]byte, 0, helloMinLen+len(shard))
	hello = append(hello, prefix...)
	hello = binary.BigEndian.AppendUint16(hello, uint16(len(shard)))
	hello = append(hello, shard...)
	br := bufio.NewReader(conn)
	err = writeFrame(conn, hello)
	var ack []byte
	if err == nil {
		ack, err = readFrame(br)
	}
	switch {
	case err != nil:
		err = fmt.Errorf("transport: %s: %w", kind, err)
	case len(ack) < 1:
		err = fmt.Errorf("transport: empty %s ack", kind)
	case ack[0] != 0:
		err = fmt.Errorf("transport: server rejected %s: %s", kind, ack[1:])
	}
	if err != nil {
		_ = conn.Close()
		return nil, nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, br, nil
}

// DialTCPShard connects client id to the named shard of a TCPServer at
// addr and waits for the server's acknowledgment, so unknown shards and
// out-of-range IDs fail here rather than on the first operation. An empty
// shard name dials the default shard.
func DialTCPShard(addr, shard string, id int) (Link, error) {
	prefix := binary.BigEndian.AppendUint32(helloMagic[:4:4], uint32(id))
	conn, br, err := dialHello(addr, prefix, shard, "handshake", defaultHandshakeTimeout)
	if err != nil {
		return nil, err
	}
	return &tcpLink{conn: conn, br: br}, nil
}

// DialTCPBlob opens a bulk blob channel to the named shard of a
// TCPServer at addr. The server must host a blob store for the shard (a
// resolver implementing BlobResolver); otherwise the handshake is
// rejected with the reason. An empty shard name targets the default
// shard. The channel is safe for concurrent use and pipelines concurrent
// requests over the one connection: each carries a request ID, responses
// are matched as they arrive, so a batch of fetches from several
// goroutines pays one round trip rather than one per blob.
func DialTCPBlob(addr, shard string) (BlobChannel, error) {
	conn, br, err := dialHello(addr, blobMagic[:], shard, "blob handshake", defaultHandshakeTimeout)
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

// Send implements Link. The frame is built in a pooled buffer and written
// with a single Write call under the link's write lock.
func (l *tcpLink) Send(m wire.Message) error {
	if err := writeFramedMsg(l.conn, &l.wmu, m); err != nil {
		return fmt.Errorf("transport: send: %w", err)
	}
	return nil
}

// Recv implements Link.
func (l *tcpLink) Recv() (wire.Message, error) {
	l.rmu.Lock()
	defer l.rmu.Unlock()
	payload, err := readFrame(l.br)
	if err != nil {
		return nil, fmt.Errorf("transport: recv: %w", err)
	}
	m, err := wire.Decode(payload)
	if err != nil {
		return nil, fmt.Errorf("transport: decode: %w", err)
	}
	return m, nil
}

// Close implements Link.
func (l *tcpLink) Close() error { return l.conn.Close() }
