package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"faust/internal/crypto"
	"faust/internal/obs"
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

// handshakeTimeout bounds a handshake on both ends: how long an accepted
// connection may take to present its hello frame, and how long a dialer
// waits to connect and be acked. Without a bound, a half-open connection
// would pin a goroutine forever, and a peer that accepts and stays silent
// would park the dialer. A variable only so tests can shorten it.
var handshakeTimeout = 10 * time.Second

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

// Shard is what a ShardResolver hands the transport for one shard: the
// core its dispatcher serves, the ring its SUBMITs are verified against
// (nil falls back to the server-wide WithVerifyKeyring ring, or no
// verification) and the store behind its bulk blob channel (nil refuses
// blob dials).
type Shard struct {
	Core  ServerCore
	Ring  *crypto.Keyring
	Blobs BlobStore
}

// ShardResolver maps a handshake to the shard that owns it. id is the
// client id of a protocol handshake, negative when there is none (a blob
// channel, or a caller opening a shard ahead of traffic). A resolver must
// validate name and id BEFORE instantiating anything, so a refused
// handshake costs nothing — a lazily creating resolver is never made to
// materialize a shard for a connection it refuses. An error rejects the
// handshake with its text as the ack message. ResolveShard must return
// the same shard for the same name for the lifetime of the server.
type ShardResolver interface {
	ResolveShard(name string, id int) (Shard, error)
}

// staticShards is a fixed name->core resolver. It checks client ids
// against a core's group size when the core exposes one (an `N() int`
// method returning a non-negative count): without the check any 32-bit id
// would insert a connection map entry — a trivial memory-exhaustion
// vector.
type staticShards map[string]ServerCore

func (m staticShards) ResolveShard(name string, id int) (Shard, error) {
	core, ok := m[name]
	if !ok {
		return Shard{}, fmt.Errorf("transport: unknown shard %q", name)
	}
	if sized, ok := core.(interface{ N() int }); ok {
		if n := sized.N(); n >= 0 && id >= n {
			return Shard{}, fmt.Errorf("transport: client id %d out of range for shard %q (n=%d)", id, name, n)
		}
	}
	return Shard{Core: core}, nil
}

// StaticShards builds a ShardResolver over a fixed shard table. The map is
// not copied; do not mutate it after the server starts.
func StaticShards(shards map[string]ServerCore) ShardResolver { return staticShards(shards) }

// TCPOption configures a TCPServer.
type TCPOption func(*TCPServer)

// WithVerifyKeyring arms server-side SUBMIT-signature verification with
// one ring for every shard; a resolver's Shard.Ring overrides it per
// shard. Admission hygiene only: the protocol's guarantees remain
// client-enforced.
func WithVerifyKeyring(ring *crypto.Keyring) TCPOption {
	return func(s *TCPServer) { s.ring = ring }
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

// shardRT is the per-shard runtime inside a TCPServer: the shard's hub
// and the registry of its clients' connections, which is all deliver
// needs.
type shardRT struct {
	hub *hub

	mu    sync.Mutex
	conns map[int]*serverConn
}

// deliver is the shard's one delivery method, for the dispatcher's
// replies and a GenericCore's pushes alike: one framed write on client
// `to`'s registered connection.
func (rt *shardRT) deliver(to int, msgs []wire.Message) error {
	rt.mu.Lock()
	sc := rt.conns[to]
	rt.mu.Unlock()
	if sc == nil {
		return fmt.Errorf("transport: client %d not connected to shard %q", to, rt.hub.name)
	}
	return writeFramedMsgs(sc.conn, &sc.wmu, msgs)
}

// TCPServer hosts one or more server cores on a TCP listener. Every shard
// is a hub (batch.go) whose socket is the connections that named it: the
// read loop admits each decoded frame into the shard's hub, whose
// dispatcher goroutine serializes the shard's handlers — the atomic event
// handler semantics of Algorithm 2 within the shard, while distinct
// shards execute in parallel.
type TCPServer struct {
	resolver ShardResolver
	ln       net.Listener
	ring     *crypto.Keyring // server-wide verification fallback

	mu        sync.Mutex
	stopped   bool
	pending   map[net.Conn]struct{} // accepted, handshake not yet complete
	blobConns map[net.Conn]struct{} // post-handshake blob-channel connections
	shards    map[string]*shardRT
	wg        sync.WaitGroup // accept loop and connection goroutines
}

// ServeTCP starts serving a single core on ln under the default shard name
// — the single-tenant deployment. It returns immediately; use Stop
// to shut down. The core's pusher (GenericCore) is attached before ServeTCP
// returns.
func ServeTCP(ln net.Listener, core ServerCore, opts ...TCPOption) *TCPServer {
	s := ServeTCPSharded(ln, StaticShards(map[string]ServerCore{DefaultShard: core}), opts...)
	_, _ = s.runtimeFor(DefaultShard, Shard{Core: core})
	return s
}

// ServeTCPSharded starts serving every shard the resolver can produce.
// Shard runtimes (hub, connection registry, AttachPusher) are created on
// the first handshake that names them. It returns immediately; use Stop
// to shut down.
func ServeTCPSharded(ln net.Listener, resolver ShardResolver, opts ...TCPOption) *TCPServer {
	s := &TCPServer{
		resolver:  resolver,
		ln:        ln,
		pending:   make(map[net.Conn]struct{}),
		blobConns: make(map[net.Conn]struct{}),
		shards:    make(map[string]*shardRT),
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
// the handshake — drains every shard's hub and waits for every goroutine
// to exit.
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
		rt.hub.stop()
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

// runtimeFor returns the runtime of a resolved shard, starting its hub on
// first use. Concurrent first handshakes may each resolve the shard (the
// resolver returns the same shard for a name and owns any expensive
// creation, such as WAL recovery), but only the first to get here starts
// a hub: the shard's core has exactly one dispatcher. The hub starts
// under s.mu — that is what makes it unique — which is safe because
// starting it calls into the core only for AttachPusher, whose contract
// is to store the pusher.
func (s *TCPServer) runtimeFor(name string, sh Shard) (*shardRT, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return nil, errStopped
	}
	if rt := s.shards[name]; rt != nil {
		return rt, nil
	}
	if sh.Ring == nil {
		sh.Ring = s.ring
	}
	rt := &shardRT{
		hub:   &hub{name: name, core: sh.Core, ring: sh.Ring, count: shardOpsCounter(name)},
		conns: make(map[int]*serverConn),
	}
	rt.hub.deliver = rt.deliver
	initHub(rt.hub)
	go rt.hub.run(DefaultMaxBatch)
	s.shards[name] = rt
	return rt, nil
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

// ack answers a handshake for client id (negative: a blob channel) of the
// named shard. A refusal — or an ack that cannot be written — is counted,
// recorded as a preflight-reject event and drops the connection; ack
// reports whether the handshake stands.
func (s *TCPServer) ack(conn net.Conn, id int, name string, err error) bool {
	if ackErr := writeAck(conn, err); ackErr != nil && err == nil {
		err = ackErr
	}
	if err == nil {
		tmHandshakeOK.Inc()
		return true
	}
	tmHandshakeRej.Inc()
	obs.Default().Events().Record(obs.EventPreflightReject, id, name, err.Error())
	s.dropPending(conn)
	_ = conn.Close()
	return false
}

// serveConn runs one accepted connection: the handshake — one resolver
// call — then, on a protocol connection, the read loop that admits every
// frame into the shard's hub.
func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	_ = conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
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
	sh, err := s.resolver.ResolveShard(name, id)
	if err == nil {
		rt, err = s.runtimeFor(name, sh)
	}
	if !s.ack(conn, id, name, err) {
		return
	}

	sc := &serverConn{conn: conn}
	if !s.register(rt, id, sc) {
		_ = conn.Close()
		return
	}
	defer func() {
		// Unregister only if this connection is still the current one for
		// the ID — a newer handshake may have replaced (and closed) it.
		rt.mu.Lock()
		if rt.conns[id] == sc {
			delete(rt.conns, id)
		}
		rt.mu.Unlock()
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
		if !rt.hub.admit(id, msg) {
			return
		}
	}
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
	conn, br, err := dialHello(addr, prefix, shard, "handshake", handshakeTimeout)
	if err != nil {
		return nil, err
	}
	return &tcpLink{conn: conn, br: br}, nil
}

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
