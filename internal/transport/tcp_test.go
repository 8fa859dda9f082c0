package transport

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"faust/internal/wire"
)

func startTCP(t *testing.T, core ServerCore, opts ...TCPOption) (*TCPServer, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := ServeTCP(ln, core, opts...)
	t.Cleanup(srv.Stop)
	return srv, ln.Addr().String()
}

func TestTCPRoundTrip(t *testing.T) {
	core := &echoCore{}
	_, addr := startTCP(t, core)
	link, err := DialTCP(addr, 0)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer link.Close()
	if err := link.Send(&wire.Submit{T: 9}); err != nil {
		t.Fatalf("send: %v", err)
	}
	m, err := link.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if got := m.(*wire.Reply).C; got != 9 {
		t.Fatalf("reply.C = %d, want 9", got)
	}
}

func TestTCPFIFOPerClient(t *testing.T) {
	core := &echoCore{}
	_, addr := startTCP(t, core)
	link, err := DialTCP(addr, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	for i := 0; i < 50; i++ {
		if err := link.Send(&wire.Submit{T: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		m, err := link.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.(*wire.Reply).C; got != i {
			t.Fatalf("reply %d out of order: %d", i, got)
		}
	}
}

func TestTCPMultipleClients(t *testing.T) {
	core := &echoCore{}
	_, addr := startTCP(t, core)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			link, err := DialTCP(addr, c)
			if err != nil {
				t.Errorf("client %d dial: %v", c, err)
				return
			}
			defer link.Close()
			for i := 0; i < 20; i++ {
				if err := link.Send(&wire.Submit{T: int64(i)}); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				m, err := link.Recv()
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if got := m.(*wire.Reply).C; got != i {
					t.Errorf("client %d reply %d: got %d", c, i, got)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestTCPCommitDelivered(t *testing.T) {
	core := &echoCore{}
	_, addr := startTCP(t, core)
	link, err := DialTCP(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	for i := 0; i < 5; i++ {
		if err := link.Send(&wire.Commit{}); err != nil {
			t.Fatal(err)
		}
	}
	_ = link.Send(&wire.Submit{T: 1})
	if _, err := link.Recv(); err != nil {
		t.Fatal(err)
	}
	core.mu.Lock()
	defer core.mu.Unlock()
	if len(core.commits) != 5 {
		t.Fatalf("commits = %d, want 5", len(core.commits))
	}
}

func TestTCPRecvFailsAfterStop(t *testing.T) {
	core := &echoCore{}
	srv, addr := startTCP(t, core)
	link, err := DialTCP(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	done := make(chan error, 1)
	go func() {
		_, err := link.Recv()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	srv.Stop()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv succeeded after server stop")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock")
	}
}

func TestTCPDialUnreachable(t *testing.T) {
	if _, err := DialTCP("127.0.0.1:1", 0); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

// sizedEchoCore exposes a client-group size, enabling the transport's
// handshake ID validation.
type sizedEchoCore struct {
	echoCore
	n int
}

func (c *sizedEchoCore) N() int { return c.n }

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestTCPStopHalfOpenConn is the regression test for the shutdown hang: a
// connection that never completes the handshake used to block Stop forever
// (serveConn sat in readFrame, the conn was in no registry, wg.Wait
// deadlocked). Pre-handshake connections are now tracked and closed.
func TestTCPStopHalfOpenConn(t *testing.T) {
	srv, addr := startTCP(t, &echoCore{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Give the server time to accept the conn so it is truly half-open
	// server-side (accepted, no hello) when Stop runs.
	time.Sleep(30 * time.Millisecond)

	done := make(chan struct{})
	go func() {
		srv.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung on a half-open connection")
	}
}

// TestTCPHandshakeDeadline verifies that a connection which never sends a
// hello is closed by the handshake deadline even without Stop.
func TestTCPHandshakeDeadline(t *testing.T) {
	_, addr := startTCP(t, &echoCore{}, WithHandshakeTimeout(50*time.Millisecond))
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("server kept a hello-less connection past the handshake deadline")
	}
}

// TestTCPConnCleanup is the regression test for the connection leak: dead
// connections used to stay in the registry forever.
func TestTCPConnCleanup(t *testing.T) {
	srv, addr := startTCP(t, &echoCore{})
	link, err := DialTCP(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Round trip to guarantee the handshake registered the conn.
	if err := link.Send(&wire.Submit{T: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := link.Recv(); err != nil {
		t.Fatal(err)
	}
	if got := srv.ActiveConns(); got != 1 {
		t.Fatalf("ActiveConns = %d, want 1", got)
	}
	_ = link.Close()
	waitFor(t, 2*time.Second, func() bool { return srv.ActiveConns() == 0 },
		"closed connection never left the registry")
}

// TestTCPDuplicateHandshake: a second handshake for the same ID replaces
// (and closes) the first connection, and the first conn's teardown must not
// evict the second from the registry.
func TestTCPDuplicateHandshake(t *testing.T) {
	srv, addr := startTCP(t, &echoCore{})
	link1, err := DialTCP(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer link1.Close()
	if err := link1.Send(&wire.Submit{T: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := link1.Recv(); err != nil {
		t.Fatal(err)
	}
	link2, err := DialTCP(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer link2.Close()
	if err := link2.Send(&wire.Submit{T: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := link2.Recv(); err != nil {
		t.Fatal(err)
	}
	// The first link was closed server-side; once its serveConn exits, the
	// registry must still hold exactly the second connection.
	if _, err := link1.Recv(); err == nil {
		t.Fatal("first connection still alive after duplicate handshake")
	}
	waitFor(t, 2*time.Second, func() bool { return srv.ActiveConns() == 1 },
		"registry does not hold exactly the replacement connection")
	if err := link2.Send(&wire.Submit{T: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := link2.Recv(); err != nil {
		t.Fatalf("replacement connection broken: %v", err)
	}
}

// TestTCPOutOfRangeID: IDs outside [0, core.N()) must never occupy a
// registry entry (the unbounded-map memory-exhaustion vector).
func TestTCPOutOfRangeID(t *testing.T) {
	srv, addr := startTCP(t, &sizedEchoCore{n: 2})

	// Rejected in the ack, so the dial itself fails — through DialTCP and
	// through DialTCPShard alike.
	if _, err := DialTCP(addr, 7); err == nil {
		t.Fatal("DialTCP accepted out-of-range id 7")
	}
	if _, err := DialTCPShard(addr, DefaultShard, 7); err == nil {
		t.Fatal("DialTCPShard accepted out-of-range id 7")
	}
	if got := srv.ActiveConns(); got != 0 {
		t.Fatalf("ActiveConns = %d after rejected handshakes, want 0", got)
	}
	// An in-range dial works against the same server.
	ok, err := DialTCP(addr, 1)
	if err != nil {
		t.Fatalf("in-range dial: %v", err)
	}
	defer ok.Close()
	if err := ok.Send(&wire.Submit{T: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := ok.Recv(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPUnknownShardRejected: the ack carries the resolver's error.
func TestTCPUnknownShardRejected(t *testing.T) {
	_, addr := startTCP(t, &echoCore{})
	if _, err := DialTCPShard(addr, "no-such-shard", 0); err == nil {
		t.Fatal("dial to unknown shard succeeded")
	}
}

// TestTCPBareIDHelloRefused: the pre-shard hello — a 4-byte frame holding
// only the client id — is no longer a handshake. The server closes the
// connection without an ack and registers nothing.
func TestTCPBareIDHelloRefused(t *testing.T) {
	srv, addr := startTCP(t, &echoCore{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := writeFrame(raw, []byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := raw.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after a 4-byte hello = (%d, %v), want the connection closed", n, err)
	}
	if got := srv.ActiveConns(); got != 0 {
		t.Fatalf("ActiveConns = %d after a refused hello, want 0", got)
	}
}

// TestDialBoundedAgainstSilentPeer: a peer that accepts and never writes
// must fail the dial at the handshake timeout instead of parking it in
// the ack read forever — for protocol and blob connections alike.
func TestDialBoundedAgainstSilentPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close() // held open and silent until the test ends
		}
	}()
	for _, prefix := range [][]byte{append(helloMagic[:4:4], 0, 0, 0, 0), blobMagic[:]} {
		done := make(chan error, 1)
		go func() {
			_, _, err := dialHello(ln.Addr().String(), prefix, "", "handshake", 50*time.Millisecond)
			done <- err
		}()
		select {
		case err := <-done:
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatalf("dial against a silent peer = %v, want a timeout", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("dial against a silent peer never returned")
		}
	}
}

// TestDialClearsHandshakeDeadline: the bound covers the handshake only —
// a link that idles past it still works.
func TestDialClearsHandshakeDeadline(t *testing.T) {
	_, addr := startTCP(t, &echoCore{})
	const timeout = 50 * time.Millisecond
	conn, br, err := dialHello(addr, append(helloMagic[:4:4], 0, 0, 0, 0), "", "handshake", timeout)
	if err != nil {
		t.Fatal(err)
	}
	link := &tcpLink{conn: conn, br: br}
	defer link.Close()
	time.Sleep(2 * timeout)
	if err := link.Send(&wire.Submit{T: 4}); err != nil {
		t.Fatalf("send after idling past the handshake timeout: %v", err)
	}
	if _, err := link.Recv(); err != nil {
		t.Fatalf("recv after idling past the handshake timeout: %v", err)
	}
}

// pushCore records the attached pusher so tests can push from arbitrary
// goroutines, emulating cores with server-initiated messages.
type pushCore struct {
	echoCore
	push func(to int, m wire.Message) error
}

func (c *pushCore) HandleMessage(from int, m wire.Message) {}
func (c *pushCore) AttachPusher(push func(to int, m wire.Message) error) {
	c.push = push
}

var _ GenericCore = (*pushCore)(nil)

// TestTCPConcurrentPushIntegrity is the regression test for frame
// corruption: concurrent pushTo calls used to issue header and payload as
// separate unsynchronized writes, interleaving bytes on the stream. Every
// frame pushed from many goroutines must decode on the client side.
func TestTCPConcurrentPushIntegrity(t *testing.T) {
	core := &pushCore{}
	_, addr := startTCP(t, core) // ServeTCP attaches the pusher before returning
	link, err := DialTCP(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	// Round trip so the connection is registered before the hammering.
	if err := link.Send(&wire.Submit{T: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := link.Recv(); err != nil {
		t.Fatal(err)
	}

	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Varying payload sizes stress partial-write interleaving.
				m := &wire.Reply{
					C:    g*perG + i,
					CVer: wire.ZeroSignedVersion(1),
					P:    [][]byte{make([]byte, (g*31+i)%257)},
				}
				if err := core.push(0, m); err != nil {
					t.Errorf("push: %v", err)
					return
				}
			}
		}(g)
	}

	seen := make(map[int]bool)
	for k := 0; k < goroutines*perG; k++ {
		m, err := link.Recv()
		if err != nil {
			t.Fatalf("frame %d corrupted: %v", k, err)
		}
		reply, ok := m.(*wire.Reply)
		if !ok {
			t.Fatalf("frame %d decoded as %T", k, m)
		}
		if seen[reply.C] {
			t.Fatalf("duplicate frame %d", reply.C)
		}
		seen[reply.C] = true
	}
	wg.Wait()
}

// TestTCPShardIsolationAndParallelDispatch runs two shards on one
// listener: both host a client with the same ID, yet their submissions
// reach distinct cores.
func TestTCPShardedRouting(t *testing.T) {
	coreA, coreB := &echoCore{}, &echoCore{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCPSharded(ln, StaticShards(map[string]ServerCore{"a": coreA, "b": coreB}))
	t.Cleanup(srv.Stop)

	linkA, err := DialTCPShard(ln.Addr().String(), "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer linkA.Close()
	linkB, err := DialTCPShard(ln.Addr().String(), "b", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer linkB.Close()

	for i := 0; i < 10; i++ {
		if err := linkA.Send(&wire.Submit{T: int64(i)}); err != nil {
			t.Fatal(err)
		}
		if err := linkB.Send(&wire.Submit{T: int64(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		m, err := linkA.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.(*wire.Reply).C; got != i {
			t.Fatalf("shard a reply %d: got %d", i, got)
		}
		m, err = linkB.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.(*wire.Reply).C; got != 100+i {
			t.Fatalf("shard b reply %d: got %d", i, got)
		}
	}
	coreA.mu.Lock()
	nA := len(coreA.submits)
	coreA.mu.Unlock()
	coreB.mu.Lock()
	nB := len(coreB.submits)
	coreB.mu.Unlock()
	if nA != 10 || nB != 10 {
		t.Fatalf("submit counts = %d/%d, want 10/10", nA, nB)
	}
}
