package offline

import (
	"net"
	"testing"
	"time"

	"faust/internal/wire"
)

// freeAddrs reserves n distinct loopback addresses.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		_ = ln.Close()
	}
	return addrs
}

func meshPair(t *testing.T) (*TCPMesh, *TCPMesh) {
	t.Helper()
	addrs := freeAddrs(t, 2)
	peers := map[int]string{0: addrs[0], 1: addrs[1]}
	m0, err := ListenTCP(0, addrs[0], peers, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m0.Close)
	m1, err := ListenTCP(1, addrs[1], peers, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m1.Close)
	return m0, m1
}

func TestTCPMeshSendRecv(t *testing.T) {
	m0, m1 := meshPair(t)
	if err := m0.Send(1, &wire.Probe{From: 0}); err != nil {
		t.Fatalf("send: %v", err)
	}
	msg, err := m1.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if msg.From != 0 {
		t.Fatalf("From = %d", msg.From)
	}
	if _, ok := msg.Body.(*wire.Probe); !ok {
		t.Fatalf("Body = %T", msg.Body)
	}
}

func TestTCPMeshBroadcast(t *testing.T) {
	addrs := freeAddrs(t, 3)
	peers := map[int]string{0: addrs[0], 1: addrs[1], 2: addrs[2]}
	meshes := make([]*TCPMesh, 3)
	for i := 0; i < 3; i++ {
		m, err := ListenTCP(i, addrs[i], peers, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		meshes[i] = m
	}
	if err := meshes[0].Broadcast(&wire.Failure{From: 0}); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	for i := 1; i < 3; i++ {
		msg, err := meshes[i].Recv()
		if err != nil {
			t.Fatalf("mesh %d recv: %v", i, err)
		}
		if msg.From != 0 {
			t.Fatalf("mesh %d From = %d", i, msg.From)
		}
	}
}

func TestTCPMeshEventualDeliveryToLateListener(t *testing.T) {
	// The recipient is offline at send time: delivery must happen once it
	// comes online (store-and-forward through the retry loop).
	addrs := freeAddrs(t, 2)
	peers := map[int]string{0: addrs[0], 1: addrs[1]}
	m0, err := ListenTCP(0, addrs[0], peers, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m0.Close)

	if err := m0.Send(1, &wire.Probe{From: 0}); err != nil {
		t.Fatalf("send to offline peer must queue, not fail: %v", err)
	}
	// Peer comes online later.
	time.Sleep(100 * time.Millisecond)
	m1, err := ListenTCP(1, addrs[1], peers, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m1.Close)

	done := make(chan Msg, 1)
	go func() {
		msg, err := m1.Recv()
		if err == nil {
			done <- msg
		}
	}()
	select {
	case msg := <-done:
		if msg.From != 0 {
			t.Fatalf("From = %d", msg.From)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued message never delivered")
	}
}

func TestTCPMeshSelfAndUnknownPeer(t *testing.T) {
	m0, _ := meshPair(t)
	if err := m0.Send(0, &wire.Probe{}); err == nil {
		t.Fatal("self-send accepted")
	}
	if err := m0.Send(9, &wire.Probe{}); err == nil {
		t.Fatal("unknown peer accepted")
	}
}

// A frame is dropped unless its sender ID names a peer other than the
// recipient: FAUST indexes per-client state by sender, so a frame that
// claims client 99 must not reach a two-client protocol.
func TestTCPMeshDropsUnknownSender(t *testing.T) {
	_, m1 := meshPair(t)
	conn, err := net.Dial("tcp", m1.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	version := &wire.VersionMsg{From: 0, SV: wire.ZeroSignedVersion(2)}
	for _, from := range []int{99, 1, 0} {
		if _, err := conn.Write((&TCPMesh{id: from}).frame(version)); err != nil {
			t.Fatal(err)
		}
	}
	msg, err := m1.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.From != 0 {
		t.Fatalf("first message From = %d, want 0", msg.From)
	}
	m1.mu.Lock()
	left := len(m1.inbox)
	m1.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d more messages reached the inbox", left)
	}
}

func TestTCPMeshCloseUnblocksRecv(t *testing.T) {
	m0, _ := meshPair(t)
	done := make(chan error, 1)
	go func() {
		_, err := m0.Recv()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	m0.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv returned a message after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock")
	}
}

func TestTCPMeshManyMessages(t *testing.T) {
	m0, m1 := meshPair(t)
	const k = 100
	for i := 0; i < k; i++ {
		if err := m0.Send(1, &wire.VersionMsg{From: 0, SV: wire.ZeroSignedVersion(2)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		if _, err := m1.Recv(); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
}
