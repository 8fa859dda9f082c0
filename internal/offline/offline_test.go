package offline

import (
	"sync"
	"testing"
	"time"

	"faust/internal/wire"
)

func TestSendRecv(t *testing.T) {
	h := NewHub(2)
	defer h.Stop()
	if err := h.Endpoint(0).Send(1, &wire.Probe{From: 0}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	m, err := h.Endpoint(1).Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if m.From != 0 {
		t.Fatalf("From = %d, want 0", m.From)
	}
	if _, ok := m.Body.(*wire.Probe); !ok {
		t.Fatalf("Body = %T, want *wire.Probe", m.Body)
	}
}

func TestStoreAndForward(t *testing.T) {
	// The recipient is "offline" (not receiving); messages must queue and
	// be delivered later — the defining property of the offline channel.
	h := NewHub(2)
	defer h.Stop()
	for i := 0; i < 10; i++ {
		if err := h.Endpoint(0).Send(1, &wire.Probe{From: 0}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	if got := h.Endpoint(1).Pending(); got != 10 {
		t.Fatalf("Pending = %d, want 10", got)
	}
	for i := 0; i < 10; i++ {
		if _, err := h.Endpoint(1).Recv(); err != nil {
			t.Fatalf("delayed Recv %d: %v", i, err)
		}
	}
}

func TestPerPairFIFO(t *testing.T) {
	h := NewHub(2)
	defer h.Stop()
	for i := 0; i < 50; i++ {
		_ = h.Endpoint(0).Send(1, &wire.VersionMsg{From: i})
	}
	for i := 0; i < 50; i++ {
		m, err := h.Endpoint(1).Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Body.(*wire.VersionMsg).From; got != i {
			t.Fatalf("message %d out of order: got %d", i, got)
		}
	}
}

func TestBroadcast(t *testing.T) {
	h := NewHub(4)
	defer h.Stop()
	if err := h.Endpoint(2).Broadcast(&wire.Failure{From: 2}); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	for i := 0; i < 4; i++ {
		if i == 2 {
			if h.Endpoint(i).Pending() != 0 {
				t.Fatal("broadcast delivered to sender")
			}
			continue
		}
		m, err := h.Endpoint(i).Recv()
		if err != nil {
			t.Fatalf("endpoint %d: %v", i, err)
		}
		if m.From != 2 {
			t.Fatalf("endpoint %d: From = %d", i, m.From)
		}
	}
}

func TestSendErrors(t *testing.T) {
	h := NewHub(2)
	defer h.Stop()
	if err := h.Endpoint(0).Send(0, &wire.Probe{}); err == nil {
		t.Fatal("self-send accepted")
	}
	if err := h.Endpoint(0).Send(5, &wire.Probe{}); err == nil {
		t.Fatal("out-of-range recipient accepted")
	}
	if err := h.Endpoint(0).Send(-1, &wire.Probe{}); err == nil {
		t.Fatal("negative recipient accepted")
	}
}

func TestSendToClosedRecipientIsSilent(t *testing.T) {
	h := NewHub(2)
	defer h.Stop()
	h.Endpoint(1).Close()
	if err := h.Endpoint(0).Send(1, &wire.Probe{}); err != nil {
		t.Fatalf("send to crashed client must not error: %v", err)
	}
}

func TestSendFromClosedEndpointFails(t *testing.T) {
	h := NewHub(2)
	defer h.Stop()
	h.Endpoint(0).Close()
	if err := h.Endpoint(0).Send(1, &wire.Probe{}); err == nil {
		t.Fatal("send from closed endpoint accepted")
	}
}

func TestRecvDrainsAfterClose(t *testing.T) {
	h := NewHub(2)
	_ = h.Endpoint(0).Send(1, &wire.Probe{From: 0})
	h.Endpoint(1).Close()
	if _, err := h.Endpoint(1).Recv(); err != nil {
		t.Fatalf("queued message lost on close: %v", err)
	}
	if _, err := h.Endpoint(1).Recv(); err == nil {
		t.Fatal("empty closed endpoint returned a message")
	}
}

func TestRecvUnblocksOnClose(t *testing.T) {
	h := NewHub(1)
	done := make(chan error, 1)
	go func() {
		_, err := h.Endpoint(0).Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	h.Stop()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv returned nil error after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock")
	}
}

func TestConcurrentSendersNoLoss(t *testing.T) {
	h := NewHub(5)
	defer h.Stop()
	const per = 100
	var wg sync.WaitGroup
	for s := 1; s < 5; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := h.Endpoint(s).Send(0, &wire.VersionMsg{From: s}); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	counts := make(map[int]int)
	for i := 0; i < 4*per; i++ {
		m, err := h.Endpoint(0).Recv()
		if err != nil {
			t.Fatal(err)
		}
		counts[m.From]++
	}
	for s := 1; s < 5; s++ {
		if counts[s] != per {
			t.Fatalf("sender %d: delivered %d, want %d", s, counts[s], per)
		}
	}
}

func TestHubN(t *testing.T) {
	if NewHub(7).N() != 7 {
		t.Fatal("N() wrong")
	}
}

func TestEndpointID(t *testing.T) {
	h := NewHub(3)
	defer h.Stop()
	for i := 0; i < 3; i++ {
		if h.Endpoint(i).ID() != i {
			t.Fatalf("endpoint %d reports ID %d", i, h.Endpoint(i).ID())
		}
	}
}
