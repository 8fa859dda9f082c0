package transport

import (
	"context"
	"sync"
	"testing"
	"time"

	"faust/internal/wire"
)

// echoCore replies to every SUBMIT with a REPLY whose C field echoes the
// submitted timestamp, and records commit order.
type echoCore struct {
	mu      sync.Mutex
	commits []int
	submits []int
	inFlght int
	maxConc int
}

func (c *echoCore) HandleSubmit(_ context.Context, from int, s *wire.Submit) *wire.Reply {
	c.mu.Lock()
	c.inFlght++
	if c.inFlght > c.maxConc {
		c.maxConc = c.inFlght
	}
	c.submits = append(c.submits, int(s.T))
	c.inFlght--
	c.mu.Unlock()
	return &wire.Reply{C: int(s.T), CVer: wire.ZeroSignedVersion(1), P: [][]byte{nil}}
}

func (c *echoCore) HandleCommit(_ context.Context, from int, m *wire.Commit) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.commits = append(c.commits, from)
}

var _ ServerCore = (*echoCore)(nil)

func TestRequestReplyRoundTrip(t *testing.T) {
	core := &echoCore{}
	nw := NewNetwork(2, core)
	defer nw.Stop()

	link := nw.ClientLink(0)
	if err := link.Send(&wire.Submit{T: 7}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	m, err := link.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	reply, ok := m.(*wire.Reply)
	if !ok {
		t.Fatalf("got %T, want *wire.Reply", m)
	}
	if reply.C != 7 {
		t.Fatalf("reply.C = %d, want 7", reply.C)
	}
}

func TestPerLinkFIFO(t *testing.T) {
	core := &echoCore{}
	nw := NewNetwork(1, core)
	defer nw.Stop()

	link := nw.ClientLink(0)
	const k = 100
	for i := 0; i < k; i++ {
		if err := link.Send(&wire.Submit{T: int64(i)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	for i := 0; i < k; i++ {
		m, err := link.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if got := m.(*wire.Reply).C; got != i {
			t.Fatalf("reply %d out of order: got %d", i, got)
		}
	}
}

func TestHandlerSerialization(t *testing.T) {
	core := &echoCore{}
	nw := NewNetwork(4, core)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			link := nw.ClientLink(c)
			for i := 0; i < 200; i++ {
				_ = link.Send(&wire.Submit{T: int64(i)})
				if _, err := link.Recv(); err != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	nw.Stop()
	if core.maxConc != 1 {
		t.Fatalf("handlers overlapped: max concurrency %d", core.maxConc)
	}
	if len(core.submits) != 800 {
		t.Fatalf("lost submits: %d/800", len(core.submits))
	}
}

func TestCommitDelivered(t *testing.T) {
	core := &echoCore{}
	nw := NewNetwork(1, core)
	link := nw.ClientLink(0)
	for i := 0; i < 10; i++ {
		_ = link.Send(&wire.Commit{})
	}
	// Push a submit through to establish ordering: all commits handled
	// before a later submit on the same link.
	_ = link.Send(&wire.Submit{T: 1})
	if _, err := link.Recv(); err != nil {
		t.Fatal(err)
	}
	nw.Stop()
	core.mu.Lock()
	defer core.mu.Unlock()
	if len(core.commits) != 10 {
		t.Fatalf("commits delivered = %d, want 10", len(core.commits))
	}
}

func TestClientCloseSimulatesCrash(t *testing.T) {
	core := &echoCore{}
	nw := NewNetwork(2, core)
	defer nw.Stop()

	crashed := nw.ClientLink(0)
	_ = crashed.Close()
	if err := crashed.Send(&wire.Submit{T: 1}); err == nil {
		t.Fatal("Send after Close succeeded")
	}
	if _, err := crashed.Recv(); err == nil {
		t.Fatal("Recv after Close succeeded")
	}

	// Other clients are unaffected (wait-freedom of the substrate).
	healthy := nw.ClientLink(1)
	if err := healthy.Send(&wire.Submit{T: 5}); err != nil {
		t.Fatalf("healthy Send: %v", err)
	}
	if _, err := healthy.Recv(); err != nil {
		t.Fatalf("healthy Recv: %v", err)
	}
}

func TestRecvUnblocksOnStop(t *testing.T) {
	core := &echoCore{}
	nw := NewNetwork(1, core)
	done := make(chan error, 1)
	go func() {
		_, err := nw.ClientLink(0).Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	nw.Stop()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv returned nil error after Stop")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Stop")
	}
}

func TestStopIdempotent(t *testing.T) {
	nw := NewNetwork(1, &echoCore{})
	nw.Stop()
	nw.Stop() // must not panic or deadlock
}

func TestMetrics(t *testing.T) {
	core := &echoCore{}
	nw := NewNetwork(1, core, WithMetrics())
	defer nw.Stop()
	link := nw.ClientLink(0)
	const ops = 5
	for i := 0; i < ops; i++ {
		_ = link.Send(&wire.Submit{T: int64(i)})
		if _, err := link.Recv(); err != nil {
			t.Fatal(err)
		}
		_ = link.Send(&wire.Commit{})
	}
	// Commits are async; force them through with a final synchronous op.
	_ = link.Send(&wire.Submit{T: 99})
	if _, err := link.Recv(); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if st.ClientToServerMsgs != 2*ops+1 {
		t.Fatalf("client->server msgs = %d, want %d", st.ClientToServerMsgs, 2*ops+1)
	}
	if st.ServerToClientMsgs != ops+1 {
		t.Fatalf("server->client msgs = %d, want %d", st.ServerToClientMsgs, ops+1)
	}
	if st.ClientToServerBytes <= 0 || st.ServerToClientBytes <= 0 {
		t.Fatal("byte counters not populated")
	}
}

// silentCore never replies: the transport must not deadlock other clients.
type silentCore struct{}

func (silentCore) HandleSubmit(context.Context, int, *wire.Submit) *wire.Reply { return nil }
func (silentCore) HandleCommit(context.Context, int, *wire.Commit)             {}

func TestNilReplyMeansSilence(t *testing.T) {
	nw := NewNetwork(1, silentCore{})
	defer nw.Stop()
	link := nw.ClientLink(0)
	_ = link.Send(&wire.Submit{T: 1})
	got := make(chan struct{})
	go func() {
		_, _ = link.Recv()
		close(got)
	}()
	select {
	case <-got:
		t.Fatal("received a reply from a silent server")
	case <-time.After(50 * time.Millisecond):
	}
}
