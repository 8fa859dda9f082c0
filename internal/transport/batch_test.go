package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"faust/internal/crypto"
	"faust/internal/obs/trace"
	"faust/internal/wire"
)

// recCore is a recording ServerCore with an optional gate: when armed,
// the FIRST HandleSubmit blocks until the gate closes, signaling entry
// via entered. Tests use the gate to park the dispatcher inside a
// handler while they queue more messages, forcing the next drain to
// form a batch of known content — batching becomes deterministic
// instead of a race against the dispatcher.
type recCore struct {
	mu      sync.Mutex
	entered chan struct{}
	gate    chan struct{}
	gated   bool
	applied [][2]int // {from, T} per applied SUBMIT, arrival order
	commits int
}

func (c *recCore) arm() {
	c.entered = make(chan struct{})
	c.gate = make(chan struct{})
}

func (c *recCore) HandleSubmit(_ context.Context, from int, s *wire.Submit) *wire.Reply {
	c.mu.Lock()
	block := c.gate != nil && !c.gated
	if block {
		c.gated = true
		close(c.entered)
	}
	c.mu.Unlock()
	if block {
		<-c.gate
	}
	c.mu.Lock()
	c.applied = append(c.applied, [2]int{from, int(s.T)})
	c.mu.Unlock()
	return &wire.Reply{C: int(s.T), CVer: wire.ZeroSignedVersion(1), P: [][]byte{nil}}
}

func (c *recCore) HandleCommit(_ context.Context, from int, m *wire.Commit) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.commits++
}

func (c *recCore) appliedOps() [][2]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][2]int(nil), c.applied...)
}

// batchRecCore extends recCore into a BatchCore test double, counting
// buffered applies and flushes.
type batchRecCore struct {
	recCore
	buffered int
	flushes  int
	flushErr error
}

var _ BatchCore = (*batchRecCore)(nil)

func (c *batchRecCore) HandleSubmitBuffered(ctx context.Context, from int, s *wire.Submit) *wire.Reply {
	c.mu.Lock()
	c.buffered++
	c.mu.Unlock()
	return c.HandleSubmit(ctx, from, s)
}

func (c *batchRecCore) FlushBatch() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushes++
	return c.flushErr
}

// quietCore is a ServerCore that allocates nothing: every SUBMIT is
// answered with the same preallocated reply. quietBatchCore adds the
// BatchCore half.
type quietCore struct{ reply wire.Reply }

func (c *quietCore) HandleSubmit(context.Context, int, *wire.Submit) *wire.Reply { return &c.reply }
func (c *quietCore) HandleCommit(context.Context, int, *wire.Commit)             {}

type quietBatchCore struct {
	quietCore
	flushes int
}

func (c *quietBatchCore) HandleSubmitBuffered(context.Context, int, *wire.Submit) *wire.Reply {
	return &c.reply
}
func (c *quietBatchCore) FlushBatch() error { c.flushes++; return nil }

// quietHub is a hub over core whose dispatcher is not started — tests
// drive runBatch directly — and whose deliver counts into *sent.
func quietHub(core ServerCore, ring *crypto.Keyring, sent *int) *hub {
	h := &hub{core: core, ring: ring, deliver: func(_ int, msgs []wire.Message) error {
		*sent += len(msgs)
		return nil
	}}
	initHub(h)
	return h
}

// TestHubSteppedWithoutDispatcher drives a hub the way a scheduler that
// owns the inbox does, through Stepped: admit, then one Step on the
// test's goroutine, with no dispatcher goroutine ever started (deliver
// appends to got unlocked, so -race would flag any other goroutine).
// Replies come back coalesced per client in arrival order.
func TestHubSteppedWithoutDispatcher(t *testing.T) {
	type delivery struct {
		to int
		cs []int
	}
	var got []delivery
	s := NewStepped(&recCore{}, func(to int, msgs []wire.Message) error {
		d := delivery{to: to}
		for _, m := range msgs {
			d.cs = append(d.cs, m.(*wire.Reply).C)
		}
		got = append(got, d)
		return nil
	})
	for i, from := range []int{0, 1, 0} {
		s.Admit(from, &wire.Submit{T: int64(i)})
	}
	s.Step(DefaultMaxBatch)
	want := []delivery{{to: 0, cs: []int{0, 2}}, {to: 1, cs: []int{1}}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("deliveries = %v, want %v", got, want)
	}
}

// TestAllocBudgetDispatchBatchOfOne pins what the dispatcher itself costs
// a lone SUBMIT once its scratch is warm: nothing — no per-op closure, no
// interface boxing, no scratch regrowth — with the verifying BatchCore
// set-up of reg-tcp-wal and with the plain unverified core of faust-mem.
// Runs without -race in CI (race instrumentation changes alloc counts).
func TestAllocBudgetDispatchBatchOfOne(t *testing.T) {
	ring, signers := crypto.NewTestKeyring(1, 3)
	batchCore := &quietBatchCore{}
	for name, setup := range map[string]struct {
		core ServerCore
		ring *crypto.Keyring
	}{
		"verified BatchCore": {batchCore, ring},
		"plain ServerCore":   {&quietCore{}, nil},
	} {
		sent := 0
		h := quietHub(setup.core, setup.ring, &sent)
		batch := []envelope{{from: 0, msg: signedSubmit(signers[0], 0, 1)}}
		const runs = 200
		got := testing.AllocsPerRun(runs, func() { h.runBatch(batch) })
		if got != 0 {
			t.Errorf("%s: a batch of one costs %.0f allocations in the dispatcher, want 0", name, got)
		}
		if sent != runs+1 { // AllocsPerRun warms up with one extra call
			t.Errorf("%s: %d replies sent for %d batches", name, sent, runs+1)
		}
	}
	if batchCore.flushes != 201 {
		t.Errorf("flushes = %d, want one per batch of one (201)", batchCore.flushes)
	}
}

// TestVerifiedTracedBatchWithCommit: a COMMIT sharing a batch with a
// verified SUBMIT has no verification job and no trace context — the
// verify stage must not stamp a span on it (it used to dereference the
// COMMIT's nil context as soon as tracing and verification were both on).
func TestVerifiedTracedBatchWithCommit(t *testing.T) {
	trace.SetEnabled(true)
	trace.Configure(1, 0)
	t.Cleanup(func() {
		trace.SetEnabled(false)
		trace.Configure(0, 0)
		trace.Default().Reset()
	})
	ring, signers := crypto.NewTestKeyring(1, 3)
	sent := 0
	quietHub(&quietCore{}, ring, &sent).runBatch([]envelope{
		{from: 0, msg: &wire.Commit{}},
		{from: 0, msg: signedSubmit(signers[0], 0, 1)},
	})
	if sent != 1 {
		t.Fatalf("replies sent = %d, want the SUBMIT's one", sent)
	}
}

// genCore extends recCore with GenericCore: every generic message is
// answered by pushing a PROBE back to its sender.
type genCore struct {
	recCore
	push func(to int, m wire.Message) error
}

func (c *genCore) HandleMessage(from int, m wire.Message) {
	_ = c.push(from, &wire.Probe{From: from})
}

func (c *genCore) AttachPusher(p func(to int, m wire.Message) error) { c.push = p }

// signedSubmit builds a SUBMIT correctly signed by s, claiming identity
// `from`.
func signedSubmit(s *crypto.Signer, from int, t int64) *wire.Submit {
	sub := &wire.Submit{T: t, Inv: wire.Invocation{Client: from, Op: wire.OpWrite, Reg: from}}
	sub.Inv.SubmitSig = s.Sign(crypto.DomainSubmit, wire.SubmitPayload(sub.Inv.Op, sub.Inv.Reg, t, nil))
	return sub
}

func mustRecvReply(t *testing.T, link Link, wantC int) {
	t.Helper()
	m, err := link.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	r, ok := m.(*wire.Reply)
	if !ok {
		t.Fatalf("got %T, want *wire.Reply", m)
	}
	if r.C != wantC {
		t.Fatalf("reply.C = %d, want %d", r.C, wantC)
	}
}

// TestMemoryBatchGroupApply parks the dispatcher in the first op's
// handler, queues nine more, and requires the release to drain them as
// ONE batch: ten buffered applies and two flushes — the parked batch of
// one, then the nine together — with replies in FIFO order.
func TestMemoryBatchGroupApply(t *testing.T) {
	core := &batchRecCore{}
	core.arm()
	nw := NewNetwork(1, core)
	defer nw.Stop()
	link := nw.ClientLink(0)

	if err := link.Send(&wire.Submit{T: 0}); err != nil {
		t.Fatal(err)
	}
	<-core.entered
	for i := 1; i <= 9; i++ {
		if err := link.Send(&wire.Submit{T: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	close(core.gate)

	for i := 0; i <= 9; i++ {
		mustRecvReply(t, link, i)
	}

	core.mu.Lock()
	defer core.mu.Unlock()
	if core.buffered != 10 {
		t.Fatalf("buffered applies = %d, want 10 (every SUBMIT takes the batch route)", core.buffered)
	}
	if core.flushes != 2 {
		t.Fatalf("flushes = %d, want 2 (the batch of one, then nine amortized)", core.flushes)
	}
	for i, op := range core.applied {
		if op[1] != i {
			t.Fatalf("applied[%d] = T%d, want T%d (arrival order)", i, op[1], i)
		}
	}
}

// TestBatchRespectsMaxBatchCap queues far more ops than the cap and
// requires no drain to exceed it.
func TestBatchRespectsMaxBatchCap(t *testing.T) {
	core := &batchRecCore{}
	core.arm()
	nw := NewNetwork(1, core, WithMaxBatch(4))
	defer nw.Stop()
	link := nw.ClientLink(0)

	if err := link.Send(&wire.Submit{T: 0}); err != nil {
		t.Fatal(err)
	}
	<-core.entered
	for i := 1; i <= 20; i++ {
		if err := link.Send(&wire.Submit{T: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	close(core.gate)
	for i := 0; i <= 20; i++ {
		mustRecvReply(t, link, i)
	}
	core.mu.Lock()
	defer core.mu.Unlock()
	// 20 queued ops at cap 4 need at least ceil(20/4) = 5 flushes; under
	// the cap they could never have been fewer.
	if core.flushes < 5 {
		t.Fatalf("flushes = %d for 20 buffered ops at cap 4, want >= 5", core.flushes)
	}
}

// waitFlushes polls the double until it has seen n FlushBatch calls.
func waitFlushes(t *testing.T, core *batchRecCore, n int) {
	t.Helper()
	waitFor(t, 2*time.Second, func() bool {
		core.mu.Lock()
		defer core.mu.Unlock()
		return core.flushes >= n
	}, "timed out waiting for the batch flush")
}

// requireSilence stops the network and fails on anything still queued
// for the client.
func requireSilence(t *testing.T, nw *Network, link Link) {
	t.Helper()
	nw.Stop()
	if m, err := link.Recv(); err == nil {
		t.Fatalf("got %v, want silence", m)
	}
}

// TestBatchOfOneTakesTheBatchRoute: a lone SUBMIT is a batch like any
// other — exactly one HandleSubmitBuffered and one FlushBatch, never a
// direct HandleSubmit — and a failed flush withholds its reply too.
func TestBatchOfOneTakesTheBatchRoute(t *testing.T) {
	for _, flushErr := range []error{nil, errors.New("sync failed")} {
		core := &batchRecCore{flushErr: flushErr}
		nw := NewNetwork(1, core)
		link := nw.ClientLink(0)
		if err := link.Send(&wire.Submit{T: 7}); err != nil {
			t.Fatal(err)
		}
		if flushErr == nil {
			mustRecvReply(t, link, 7)
		}
		waitFlushes(t, core, 1)
		requireSilence(t, nw, link)

		if core.buffered != 1 || core.flushes != 1 || len(core.applied) != 1 {
			t.Fatalf("flushErr=%v: buffered/flushes/applied = %d/%d/%d, want 1/1/1",
				flushErr, core.buffered, core.flushes, len(core.applied))
		}
	}
}

// TestBatchFlushFailureSuppressesReplies: when FlushBatch fails, every
// reply that flush covered must be withheld — clients may never observe
// an operation whose durability point was not reached.
func TestBatchFlushFailureSuppressesReplies(t *testing.T) {
	core := &batchRecCore{flushErr: errors.New("sync failed")}
	core.arm()
	nw := NewNetwork(1, core)
	link := nw.ClientLink(0)

	if err := link.Send(&wire.Submit{T: 0}); err != nil {
		t.Fatal(err)
	}
	<-core.entered
	for i := 1; i <= 4; i++ {
		if err := link.Send(&wire.Submit{T: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	close(core.gate)

	// Two failed flushes — the parked batch of one, then the four queued
	// behind it — and not one reply.
	waitFlushes(t, core, 2)
	requireSilence(t, nw, link)
}

// TestBatchForgedSignatureMidBatch forms one deterministic batch holding
// valid, forged and impersonated SUBMITs and requires exactly the valid
// ones to apply and reply, in order — batching never admits an
// unverified op, and one bad signature rejects only its own op.
func TestBatchForgedSignatureMidBatch(t *testing.T) {
	ring, signers := crypto.NewTestKeyring(2, 7)
	core := &recCore{}
	core.arm()
	nw := NewNetwork(2, core, WithVerifier(ring))
	defer nw.Stop()
	link := nw.ClientLink(0)

	rejectsBefore := tmVerifyRejects.Value()
	if err := link.Send(signedSubmit(signers[0], 0, 0)); err != nil {
		t.Fatal(err)
	}
	<-core.entered
	for i := 1; i <= 9; i++ {
		sub := signedSubmit(signers[0], 0, int64(i))
		switch i {
		case 5: // forged: signed by the wrong key
			sub.Inv.SubmitSig = signers[1].Sign(crypto.DomainSubmit,
				wire.SubmitPayload(sub.Inv.Op, sub.Inv.Reg, sub.T, nil))
		case 7: // impersonation: valid signature, wrong claimed identity
			sub = signedSubmit(signers[1], 1, 7)
		}
		if err := link.Send(sub); err != nil {
			t.Fatal(err)
		}
	}
	close(core.gate)

	for _, want := range []int{0, 1, 2, 3, 4, 6, 8, 9} {
		mustRecvReply(t, link, want)
	}
	want := [][2]int{{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 6}, {0, 8}, {0, 9}}
	got := core.appliedOps()
	if len(got) != len(want) {
		t.Fatalf("applied %d ops, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("applied[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if d := tmVerifyRejects.Value() - rejectsBefore; d != 2 {
		t.Fatalf("verify rejects = %d, want 2", d)
	}

	// A batch of one rejects the same way: a lone forged op is silent,
	// the valid op after it still replies.
	bad := signedSubmit(signers[0], 0, 100)
	bad.Inv.SubmitSig[0] ^= 0xff
	if err := link.Send(bad); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return tmVerifyRejects.Value()-rejectsBefore == 3 },
		"the lone forged SUBMIT was never rejected")
	if err := link.Send(signedSubmit(signers[0], 0, 101)); err != nil {
		t.Fatal(err)
	}
	mustRecvReply(t, link, 101)
}

// TestBatchGenericBarrierOrdering: a generic message inside a batch is a
// barrier — replies owed to its client from earlier in the batch must be
// delivered before the generic handler can push anything, and later
// replies after.
func TestBatchGenericBarrierOrdering(t *testing.T) {
	core := &genCore{}
	core.arm()
	nw := NewNetwork(1, core)
	defer nw.Stop()
	link := nw.ClientLink(0)

	if err := link.Send(&wire.Submit{T: 0}); err != nil {
		t.Fatal(err)
	}
	<-core.entered
	if err := link.Send(&wire.Submit{T: 1}); err != nil {
		t.Fatal(err)
	}
	if err := link.Send(&wire.Probe{From: 0}); err != nil {
		t.Fatal(err)
	}
	if err := link.Send(&wire.Submit{T: 2}); err != nil {
		t.Fatal(err)
	}
	close(core.gate)

	mustRecvReply(t, link, 0)
	mustRecvReply(t, link, 1)
	m, err := link.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*wire.Probe); !ok {
		t.Fatalf("got %T after the batch prefix, want the pushed *wire.Probe", m)
	}
	mustRecvReply(t, link, 2)
}

// stressTransport abstracts the two transports for the shared stress
// test: build a verified server over core, hand out per-client links.
type stressTransport struct {
	name  string
	setup func(t *testing.T, n int, core ServerCore, ring *crypto.Keyring) []Link
}

var stressTransports = []stressTransport{
	{"memory", func(t *testing.T, n int, core ServerCore, ring *crypto.Keyring) []Link {
		nw := NewNetwork(n, core, WithVerifier(ring))
		t.Cleanup(nw.Stop)
		links := make([]Link, n)
		for i := range links {
			links[i] = nw.ClientLink(i)
		}
		return links
	}},
	{"tcp", func(t *testing.T, n int, core ServerCore, ring *crypto.Keyring) []Link {
		_, addr := startTCP(t, core, WithVerifyKeyring(ring))
		links := make([]Link, n)
		for i := range links {
			l, err := DialTCP(addr, i)
			if err != nil {
				t.Fatalf("dial %d: %v", i, err)
			}
			t.Cleanup(func() { _ = l.Close() })
			links[i] = l
		}
		return links
	}},
}

// TestBatchStressFIFOExactlyOnce floods both transports from 8
// concurrent clients, with a forged SUBMIT every 10th op, and requires
// per-client FIFO reply order, exactly-once apply across batch
// boundaries, and rejection of exactly the forged ops. Run with -race.
func TestBatchStressFIFOExactlyOnce(t *testing.T) {
	const (
		clients = 8
		ops     = 120
	)
	forged := func(i int) bool { return i%10 == 7 }

	for _, tr := range stressTransports {
		t.Run(tr.name, func(t *testing.T) {
			ring, signers := crypto.NewTestKeyring(clients, 11)
			core := &recCore{}
			links := tr.setup(t, clients, core, ring)

			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					link := links[c]
					for i := 0; i < ops; i++ {
						sub := signedSubmit(signers[c], c, int64(i))
						if forged(i) {
							sub.Inv.SubmitSig[0] ^= 0xff
						}
						if err := link.Send(sub); err != nil {
							t.Errorf("client %d send %d: %v", c, i, err)
							return
						}
					}
					for i := 0; i < ops; i++ {
						if forged(i) {
							continue // rejected: no reply
						}
						m, err := link.Recv()
						if err != nil {
							t.Errorf("client %d recv %d: %v", c, i, err)
							return
						}
						if got := m.(*wire.Reply).C; got != i {
							t.Errorf("client %d: reply %d out of order: got %d", c, i, got)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			// Exactly-once, in order, only the valid ops.
			perClient := make(map[int][]int)
			for _, op := range core.appliedOps() {
				perClient[op[0]] = append(perClient[op[0]], op[1])
			}
			for c := 0; c < clients; c++ {
				var want []int
				for i := 0; i < ops; i++ {
					if !forged(i) {
						want = append(want, i)
					}
				}
				got := perClient[c]
				if len(got) != len(want) {
					t.Fatalf("client %d: %d ops applied, want %d", c, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("client %d: applied[%d] = %d, want %d", c, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// waitFIFOLen polls a fifo until it holds at least n queued items.
func waitFIFOLen(t *testing.T, q *fifo[envelope], n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		q.mu.Lock()
		have := q.n
		q.mu.Unlock()
		if have >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d queued envelopes (have %d)", n, have)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitFIFOClosed polls a fifo until close() has run.
func waitFIFOClosed(t *testing.T, q *fifo[envelope]) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		q.mu.Lock()
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the inbox to close")
		}
		time.Sleep(time.Millisecond)
	}
}

// tracedSubmit builds a SUBMIT carrying a kept trace with a
// deterministic per-index ID.
func tracedSubmit(i int) *wire.Submit {
	var id [16]byte
	binary.BigEndian.PutUint64(id[:8], uint64(i)+1)
	binary.BigEndian.PutUint64(id[8:], ^uint64(i))
	return &wire.Submit{T: int64(i), Inv: wire.Invocation{
		Client: 0, Op: wire.OpWrite,
		Trace: &wire.TraceCtx{ID: id, Span: 1, Flags: wire.TraceFlagKeep},
	}}
}

// testDrainSpansAfterClose is the shared transport-conformance check for
// the shutdown drain: messages still queued when the inbox closes must
// be dispatched with full span instrumentation — the drain path emits
// the same queue-wait and handler spans as the live path, on BOTH
// transports.
func testDrainSpansAfterClose(t *testing.T, inboxOf func(core *recCore) (*fifo[envelope], func(m wire.Message) error, func())) {
	trace.SetEnabled(true)
	trace.Configure(1, 0)
	t.Cleanup(func() {
		trace.SetEnabled(false)
		trace.Configure(0, 0)
		trace.Default().Reset()
	})
	trace.Default().Reset()

	const k = 6
	core := &recCore{}
	core.arm()
	inbox, send, stop := inboxOf(core)

	if err := send(tracedSubmit(0)); err != nil {
		t.Fatal(err)
	}
	<-core.entered
	for i := 1; i <= k; i++ {
		if err := send(tracedSubmit(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFIFOLen(t, inbox, k)

	stopped := make(chan struct{})
	go func() { stop(); close(stopped) }()
	waitFIFOClosed(t, inbox)
	close(core.gate) // dispatcher resumes: the k queued ops drain post-close
	<-stopped

	if got := len(core.appliedOps()); got != k+1 {
		t.Fatalf("applied %d ops, want %d (drain lost messages)", got, k+1)
	}
	trace.Default().Sweep()
	spansByTrace := make(map[trace.TraceID]map[string]bool)
	for _, tr := range trace.Default().Snapshot() {
		names := make(map[string]bool)
		for _, s := range tr.Spans {
			names[s.Name] = true
		}
		spansByTrace[tr.ID] = names
	}
	for i := 0; i <= k; i++ {
		id := trace.TraceID(tracedSubmit(i).Inv.Trace.ID)
		names, ok := spansByTrace[id]
		if !ok {
			t.Fatalf("op %d: trace not retained (drained after close without sealing)", i)
		}
		for _, want := range []string{spanSrvSubmit, spanQueue} {
			if !names[want] {
				t.Errorf("op %d: span %q missing from drained trace %v", i, want, names)
			}
		}
	}
}

func TestMemoryDrainSpansAfterClose(t *testing.T) {
	testDrainSpansAfterClose(t, func(core *recCore) (*fifo[envelope], func(wire.Message) error, func()) {
		nw := NewNetwork(1, core)
		return nw.hub.inbox, nw.ClientLink(0).Send, nw.Stop
	})
}

func TestTCPDrainSpansAfterClose(t *testing.T) {
	testDrainSpansAfterClose(t, func(core *recCore) (*fifo[envelope], func(wire.Message) error, func()) {
		srv, addr := startTCP(t, core)
		link, err := DialTCP(addr, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = link.Close() })
		srv.mu.Lock()
		rt := srv.shards[DefaultShard]
		srv.mu.Unlock()
		if rt == nil {
			t.Fatal("default shard runtime missing after handshake")
		}
		return rt.hub.inbox, link.Send, srv.Stop
	})
}
