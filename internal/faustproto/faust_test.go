package faustproto

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"faust/internal/byzantine"
	"faust/internal/clock"
	"faust/internal/crypto"
	"faust/internal/offline"
	"faust/internal/transport"
	"faust/internal/ustor"
	"faust/internal/version"
	"faust/internal/wire"
)

const waitLong = 10 * time.Second

// fastConfig keeps tests snappy: probe after 50ms silence, poll at 10ms.
func fastConfig(dummy bool) Config {
	return Config{
		ProbeTimeout:      50 * time.Millisecond,
		PollInterval:      10 * time.Millisecond,
		DisableDummyReads: !dummy,
	}
}

type cluster struct {
	hub     *offline.Hub
	network *transport.Network
	clients []*Client
}

func newCluster(t *testing.T, n int, core transport.ServerCore, cfg Config, opts ...Option) *cluster {
	t.Helper()
	ring, signers := crypto.NewTestKeyring(n, 42)
	if core == nil {
		core = ustor.NewServer(n)
	}
	nw := transport.NewNetwork(n, core)
	hub := offline.NewHub(n)
	cl := &cluster{hub: hub, network: nw, clients: make([]*Client, n)}
	for i := 0; i < n; i++ {
		allOpts := append([]Option{WithConfig(cfg)}, opts...)
		cl.clients[i] = NewClient(i, ring, signers[i], nw.ClientLink(i), hub.Endpoint(i), allOpts...)
	}
	t.Cleanup(func() {
		for _, c := range cl.clients {
			c.Stop()
		}
		nw.Stop()
		hub.Stop()
	})
	return cl
}

func (cl *cluster) startAll() {
	for _, c := range cl.clients {
		c.Start()
	}
}

func TestWriteReadWithTimestamps(t *testing.T) {
	cl := newCluster(t, 2, nil, fastConfig(false))
	cl.startAll()
	t1, err := cl.clients[0].Write([]byte("hello"))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if t1 != 1 {
		t.Fatalf("first timestamp = %d, want 1", t1)
	}
	v, t2, err := cl.clients[1].Read(0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(v) != "hello" {
		t.Fatalf("read = %q", v)
	}
	if t2 != 1 {
		t.Fatalf("reader timestamp = %d, want 1", t2)
	}
}

func TestTimestampsMonotonic(t *testing.T) {
	// Definition 5, Integrity.
	cl := newCluster(t, 2, nil, fastConfig(false))
	cl.startAll()
	var last int64
	for i := 0; i < 5; i++ {
		ts, err := cl.clients[0].Write([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if ts <= last {
			t.Fatalf("timestamp %d after %d", ts, last)
		}
		last = ts
		_, ts2, err := cl.clients[0].Read(1)
		if err != nil {
			t.Fatal(err)
		}
		if ts2 <= ts {
			t.Fatalf("read timestamp %d after %d", ts2, ts)
		}
		last = ts2
	}
}

// TestFigure2StabilityCut reproduces the exact scenario of Figure 2:
// Alice's notification stable_Alice([10, 8, 3]) — consistent with herself
// up to timestamp 10, with Bob up to 8, and with Carlos up to 3.
func TestFigure2StabilityCut(t *testing.T) {
	cl := newCluster(t, 3, nil, fastConfig(false))
	cl.startAll()
	alice, bob, carlos := cl.clients[0], cl.clients[1], cl.clients[2]

	// Alice works; timestamps 1..3.
	for i := 1; i <= 3; i++ {
		if _, err := alice.Write([]byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Carlos observes Alice's register (his version now covers ts 3)...
	if _, _, err := carlos.Read(0); err != nil {
		t.Fatal(err)
	}
	// ...and Alice learns Carlos's version: timestamp 4 for Alice.
	if _, _, err := alice.Read(2); err != nil {
		t.Fatal(err)
	}
	// Carlos goes to sleep. Alice keeps working: timestamps 5..8.
	for i := 5; i <= 8; i++ {
		if _, err := alice.Write([]byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Bob catches up on Alice's register (his version covers ts 8)...
	if _, _, err := bob.Read(0); err != nil {
		t.Fatal(err)
	}
	// ...Alice learns Bob's version (ts 9), then writes once more (ts 10).
	if _, _, err := alice.Read(1); err != nil {
		t.Fatal(err)
	}
	ts, err := alice.Write([]byte("a10"))
	if err != nil {
		t.Fatal(err)
	}
	if ts != 10 {
		t.Fatalf("Alice's last timestamp = %d, want 10", ts)
	}

	got := alice.StableCut()
	want := []int64{10, 8, 3}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("stable_Alice(%v), want %v", got, want)
		}
	}
	if !alice.IsStable(3) {
		t.Fatal("operation 3 must be stable w.r.t. everyone")
	}
	if alice.IsStable(4) {
		t.Fatal("operation 4 must not yet be stable (Carlos is behind)")
	}
}

func TestFailHandlerAndBroadcastEvidence(t *testing.T) {
	const n = 3
	server, err := byzantine.NewForkingServer(n, [][]int{{0}, {1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	fails := map[int]error{}
	cl := newCluster(t, n, server, fastConfig(false))
	for i, c := range cl.clients {
		i := i
		c.onFail = func(err error) {
			mu.Lock()
			fails[i] = err
			mu.Unlock()
		}
	}
	cl.startAll()
	for i, c := range cl.clients {
		if _, err := c.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range cl.clients {
		if err := c.WaitFail(waitLong); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(fails) != n {
		t.Fatalf("fail handlers fired %d times, want %d", len(fails), n)
	}
}

func TestBogusFailureEvidenceIgnored(t *testing.T) {
	// A FAILURE message with invalid evidence must not trigger fail
	// (failure-detection accuracy) — but note the model trusts bare
	// FAILURE messages from honest clients, so only the evidence variant
	// is validated.
	cl := newCluster(t, 2, nil, fastConfig(false))
	cl.startAll()
	c0 := cl.clients[0]

	bogus := &wire.Failure{
		From:        1,
		HasEvidence: true,
		EvidenceA:   wire.SignedVersion{Committer: 0, Ver: mkVer(2, 1, 0), Sig: []byte("junk")},
		EvidenceB:   wire.SignedVersion{Committer: 1, Ver: mkVer(2, 0, 1), Sig: []byte("junk")},
	}
	// An unsigned initial version of another dimension is incomparable
	// with everything, so it must not pass as half of a fork proof.
	_, signers := crypto.NewTestKeyring(2, 42) // same seed as newCluster
	verB := mkVer(2, 0, 1)
	unsigned := &wire.Failure{
		From:        1,
		HasEvidence: true,
		EvidenceA:   wire.SignedVersion{Committer: 0, Ver: version.New(1)},
		EvidenceB:   wire.SignedVersion{Committer: 1, Ver: verB, Sig: signers[1].Sign(crypto.DomainCommit, wire.CommitPayload(verB))},
	}
	for _, m := range []*wire.Failure{bogus, unsigned} {
		if err := cl.hub.Endpoint(1).Send(0, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := c0.WaitFail(300 * time.Millisecond); err == nil {
		t.Fatal("client failed on unverifiable evidence")
	}
}

func TestValidFailureEvidenceAccepted(t *testing.T) {
	// Genuine incomparable signed versions convince any client.
	ring, signers := crypto.NewTestKeyring(2, 42) // same seed as newCluster
	cl := newCluster(t, 2, nil, fastConfig(false))
	cl.startAll()
	c0 := cl.clients[0]

	verA := mkVer(2, 1, 0)
	verB := mkVer(2, 0, 1)
	evidence := &wire.Failure{
		From:        1,
		HasEvidence: true,
		EvidenceA: wire.SignedVersion{
			Committer: 0, Ver: verA,
			Sig: signers[0].Sign(crypto.DomainCommit, wire.CommitPayload(verA)),
		},
		EvidenceB: wire.SignedVersion{
			Committer: 1, Ver: verB,
			Sig: signers[1].Sign(crypto.DomainCommit, wire.CommitPayload(verB)),
		},
	}
	_ = ring
	if err := cl.hub.Endpoint(1).Send(0, evidence); err != nil {
		t.Fatal(err)
	}
	if err := c0.WaitFail(waitLong); err != nil {
		t.Fatalf("verifiable fork evidence ignored: %v", err)
	}
}

func TestBareFailureMessageTrusted(t *testing.T) {
	cl := newCluster(t, 2, nil, fastConfig(false))
	cl.startAll()
	if err := cl.hub.Endpoint(1).Send(0, &wire.Failure{From: 1}); err != nil {
		t.Fatal(err)
	}
	if err := cl.clients[0].WaitFail(waitLong); err != nil {
		t.Fatalf("bare FAILURE from honest client ignored: %v", err)
	}
}

func TestProbeAnsweredWithVersion(t *testing.T) {
	// The fake clock never moves, so client 0 sends no probes of its own:
	// the first message client 1 receives is the answer to its probe.
	cl := newCluster(t, 2, nil, fastConfig(false), WithClock(clock.NewFake()))
	cl.clients[0].Start() // client 1 stays un-started; we act as client 1
	if _, err := cl.clients[0].Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	ep1 := cl.hub.Endpoint(1)
	if err := ep1.Send(0, &wire.Probe{From: 1}); err != nil {
		t.Fatal(err)
	}
	m, err := ep1.Recv()
	if err != nil {
		t.Fatal(err)
	}
	vm, isVer := m.Body.(*wire.VersionMsg)
	if !isVer {
		t.Fatalf("probe answered with %T, want a VERSION", m.Body)
	}
	if vm.SV.Ver.IsZero() {
		t.Fatal("probe answered with zero version after a write")
	}
	if vm.SV.Ver.V[0] != 1 {
		t.Fatalf("version does not cover the write: %v", vm.SV.Ver)
	}
}

func TestLateJoinerCatchesUpViaStoredProbes(t *testing.T) {
	// Carlos pattern: a client that was offline (not started) receives
	// buffered probes when it comes online and the prober's cut advances.
	clk := clock.NewFake()
	cfg := fastConfig(false)
	cl := newCluster(t, 2, nil, cfg, WithClock(clk))
	c0, c1 := cl.clients[0], cl.clients[1]
	c0.Start() // c1 offline

	ts, err := c0.Write([]byte("early"))
	if err != nil {
		t.Fatal(err)
	}
	// c1 is silent past the probe timeout, so c0 probes it; the probe
	// waits in c1's offline inbox. The clock then stands still: c0 sends
	// no second probe, and only the stored one can carry c1's answer.
	clk.Advance(cfg.ProbeTimeout + cfg.PollInterval)
	// c1 observes the op through the server, then comes online and
	// answers the stored probe with a version that covers it.
	if _, _, err := c1.Read(0); err != nil {
		t.Fatal(err)
	}
	c1.Start()
	if err := c0.WaitStableFor(1, ts, waitLong); err != nil {
		t.Fatalf("stability after late join: %v", err)
	}
}

func TestAuditDetectsFork(t *testing.T) {
	ring, signers := crypto.NewTestKeyring(2, 9)
	verA := mkVer(2, 1, 0)
	verB := mkVer(2, 0, 1)
	svA := wire.SignedVersion{Committer: 0, Ver: verA, Sig: signers[0].Sign(crypto.DomainCommit, wire.CommitPayload(verA))}
	svB := wire.SignedVersion{Committer: 1, Ver: verB, Sig: signers[1].Sign(crypto.DomainCommit, wire.CommitPayload(verB))}

	if rep := Audit(ring, []wire.SignedVersion{svA, svB}); rep.OK {
		t.Fatal("audit missed a fork")
	}
	verC := mkVer(2, 1, 1)
	svC := wire.SignedVersion{Committer: 1, Ver: verC, Sig: signers[1].Sign(crypto.DomainCommit, wire.CommitPayload(verC))}
	if rep := Audit(ring, []wire.SignedVersion{svA, svC, wire.ZeroSignedVersion(2)}); !rep.OK {
		t.Fatalf("audit rejected a consistent chain: %s", rep.Reason)
	}
}

func TestAuditRejectsBadSignature(t *testing.T) {
	ring, _ := crypto.NewTestKeyring(2, 9)
	sv := wire.SignedVersion{Committer: 0, Ver: mkVer(2, 1, 0), Sig: []byte("garbage")}
	if rep := Audit(ring, []wire.SignedVersion{sv}); rep.OK {
		t.Fatal("audit accepted a forged version")
	}
	svBad := wire.SignedVersion{Committer: 7, Ver: mkVer(2, 1, 0), Sig: []byte("garbage")}
	if rep := Audit(ring, []wire.SignedVersion{svBad}); rep.OK {
		t.Fatal("audit accepted an out-of-range committer")
	}
}

func TestStopIsNotFailure(t *testing.T) {
	cl := newCluster(t, 2, nil, fastConfig(true))
	cl.startAll()
	if _, err := cl.clients[0].Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	cl.clients[0].Stop()
	if failed, _ := cl.clients[0].Failed(); failed {
		t.Fatal("Stop marked the client failed")
	}
	if _, err := cl.clients[0].Write([]byte("y")); !errors.Is(err, ErrHalted) {
		t.Fatalf("op after Stop: %v", err)
	}
	if err := cl.clients[0].WaitFail(time.Hour); !errors.Is(err, ErrHalted) {
		t.Fatalf("WaitFail after Stop: %v, want ErrHalted", err)
	}
}

func TestWaitStableTimesOut(t *testing.T) {
	// Client 1 is fully offline (never started): no dummy reads, no probe
	// replies. Stability w.r.t. it is unreachable and the wait times out.
	cl := newCluster(t, 2, nil, fastConfig(false))
	cl.clients[0].Start()
	ts, err := cl.clients[0].Write([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.clients[0].WaitStableFor(1, ts, 300*time.Millisecond); err == nil {
		t.Fatal("stability reported while client 1 is offline")
	}
}

func TestVersionRelayMakesIdleClientVouch(t *testing.T) {
	// The paper's propagation property: a VERSION message from C_j need
	// not contain a version committed by C_j. An idle-but-online client
	// relays the maximal version it verified, which legitimately makes
	// operations stable w.r.t. it (an empty client is consistent with
	// every view).
	cl := newCluster(t, 2, nil, fastConfig(false))
	cl.startAll()
	ts, err := cl.clients[0].Write([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.clients[0].WaitStableFor(1, ts, waitLong); err != nil {
		t.Fatalf("offline relay did not establish stability: %v", err)
	}
}

// mkVer builds a version with the given timestamp vector and dummy
// digests in nonzero entries.
func mkVer(n int, ts ...int64) version.Version {
	v := version.New(n)
	for i, t := range ts {
		v.V[i] = t
		if t != 0 {
			v.M[i] = []byte{byte(i + 1)}
		}
	}
	return v
}

// TestVersionCheckRejectsUnverifiable: a VERSION message whose version
// does not verify carries no information. A forged phi, an out-of-range
// committer and another client's phi each leave VER[max], the stability
// cut and the sender's silence timer (which drives the next probe) as
// they were; the genuine version then moves all three.
func TestVersionCheckRejectsUnverifiable(t *testing.T) {
	_, signers := crypto.NewTestKeyring(2, 42) // same seed as newCluster
	clk := clock.NewFake()
	cl := newCluster(t, 2, nil, fastConfig(false), WithClock(clk))
	c0, c1 := cl.clients[0], cl.clients[1] // not started: the test delivers VERSIONs itself
	ts, err := c0.Write([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c1.Read(0); err != nil {
		t.Fatal(err)
	}
	genuine := c1.MaxVersion() // phi_1 on a version that covers ts
	if genuine.Committer != 1 || genuine.Ver.V[0] != ts {
		t.Fatalf("client 1's version %v (committer %d) does not cover timestamp %d", genuine.Ver, genuine.Committer, ts)
	}
	lastUpd := func() time.Time {
		c0.mu.Lock()
		defer c0.mu.Unlock()
		return c0.lastUpd[1]
	}

	forgedSig := genuine.Clone()
	forgedSig.Sig[0] ^= 1
	outOfRange := genuine.Clone()
	outOfRange.Committer = 2
	othersPhi := genuine.Clone()
	othersPhi.Sig = signers[0].Sign(crypto.DomainCommit, wire.CommitPayload(genuine.Ver))
	for _, tc := range []struct {
		name string
		sv   wire.SignedVersion
	}{
		{"forged phi", forgedSig},
		{"committer out of range", outOfRange},
		{"another client's phi", othersPhi},
	} {
		name, sv := tc.name, tc.sv
		clk.Advance(time.Millisecond)
		maxBefore, cutBefore, updBefore := c0.MaxVersion(), c0.StableCut(), lastUpd()
		c0.handleVersion(1, &wire.VersionMsg{From: 1, SV: sv})
		if got := c0.MaxVersion(); fmt.Sprint(got) != fmt.Sprint(maxBefore) {
			t.Errorf("%s: VER[max] moved from %v to %v", name, maxBefore.Ver, got.Ver)
		}
		if got := c0.StableCut(); fmt.Sprint(got) != fmt.Sprint(cutBefore) {
			t.Errorf("%s: cut moved from %v to %v", name, cutBefore, got)
		}
		if got := lastUpd(); !got.Equal(updBefore) {
			t.Errorf("%s: silence timer of client 1 refreshed", name)
		}
	}

	clk.Advance(time.Millisecond)
	c0.handleVersion(1, &wire.VersionMsg{From: 1, SV: genuine})
	if got := c0.MaxVersion(); got.Committer != 1 || !got.Ver.Equal(genuine.Ver) {
		t.Errorf("genuine VERSION: VER[max] is %v (committer %d), want %v", got.Ver, got.Committer, genuine.Ver)
	}
	if got := c0.StableCut(); got[1] < ts {
		t.Errorf("genuine VERSION: cut %v leaves timestamp %d unstable w.r.t. client 1", got, ts)
	}
	if !lastUpd().Equal(clk.Now()) {
		t.Error("genuine VERSION: silence timer of client 1 not refreshed")
	}
}

// TestAllocBudgetIntegrateRead: folding a read that brings nothing new
// into VER allocates nothing. The read's versions are the USTOR round's
// own clones, and integrateVersion clones only what it retains, so the
// writer's version needs no copy of its own on the way in.
func TestAllocBudgetIntegrateRead(t *testing.T) {
	cl := newCluster(t, 2, nil, fastConfig(false))
	c0, c1 := cl.clients[0], cl.clients[1] // not started: no dummy reads or probes
	if _, err := c1.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	res, err := c0.us.ReadX(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.WriterVersion.Ver.IsZero() {
		t.Fatal("read of a written register returned the initial version")
	}
	c0.integrateRead(1, res)
	if got := testing.AllocsPerRun(100, func() { c0.integrateRead(1, res) }); got != 0 {
		t.Errorf("integrateRead allocates %.0f objects, want 0", got)
	}
}
