package byzantine

import (
	"context"
	"testing"

	"faust/internal/crypto"
	"faust/internal/history"
	"faust/internal/transport"
	"faust/internal/ustor"
	"faust/internal/version"
	"faust/internal/wire"

	"faust/internal/consistency"
)

func TestForkingServerPartitionValidation(t *testing.T) {
	if _, err := NewForkingServer(2, [][]int{{0}}); err == nil {
		t.Fatal("missing client accepted")
	}
	if _, err := NewForkingServer(2, [][]int{{0, 1}, {1}}); err == nil {
		t.Fatal("duplicate client accepted")
	}
	if _, err := NewForkingServer(2, [][]int{{0, 7}, {1}}); err == nil {
		t.Fatal("out-of-range client accepted")
	}
	if _, err := NewForkingServer(2, [][]int{{0}, {1}}); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
}

// TestFig3AttackUndetectedByUSTOR drives the exact attack of Figure 3:
// the server pretends the completed write of client 0 did not occur while
// serving client 1's first read, then makes it visible for the second
// read. USTOR must NOT detect it (the history is weak fork-linearizable
// and the protocol is accurate), the resulting history must match
// Figure 3's consistency classification, and the clients' versions must
// end up incomparable (the fork FAUST later catches).
func TestFig3AttackUndetectedByUSTOR(t *testing.T) {
	const n = 2
	ring, signers := crypto.NewTestKeyring(n, 3)
	server, err := NewForkingServer(n, [][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	nw := transport.NewNetwork(n, server)
	defer nw.Stop()
	c0 := ustor.NewClient(0, ring, signers[0], nw.ClientLink(0))
	c1 := ustor.NewClient(1, ring, signers[1], nw.ClientLink(1))

	rec := history.NewRecorder(n)

	// write0(X0, u) — served by branch 0.
	p := rec.Invoke(0, history.OpWrite, 0, []byte("u"))
	w, err := c0.WriteX(context.Background(), []byte("u"))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	p.Complete(nil, w.Timestamp)

	// read1(X0) -> bottom — served by branch 1, which has not seen the write.
	p = rec.Invoke(1, history.OpRead, 0, nil)
	r1, err := c1.ReadX(context.Background(), 0)
	if err != nil {
		t.Fatalf("first read: %v", err)
	}
	p.Complete(r1.Value, r1.Timestamp)
	if r1.Value != nil {
		t.Fatalf("first read = %q, want bottom", r1.Value)
	}

	// The attacker replays client 0's captured write into branch 1.
	if server.CapturedOps(0) != 1 {
		t.Fatalf("captured ops = %d, want 1", server.CapturedOps(0))
	}
	if err := server.Replay(0, 0, 1); err != nil {
		t.Fatalf("replay: %v", err)
	}

	// read1(X0) -> u, still with no detection.
	p = rec.Invoke(1, history.OpRead, 0, nil)
	r2, err := c1.ReadX(context.Background(), 0)
	if err != nil {
		t.Fatalf("second read must pass all checks (accuracy): %v", err)
	}
	p.Complete(r2.Value, r2.Timestamp)
	if string(r2.Value) != "u" {
		t.Fatalf("second read = %q, want u", r2.Value)
	}

	if failed, _ := c0.Failed(); failed {
		t.Fatal("client 0 failed during an undetectable attack")
	}
	if failed, _ := c1.Failed(); failed {
		t.Fatal("client 1 failed during an undetectable attack")
	}

	// The recorded history is exactly Figure 3: weak fork-linearizable
	// but neither linearizable nor fork-linearizable.
	h := rec.History()
	if res := consistency.CheckLinearizable(h); res.OK {
		t.Fatal("attack history must not be linearizable")
	}
	if res := consistency.CheckForkLinearizable(h, 10); res.OK {
		t.Fatal("attack history must not be fork-linearizable")
	}
	if res := consistency.CheckWeakForkLinearizable(h, 10); !res.OK {
		t.Fatalf("attack history must be weak fork-linearizable: %s", res.Reason)
	}
	if res := consistency.CheckCausal(h); !res.OK {
		t.Fatalf("attack history must stay causally consistent: %s", res.Reason)
	}

	// The fork is now established: the two clients' versions are
	// incomparable, which is exactly the evidence FAUST's offline
	// exchange will surface.
	if version.Comparable(c0.Version(), c1.Version()) {
		t.Fatal("fork must leave the clients with incomparable versions")
	}
}

func TestForkingServerTwoIndependentGroups(t *testing.T) {
	const n = 4
	ring, signers := crypto.NewTestKeyring(n, 5)
	server, err := NewForkingServer(n, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	nw := transport.NewNetwork(n, server)
	defer nw.Stop()
	clients := make([]*ustor.Client, n)
	for i := range clients {
		clients[i] = ustor.NewClient(i, ring, signers[i], nw.ClientLink(i))
	}

	// Each group collaborates internally without any detection.
	if err := clients[0].Write([]byte("g0")); err != nil {
		t.Fatal(err)
	}
	if v, err := clients[1].Read(0); err != nil || string(v) != "g0" {
		t.Fatalf("group 0 internal read = %q, %v", v, err)
	}
	if err := clients[2].Write([]byte("g1")); err != nil {
		t.Fatal(err)
	}
	if v, err := clients[3].Read(2); err != nil || string(v) != "g1" {
		t.Fatalf("group 1 internal read = %q, %v", v, err)
	}

	// Cross-group state is invisible: group 1 reads bottom for X0.
	if v, err := clients[3].Read(0); err != nil || v != nil {
		t.Fatalf("cross-group read = %q, %v; want bottom", v, err)
	}

	// Versions within a group are comparable; across groups incomparable.
	if !version.Comparable(clients[0].Version(), clients[1].Version()) {
		t.Fatal("intra-group versions must be comparable")
	}
	if version.Comparable(clients[1].Version(), clients[3].Version()) {
		t.Fatal("cross-group versions must be incomparable")
	}
}

func TestReplayValidation(t *testing.T) {
	server, err := NewForkingServer(2, [][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Replay(0, 0, 1); err == nil {
		t.Fatal("replay of nonexistent op accepted")
	}
	if err := server.Replay(0, -1, 0); err == nil {
		t.Fatal("negative op index accepted")
	}
}

func TestReplyTamperServerNilTamper(t *testing.T) {
	const n = 1
	ring, signers := crypto.NewTestKeyring(n, 8)
	server := &ReplyTamperServer{Inner: ustor.NewServer(n)}
	nw := transport.NewNetwork(n, server)
	defer nw.Stop()
	c := ustor.NewClient(0, ring, signers[0], nw.ClientLink(0))
	if err := c.Write([]byte("x")); err != nil {
		t.Fatalf("pass-through tamper server broke the protocol: %v", err)
	}
}

func TestCrashServerCommitIgnoredAfterCrash(t *testing.T) {
	// Purely for coverage of the post-crash commit path.
	server := NewCrashServer(1, 0)
	server.HandleCommit(context.Background(), 0, &wire.Commit{Ver: version.New(1)})
	if r := server.HandleSubmit(context.Background(), 0, &wire.Submit{}); r != nil {
		t.Fatal("crashed server replied")
	}
}
