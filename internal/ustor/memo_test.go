package ustor

import (
	"fmt"
	"sync/atomic"
	"testing"

	"faust/internal/crypto"
	"faust/internal/obs"
	"faust/internal/transport"
	"faust/internal/wire"
)

// edOps returns how many Ed25519 signatures and verifications the
// process has performed so far.
func edOps() (signs, verifies int64) {
	r := obs.Default()
	return r.Histogram("faust_ed25519_sign_ns").Snapshot().Count, r.Histogram("faust_ed25519_verify_ns").Snapshot().Count
}

// TestEd25519OpsPerOperation pins what an operation costs in private- and
// public-key operations. Every operation signs exactly twice: one tree
// over (SUBMIT, DATA, PROOF of the previous operation) and the COMMIT
// alone. It verifies once per tree of another client it has not seen
// before, whichever leaf a reply shows first, and once per COMMIT
// signature of another client it has not seen before; the client's own
// signatures are free.
func TestEd25519OpsPerOperation(t *testing.T) {
	ring, signers := crypto.NewTestKeyring(2, 1234)
	nw := transport.NewNetwork(2, NewServer(2))
	t.Cleanup(nw.Stop)
	c0 := NewClient(0, ring, signers[0], nw.ClientLink(0))
	// c1 defers its COMMITs, so its last operation stays in L.
	c1 := NewClient(1, ring, signers[1], nw.ClientLink(1), WithCommitPiggyback())

	step := func(name string, wantVerifies int64, op func() error) {
		t.Helper()
		s0, v0 := edOps()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s1, v1 := edOps()
		if s1-s0 != 2 {
			t.Errorf("%s: %d Ed25519 signs, want 2", name, s1-s0)
		}
		if v1-v0 != wantVerifies {
			t.Errorf("%s: %d Ed25519 verifies, want %d", name, v1-v0, wantVerifies)
		}
	}
	write := func(c *Client, v string) func() error {
		return func() error { return c.Write([]byte(v)) }
	}
	read := func(c *Client, j int, want string) func() error {
		return func() error {
			v, err := c.Read(j)
			if err == nil && string(v) != want {
				err = fmt.Errorf("read %q, want %q", v, want)
			}
			return err
		}
	}

	step("first write: the server shows the zero version", 0, write(c0, "mine"))
	step("own write: SVER[c] is the own COMMIT", 0, write(c0, "mine"))
	step("own read: SVER[c], SVER[j] and MEM[j] are all the client's own", 0, read(c0, 0, "mine"))

	step("peer write: SVER[c] carries phi_0", 1, write(c1, "one"))
	// L = [c1's write], uncommitted: sigma_1 in L pays for delta_1 in MEM[1].
	step("read of a register whose writing op is in L", 1, read(c0, 1, "one"))
	step("the same register again: delta_1 unchanged", 0, read(c0, 1, "one"))

	// c1's second write delivers the COMMIT of its first, which c0 has
	// overtaken: c stays 0 and SVER[1] = phi_1 of that COMMIT. P[1] =
	// psi_1 of the same operation came in the SUBMIT, in one tree with
	// the second write's sigma_1 and delta_1.
	step("peer write: SVER[c] carries a newer phi_0", 1, write(c1, "two"))
	// Was 2 while psi_1 shared a root with phi_1: the line 41 check now
	// pays for the line 43 check of the same operation.
	step("psi_1 in P pays for the new sigma_1 in L", 1, write(c0, "mine"))
	// Was 0 while phi_1 shared a root with psi_1: phi_1 is signed alone,
	// so the line 49 check pays for it unless line 35 already saw it.
	step("phi_1 in SVER[1] is new; sigma_1 paid for delta_1", 1, read(c0, 1, "two"))

	// Two more writes of c1 with c0 idle make c1 the schedule head: SVER[c]
	// = phi_1 of its third write, L = [c1's fourth write] and P[1] = psi_1
	// of the third, from the fourth's SUBMIT.
	step("peer write: SVER[c] carries a newer phi_0", 1, write(c1, "three"))
	step("peer write: SVER[c] is its own COMMIT", 0, write(c1, "four"))
	step("phi_1 in SVER[c] is new; psi_1 in P pays for sigma_1 in L", 2, write(c0, "mine"))
	step("all of c1's signatures seen", 0, read(c0, 1, "four"))
	step("own signatures and c1's sit in separate memos", 0, read(c0, 0, "mine"))
	step("so neither evicts the other", 0, read(c0, 1, "four"))
}

// TestOwnReadStillDetectsTampering: a memo hit needs the tree root
// recomputed from the payload under test to equal the memoized one, so a
// server that returns the client's GENUINE just-produced DATA-signature
// next to a different value or timestamp gets no benefit from it — the
// leaf differs, the real verification runs and fails.
func TestOwnReadStillDetectsTampering(t *testing.T) {
	for name, tamper := range map[string]func(r *wire.Reply){
		"tampered value": func(r *wire.Reply) { r.Mem.Value = []byte("not what was written") },
		"stale value":    func(r *wire.Reply) { r.Mem.Value = []byte("first") },
		"bottom value":   func(r *wire.Reply) { r.Mem.Value = nil },
		"wrong t":        func(r *wire.Reply) { r.Mem.T-- },
	} {
		t.Run(name, func(t *testing.T) {
			var lie atomic.Bool
			c := tamperCluster(t, func(_ int, r *wire.Reply) *wire.Reply {
				if lie.Load() && r.IsRead {
					tamper(r) // DataSig stays the genuine one
				}
				return r
			})[0]
			for _, v := range []string{"first", "second"} {
				if err := c.Write([]byte(v)); err != nil {
					t.Fatal(err)
				}
			}
			if v, err := c.Read(0); err != nil || string(v) != "second" {
				t.Fatalf("honest own read: %q, %v", v, err)
			}
			lie.Store(true)
			_, err := c.Read(0)
			expectDetection(t, err, "line 50")
		})
	}
}

// TestAllocBudgetCheckData: validating a read's MEM[j] and SVER[j] (lines
// 48-52) allocates nothing, memo hit or real verification — the value is
// hashed into client-owned scratch. Runs without -race in CI.
func TestAllocBudgetCheckData(t *testing.T) {
	var reply *wire.Reply
	clients := tamperCluster(t, func(from int, r *wire.Reply) *wire.Reply {
		if from == 0 && r.IsRead {
			reply = r
		}
		return r
	})
	c := clients[0]
	if err := clients[1].Write(make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(1); err != nil {
		t.Fatal(err)
	}
	for name, forget := range map[string]bool{"memo hit": false, "real verification": true} {
		if got := testing.AllocsPerRun(100, func() {
			if forget {
				c.memo[1] = pairMemos{}
			}
			if err := c.checkData(reply, 1); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: checkData allocates %.0f objects, want 0", name, got)
		}
	}
}

// TestAllocBudgetReplyBatch: checking a REPLY none of whose signatures a
// memo vouches for — lines 35, 41, 43, 49 and 50, four Ed25519
// verifications — allocates nothing: the kernel's scratch is pooled.
// Runs without -race in CI.
func TestAllocBudgetReplyBatch(t *testing.T) {
	const n = 3
	ring, signers := crypto.NewTestKeyring(n, 77)
	var reply *wire.Reply
	core := &tamperCore{inner: NewServer(n), tamper: func(from int, r *wire.Reply) *wire.Reply {
		if from == 0 && r.IsRead {
			reply = r
		}
		return r
	}}
	nw := transport.NewNetwork(n, core)
	t.Cleanup(nw.Stop)
	c := NewClient(0, ring, signers[0], nw.ClientLink(0))
	// Clients 1 and 2 defer their COMMITs, so their last operations stay
	// in L, and client 0 knows their previous digests: line 41 applies.
	peers := []*Client{
		NewClient(1, ring, signers[1], nw.ClientLink(1), WithCommitPiggyback()),
		NewClient(2, ring, signers[2], nw.ClientLink(2), WithCommitPiggyback()),
	}
	for round := 0; round < 2; round++ {
		for _, p := range peers {
			if err := p.Write([]byte{byte(round)}); err != nil {
				t.Fatal(err)
			}
		}
		if round == 0 {
			if _, err := c.Read(1); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := c.Version()
	if _, err := c.Read(1); err != nil {
		t.Fatal(err)
	}
	if len(reply.L) != 2 {
		t.Fatalf("L holds %d operations, want 2", len(reply.L))
	}
	check := func() {
		c.ver.CopyFrom(before)
		for k := 1; k < n; k++ {
			c.memo[k] = pairMemos{}
		}
		if err := c.updateVersion(reply); err != nil {
			t.Fatal(err)
		}
		if err := c.checkData(reply, 1); err != nil {
			t.Fatal(err)
		}
	}
	_, v0 := edOps()
	check()
	if _, v1 := edOps(); v1-v0 != 4 {
		t.Fatalf("the reply took %d verifications, want 4", v1-v0)
	}
	if got := testing.AllocsPerRun(50, check); got != 0 {
		t.Errorf("checking the reply allocates %.0f objects, want 0", got)
	}
}
