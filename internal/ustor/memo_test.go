package ustor

import (
	"sync/atomic"
	"testing"

	"faust/internal/obs"
	"faust/internal/wire"
)

// verifications returns how many Ed25519 verifications the process has
// performed so far.
func verifications() int64 {
	return obs.Default().Histogram("faust_ed25519_verify_ns").Snapshot().Count
}

// TestOwnSignaturesAreNotReverified: a client never pays an Ed25519
// verification for a signature it produced itself. On an own-register
// read the DATA-signature in MEM[own] is the one just signed for the
// SUBMIT, and SVER[own] is the client's last COMMIT — also when another
// client's commit went through the memo in between.
func TestOwnSignaturesAreNotReverified(t *testing.T) {
	tc := newCluster(t, 2)
	c0, c1 := tc.clients[0], tc.clients[1]
	if err := c0.Write([]byte("mine")); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		// c1 commits a new version, so c0's next reply shows SVER[c] = c1's
		// (one real verification) and SVER[own] = c0's own.
		if err := c1.Write([]byte("theirs")); err != nil {
			t.Fatal(err)
		}
		before := verifications()
		if v, err := c0.Read(0); err != nil || string(v) != "mine" {
			t.Fatalf("own read after peer commit: %q, %v", v, err)
		}
		if got := verifications() - before; got != 1 {
			t.Errorf("own read after a peer's commit verified %d signatures, want 1 (the peer's COMMIT)", got)
		}
		// Uncontended: everything the server shows is the client's own.
		before = verifications()
		if _, err := c0.Read(0); err != nil {
			t.Fatal(err)
		}
		if got := verifications() - before; got != 0 {
			t.Errorf("uncontended own read verified %d signatures, want 0", got)
		}
	}
}

// TestOwnReadStillDetectsTampering: the own-signature memo compares
// bytes, so a server that returns the client's GENUINE just-produced
// DATA-signature next to a different value or timestamp gets no benefit
// from it — the payload differs, the real verification runs and fails.
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
