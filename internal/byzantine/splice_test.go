package byzantine

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"faust/internal/crypto"
	"faust/internal/transport"
	"faust/internal/ustor"
	"faust/internal/wire"
)

// Clients sign each SUBMIT as one tree over (sigma, delta, psi of the
// previous operation) and remember the last tree root they verified per
// signer, so a reply whose signatures all belong to trees already seen
// costs no Ed25519 verification. These tests play a server that exploits
// exactly that: it lets the reader verify genuine signatures first and
// then presents them recombined. Every recombination changes the
// recomputed root, so it must fall through to a real verification, fail
// it, and fire the same line as before signatures shared a tree.

// edAndPath is the length of a tree signature's Ed25519 part and path byte.
const edAndPath = crypto.PairSigSize - crypto.HashSize

// splice joins the Ed25519 part and path of one tree signature to the
// siblings of another.
func splice(edAndPos, siblings []byte) []byte {
	return append(append([]byte(nil), edAndPos[:edAndPath]...), siblings[edAndPath:]...)
}

// withPath returns sig with its path byte replaced.
func withPath(sig []byte, path byte) []byte {
	out := append([]byte(nil), sig...)
	out[edAndPath-1] = path
	return out
}

// spliceCluster is a reader (client 0) and a writer (client 1, deferring
// its COMMITs so its latest operation stays in L) on a server that tampers
// with the reader's replies once armed.
type spliceCluster struct {
	reader, writer *ustor.Client

	mu     sync.Mutex
	seen   []*wire.Reply // honest replies to the reader, oldest first
	tamper func(seen []*wire.Reply, r *wire.Reply)
}

func newSpliceCluster(t *testing.T) *spliceCluster {
	t.Helper()
	const n = 2
	sc := &spliceCluster{}
	ring, signers := crypto.NewTestKeyring(n, 14)
	server := &ReplyTamperServer{Inner: ustor.NewServer(n), Tamper: func(from int, r *wire.Reply) *wire.Reply {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		if from != 0 {
			return r
		}
		if sc.tamper != nil {
			sc.tamper(sc.seen, r)
		} else {
			sc.seen = append(sc.seen, r.Clone())
		}
		return r
	}}
	nw := transport.NewNetwork(n, server)
	t.Cleanup(nw.Stop)
	sc.reader = ustor.NewClient(0, ring, signers[0], nw.ClientLink(0))
	sc.writer = ustor.NewClient(1, ring, signers[1], nw.ClientLink(1), ustor.WithCommitPiggyback())
	return sc
}

func (sc *spliceCluster) arm(tamper func(seen []*wire.Reply, r *wire.Reply)) {
	sc.mu.Lock()
	sc.tamper = tamper
	sc.mu.Unlock()
}

func expectLine(t *testing.T, err error, line string) {
	t.Helper()
	var det *ustor.DetectionError
	if !errors.As(err, &det) {
		t.Fatalf("got %v, want a detection at %s", err, line)
	}
	if !strings.Contains(det.Check, "("+line+")") {
		t.Fatalf("detected %q, want %s", det.Check, line)
	}
}

// TestSplicedSubmitPairDetected: the reader has verified the SUBMIT tree
// (sigma, delta, psi) of the writer's operation m and is now shown
// operation m'. Whatever mix of the two trees the server presents for m',
// lines 41, 43 and 50 still fire.
func TestSplicedSubmitPairDetected(t *testing.T) {
	for name, tc := range map[string]struct {
		line   string
		tamper func(old, r *wire.Reply)
	}{
		"value of m under delta of m'": {"line 50", func(old, r *wire.Reply) {
			r.Mem.Value = old.Mem.Value
		}},
		"delta of m' with the sibling of m": {"line 50", func(old, r *wire.Reply) {
			r.Mem.DataSig = splice(r.Mem.DataSig, old.Mem.DataSig)
		}},
		"delta of m with the sibling of m'": {"line 50", func(old, r *wire.Reply) {
			r.Mem.DataSig = splice(old.Mem.DataSig, r.Mem.DataSig)
		}},
		"sigma of m' passed off as delta of m'": {"line 50", func(old, r *wire.Reply) {
			r.Mem.DataSig = r.L[0].SubmitSig
		}},
		"sigma of m for the timestamp of m'": {"line 43", func(old, r *wire.Reply) {
			r.L[0].SubmitSig = old.L[0].SubmitSig
		}},
		"sigma of m' with the sibling of m": {"line 43", func(old, r *wire.Reply) {
			r.L[0].SubmitSig = splice(r.L[0].SubmitSig, old.L[0].SubmitSig)
		}},
		"delta of m' passed off as sigma of m'": {"line 43", func(old, r *wire.Reply) {
			r.L[0].SubmitSig = r.Mem.DataSig
		}},
		"psi from the tree of m against M[1] of m": {"line 41", func(old, r *wire.Reply) {
			r.P[1] = old.P[1]
		}},
		"sigma of m' next to the psi leaf of m": {"line 43", func(old, r *wire.Reply) {
			r.L[0].SubmitSig = append(r.L[0].SubmitSig[:crypto.PairSigSize:crypto.PairSigSize], old.L[0].SubmitSig[crypto.PairSigSize:]...)
		}},
		"psi of m' with the siblings of m": {"line 41", func(old, r *wire.Reply) {
			r.P[1] = splice(r.P[1], old.P[1])
		}},
		"psi passed off as sigma of m'": {"line 43", func(old, r *wire.Reply) {
			r.L[0].SubmitSig = r.P[1]
		}},
		"psi passed off as delta of m'": {"line 50", func(old, r *wire.Reply) {
			r.Mem.DataSig = r.P[1]
		}},
		"sigma of m' re-labelled as the DATA leaf": {"line 50", func(old, r *wire.Reply) {
			r.Mem.DataSig = withPath(r.L[0].SubmitSig, 1)
		}},
	} {
		t.Run(name, func(t *testing.T) {
			sc := newSpliceCluster(t)
			// The writer's first operation has no previous one to prove,
			// so it signs a pair; m and m' are its second and third.
			if err := sc.writer.Write([]byte("first value")); err != nil {
				t.Fatal(err)
			}
			if err := sc.writer.Write([]byte("value of m")); err != nil {
				t.Fatal(err)
			}
			if v, err := sc.reader.Read(1); err != nil || string(v) != "value of m" {
				t.Fatalf("honest read of m: %q, %v", v, err)
			}
			if err := sc.writer.Write([]byte("value of m'")); err != nil {
				t.Fatal(err)
			}
			sc.arm(func(seen []*wire.Reply, r *wire.Reply) {
				old := seen[len(seen)-1]
				if len(old.L) != 1 || len(r.L) != 1 || len(r.Mem.DataSig) != crypto.TripleSigSize ||
					len(old.Mem.DataSig) != crypto.TripleSigSize || len(r.P[1]) != crypto.PairSigSize || bytes.Equal(old.P[1], r.P[1]) {
					t.Errorf("scenario is stale: |L| = %d then %d, |delta| = %d, |psi| = %d", len(old.L), len(r.L), len(r.Mem.DataSig), len(r.P[1]))
					return
				}
				tc.tamper(old, r)
			})
			_, err := sc.reader.Read(1)
			expectLine(t, err, tc.line)
		})
	}
}

// TestReplayedProofDetected: the writer is the schedule head and its
// latest operation is in L, so P[1] is the PROOF-signature of the
// operation SVER[c] committed, signed in one tree with the latest
// operation's sigma. A server that shows the PROOF-signature of an older
// operation instead (whole, or recombined with the newer one) gets no
// credit from any memoized root: line 41 fires.
func TestReplayedProofDetected(t *testing.T) {
	for name, tamper := range map[string]func(old, r *wire.Reply){
		"psi of the older COMMIT": func(old, r *wire.Reply) {
			r.P[1] = old.P[1]
		},
		"older psi with the newer sibling": func(old, r *wire.Reply) {
			r.P[1] = splice(old.P[1], r.P[1])
		},
		"newer psi with the older sibling": func(old, r *wire.Reply) {
			r.P[1] = splice(r.P[1], old.P[1])
		},
		"phi passed off as psi": func(old, r *wire.Reply) {
			r.P[1] = r.CVer.Sig
		},
	} {
		t.Run(name, func(t *testing.T) {
			sc := newSpliceCluster(t)
			write := func(c *ustor.Client) {
				t.Helper()
				if err := c.Write([]byte("w")); err != nil {
					t.Fatal(err)
				}
			}
			// Two writes make the writer's COMMIT the newest version; the
			// reader then sees it with the second write still in L. Once
			// honestly, so that both of the writer's roots are memoized,
			// then with the lie.
			write(sc.writer)
			write(sc.writer)
			write(sc.reader)
			write(sc.writer)
			write(sc.writer)
			sc.arm(func(seen []*wire.Reply, r *wire.Reply) {
				old := seen[len(seen)-1]
				if old.C != 1 || r.C != 1 || len(r.L) != 1 || old.P[1] == nil || bytes.Equal(old.P[1], r.P[1]) {
					t.Errorf("scenario is stale: c = %d then %d, |L| = %d", old.C, r.C, len(r.L))
					return
				}
				tamper(old, r)
			})
			expectLine(t, sc.reader.Write([]byte("r")), "line 41")
		})
	}
}
