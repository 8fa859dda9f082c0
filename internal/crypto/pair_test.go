package crypto

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"testing"

	"faust/internal/obs"
)

var (
	pairA   = []byte("submit payload")
	pairB   = []byte("data payload")
	tripleC = []byte("proof payload")
)

func signTestPair(s *Signer) (sigA, sigB []byte) {
	return s.SignPair(nil, DomainSubmit, pairA, DomainData, pairB)
}

func signTestTriple(s *Signer) (sigA, sigB, sigC []byte) {
	return s.SignTriple(nil, DomainSubmit, pairA, DomainData, pairB, DomainProof, tripleC)
}

func edOps() (signs, verifies int64) {
	r := obs.Default()
	return r.Histogram("faust_ed25519_sign_ns").Snapshot().Count, r.Histogram("faust_ed25519_verify_ns").Snapshot().Count
}

func TestSignPairBothHalvesVerify(t *testing.T) {
	ring, signers := NewTestKeyring(2, 1)
	s0, _ := edOps()
	sigA, sigB := signTestPair(signers[1])
	if s1, _ := edOps(); s1-s0 != 1 {
		t.Fatalf("SignPair did %d Ed25519 signs, want 1", s1-s0)
	}
	if len(sigA) != PairSigSize || len(sigB) != PairSigSize {
		t.Fatalf("pair signature sizes %d/%d, want %d", len(sigA), len(sigB), PairSigSize)
	}
	if !bytes.Equal(sigA[:ed25519.SignatureSize], sigB[:ed25519.SignatureSize]) {
		t.Fatal("the two halves carry different Ed25519 signatures")
	}
	if !ring.Verify(1, sigA, DomainSubmit, pairA) || !ring.Verify(1, sigB, DomainData, pairB) {
		t.Fatal("a half of a pair does not verify on its own")
	}
	if ring.Verify(0, sigA, DomainSubmit, pairA) {
		t.Fatal("pair signature verified under another client's key")
	}
	// Appending to one half must not run into the other.
	if cap(sigA) != PairSigSize {
		t.Fatalf("cap(sigA) = %d: an append would overwrite sigB", cap(sigA))
	}
}

// TestVerifyPairedRejects: every way of presenting something other than
// what was signed fails, without panicking.
func TestVerifyPairedRejects(t *testing.T) {
	ring, signers := NewTestKeyring(1, 2)
	sigA, sigB := signTestPair(signers[0])
	plain := signers[0].Sign(DomainSubmit, pairA)
	ed := sigA[:ed25519.SignatureSize]
	mut := func(sig []byte, at int) []byte {
		m := append([]byte(nil), sig...)
		m[at] ^= 1
		return m
	}
	reject := func(name string, sig []byte, domain byte, payload []byte) {
		t.Helper()
		if ring.Verify(0, sig, domain, payload) {
			t.Errorf("%s: accepted", name)
		}
	}
	reject("swapped pos", mut(sigA, ed25519.SignatureSize), DomainSubmit, pairA)
	reject("pos out of range", append(append(append([]byte(nil), ed...), 2), sigA[ed25519.SignatureSize+1:]...), DomainSubmit, pairA)
	reject("swapped domains", sigA, DomainData, pairA)
	reject("other half's payload", sigA, DomainSubmit, pairB)
	reject("other half's signature", sigB, DomainSubmit, pairA)
	reject("tampered sibling", mut(sigA, PairSigSize-1), DomainSubmit, pairA)
	reject("tampered payload", sigA, DomainSubmit, append([]byte("x"), pairA...))
	reject("tampered Ed25519 part", mut(sigA, 0), DomainSubmit, pairA)
	reject("Ed25519 part of a pair as a plain signature", ed, DomainSubmit, pairA)
	reject("Ed25519 part of a pair as a plain signature over the root's domain", ed, DomainPair, pairA)
	reject("plain signature dressed as a pair", append(append(append([]byte(nil), plain...), 0), sigA[ed25519.SignatureSize+1:]...), DomainSubmit, pairA)
	for n := 0; n <= 2*PairSigSize; n++ {
		if n == ed25519.SignatureSize || n == PairSigSize {
			continue
		}
		long := append(append([]byte(nil), sigA...), sigB...)
		reject("length", long[:n], DomainSubmit, pairA)
	}
	if !ring.Verify(0, plain, DomainSubmit, pairA) {
		t.Fatal("plain signatures must keep verifying")
	}

	// A plain signature over the very root of a pair is not a pair
	// signature's Ed25519 part in disguise: the root is reachable only
	// through a leaf.
	leafA, leafB := pairLeaf(DomainSubmit, pairA), pairLeaf(DomainData, pairB)
	root := pairNode(&leafA, &leafB)
	msg := rootMessage(&root)
	if !ed25519.Verify(ring.pubs[0], msg[:], ed) {
		t.Fatal("test is stale: the pair message is not what SignPair signs")
	}
	reject("plain verify of the root", ed, DomainPair, msg[1:])
}

// TestPairMemo: the second half of a verified pair, and a signer's own
// pair, cost no Ed25519 verification; anything not byte-identical does,
// and fails.
func TestPairMemo(t *testing.T) {
	ring, signers := NewTestKeyring(2, 3)
	sigA, sigB := signTestPair(signers[0])
	verifies := func(f func()) int64 {
		_, before := edOps()
		f()
		_, after := edOps()
		return after - before
	}
	var m PairMemo
	check := func(name string, want bool, wantOps int64, i int, sig []byte, domain byte, payload []byte) {
		t.Helper()
		var got bool
		ops := verifies(func() { got = ring.VerifyMemo(&m, i, sig, domain, payload) })
		if got != want || ops != wantOps {
			t.Errorf("%s: verified=%v with %d Ed25519 ops, want %v with %d", name, got, ops, want, wantOps)
		}
	}
	check("first half", true, 1, 0, sigA, DomainSubmit, pairA)
	check("second half", true, 0, 0, sigB, DomainData, pairB)
	check("first half again", true, 0, 0, sigA, DomainSubmit, pairA)
	check("memo of client 0 asked about client 1", false, 1, 1, sigA, DomainSubmit, pairA)
	check("wrong payload", false, 1, 0, sigB, DomainData, pairA)
	check("wrong domain", false, 1, 0, sigB, DomainProof, pairB)
	bad := append([]byte(nil), sigB...)
	bad[3] ^= 1
	check("same root, other signature bytes", false, 1, 0, bad, DomainData, pairB)
	check("failures leave the memo intact", true, 0, 0, sigB, DomainData, pairB)

	// A later pair evicts the earlier one.
	sigC, _ := signers[0].SignPair(nil, DomainCommit, pairA, DomainProof, pairB)
	check("new pair", true, 1, 0, sigC, DomainCommit, pairA)
	check("evicted pair", true, 1, 0, sigA, DomainSubmit, pairA)

	// Signing fills the memo.
	var own PairMemo
	sigA, sigB = signers[1].SignPair(&own, DomainSubmit, pairA, DomainData, pairB)
	m = own
	check("own first half", true, 0, 1, sigA, DomainSubmit, pairA)
	check("own second half", true, 0, 1, sigB, DomainData, pairB)

	// A plain signature is remembered under its domain and payload hash:
	// the same bytes over the same payload are free, anything else is
	// verified for real. It takes the memo's one entry like a pair does.
	plain := signers[1].Sign(DomainCommit, pairA)
	check("plain", true, 1, 1, plain, DomainCommit, pairA)
	check("plain again", true, 0, 1, plain, DomainCommit, pairA)
	check("plain over another payload", false, 1, 1, plain, DomainCommit, pairB)
	check("plain under another domain", false, 1, 1, plain, DomainProof, pairA)
	check("plain of client 1 asked about client 0", false, 1, 0, plain, DomainCommit, pairA)
	badPlain := append([]byte(nil), plain...)
	badPlain[3] ^= 1
	check("same payload, other plain signature bytes", false, 1, 1, badPlain, DomainCommit, pairA)
	check("plain after failures", true, 0, 1, plain, DomainCommit, pairA)
	check("own pair evicted by the plain signature", true, 1, 1, sigB, DomainData, pairB)
	check("plain evicted by the pair", true, 1, 1, plain, DomainCommit, pairA)

	// SignMemo fills the memo with a plain signature.
	var ownPlain PairMemo
	plain = signers[1].SignMemo(&ownPlain, DomainCommit, pairB)
	m = ownPlain
	check("own plain", true, 0, 1, plain, DomainCommit, pairB)
	check("own plain over another payload", false, 1, 1, plain, DomainCommit, pairA)
}

func TestSignTripleAllLeavesVerify(t *testing.T) {
	ring, signers := NewTestKeyring(2, 8)
	s0, _ := edOps()
	sigA, sigB, sigC := signTestTriple(signers[1])
	if s1, _ := edOps(); s1-s0 != 1 {
		t.Fatalf("SignTriple did %d Ed25519 signs, want 1", s1-s0)
	}
	if len(sigA) != TripleSigSize || len(sigB) != TripleSigSize || len(sigC) != PairSigSize {
		t.Fatalf("triple signature sizes %d/%d/%d, want %d/%d/%d", len(sigA), len(sigB), len(sigC), TripleSigSize, TripleSigSize, PairSigSize)
	}
	if !bytes.Equal(sigA[:ed25519.SignatureSize], sigC[:ed25519.SignatureSize]) || !bytes.Equal(sigB[:ed25519.SignatureSize], sigC[:ed25519.SignatureSize]) {
		t.Fatal("the three leaves carry different Ed25519 signatures")
	}
	if !ring.Verify(1, sigA, DomainSubmit, pairA) || !ring.Verify(1, sigB, DomainData, pairB) || !ring.Verify(1, sigC, DomainProof, tripleC) {
		t.Fatal("a leaf of a triple does not verify on its own")
	}
	if ring.Verify(0, sigC, DomainProof, tripleC) {
		t.Fatal("triple signature verified under another client's key")
	}
	if cap(sigA) != TripleSigSize || cap(sigB) != TripleSigSize {
		t.Fatalf("cap(sigA) = %d, cap(sigB) = %d: an append would overwrite the next leaf", cap(sigA), cap(sigB))
	}
}

// TestVerifyTripleRejects: a leaf of a three-leaf tree shown at another
// position, under another domain, over another payload or with another
// tree's path fails, without panicking.
func TestVerifyTripleRejects(t *testing.T) {
	ring, signers := NewTestKeyring(1, 9)
	sigA, sigB, sigC := signTestTriple(signers[0])
	pairSigA, _ := signers[0].SignPair(nil, DomainSubmit, pairA, DomainData, pairB)
	otherA, _, otherC := signers[0].SignTriple(nil, DomainSubmit, pairA, DomainData, pairB, DomainProof, pairA)
	withPath := func(sig []byte, path byte) []byte {
		m := append([]byte(nil), sig...)
		m[ed25519.SignatureSize] = path
		return m
	}
	reject := func(name string, sig []byte, domain byte, payload []byte) {
		t.Helper()
		if ring.Verify(0, sig, domain, payload) {
			t.Errorf("%s: accepted", name)
		}
	}
	for path := byte(2); path < 8; path++ {
		reject(fmt.Sprintf("sigma with path %d", path), withPath(sigA, path), DomainSubmit, pairA)
	}
	reject("psi with path 0", withPath(sigC, 0), DomainProof, tripleC)
	reject("psi with path 2", withPath(sigC, 2), DomainProof, tripleC)
	reject("sigma re-labelled as the DATA leaf", withPath(sigA, 1), DomainData, pairB)
	reject("sigma shown as a DATA leaf", sigA, DomainData, pairB)
	reject("delta shown as a SUBMIT leaf", sigB, DomainSubmit, pairA)
	reject("psi shown as a SUBMIT leaf", sigC, DomainSubmit, pairA)
	reject("psi shown as a DATA leaf", sigC, DomainData, pairB)
	reject("psi over another payload", sigC, DomainProof, pairA)
	reject("sigma cut to a pair signature", sigA[:PairSigSize], DomainSubmit, pairA)
	reject("sigma of a pair with the uncle of a triple", append(append([]byte(nil), pairSigA...), sigA[PairSigSize:]...), DomainSubmit, pairA)
	reject("psi with the Ed25519 part of another tree", append(append([]byte(nil), otherC[:ed25519.SignatureSize]...), sigC[ed25519.SignatureSize:]...), DomainProof, tripleC)
	reject("sigma with the Ed25519 part of another tree", append(append([]byte(nil), sigA[:ed25519.SignatureSize]...), otherA[ed25519.SignatureSize:]...), DomainSubmit, pairA)
}

// TestTripleMemo: one real verification of any leaf pays for the other
// two; a leaf of another tree does not hit.
func TestTripleMemo(t *testing.T) {
	ring, signers := NewTestKeyring(1, 10)
	sigA, sigB, sigC := signTestTriple(signers[0])
	_, _, otherC := signers[0].SignTriple(nil, DomainSubmit, pairA, DomainData, pairB, DomainProof, pairA)
	var m PairMemo
	for _, tc := range []struct {
		name    string
		want    bool
		wantOps int64
		sig     []byte
		domain  byte
		payload []byte
	}{
		{"psi first", true, 1, sigC, DomainProof, tripleC},
		{"sigma", true, 0, sigA, DomainSubmit, pairA},
		{"delta", true, 0, sigB, DomainData, pairB},
		{"psi of another tree over another payload", true, 1, otherC, DomainProof, pairA},
		{"psi of another tree over this payload", false, 1, otherC, DomainProof, tripleC},
		{"sigma after the other tree", true, 1, sigA, DomainSubmit, pairA},
	} {
		_, v0 := edOps()
		got := ring.VerifyMemo(&m, 0, tc.sig, tc.domain, tc.payload)
		_, v1 := edOps()
		if got != tc.want || v1-v0 != tc.wantOps {
			t.Errorf("%s: verified=%v with %d Ed25519 ops, want %v with %d", tc.name, got, v1-v0, tc.want, tc.wantOps)
		}
	}
	var own PairMemo
	sigA, sigB, sigC = signers[0].SignTriple(&own, DomainSubmit, pairA, DomainData, pairB, DomainProof, tripleC)
	_, v0 := edOps()
	ok := ring.VerifyMemo(&own, 0, sigA, DomainSubmit, pairA) && ring.VerifyMemo(&own, 0, sigB, DomainData, pairB) && ring.VerifyMemo(&own, 0, sigC, DomainProof, tripleC)
	if _, v1 := edOps(); !ok || v1 != v0 {
		t.Errorf("own triple: verified=%v with %d Ed25519 ops, want true with 0", ok, v1-v0)
	}
}

func TestVerifyBatchAcceptsPairSignatures(t *testing.T) {
	ring, signers := NewTestKeyring(1, 4)
	sigA, sigB := signTestPair(signers[0])
	jobs := []VerifyJob{
		{Ring: ring, Signer: 0, Domain: DomainSubmit, Sig: sigA, Payload: pairA},
		{Ring: ring, Signer: 0, Domain: DomainData, Sig: sigB, Payload: pairB},
		{Ring: ring, Signer: 0, Domain: DomainSubmit, Sig: sigB, Payload: pairA},
	}
	VerifyBatch(jobs)
	if !jobs[0].OK || !jobs[1].OK || jobs[2].OK {
		t.Fatalf("VerifyBatch on pair signatures: %v %v %v, want true true false", jobs[0].OK, jobs[1].OK, jobs[2].OK)
	}
}

var pairSink []byte

// TestAllocBudgetSignPair: a pair costs no more heap objects than one
// plain signature plus one — the single buffer both halves are carved
// from replaces the two results of two Sign calls.
func TestAllocBudgetSignPair(t *testing.T) {
	_, signers := NewTestKeyring(1, 5)
	var memo PairMemo
	one := testing.AllocsPerRun(200, func() { pairSink = signers[0].Sign(DomainSubmit, pairA) })
	pair := testing.AllocsPerRun(200, func() {
		pairSink, _ = signers[0].SignPair(&memo, DomainSubmit, pairA, DomainData, pairB)
	})
	if pair > one+1 {
		t.Fatalf("SignPair allocates %.0f objects, one Sign %.0f: budget is one more", pair, one)
	}
	triple := testing.AllocsPerRun(200, func() {
		pairSink, _, _ = signers[0].SignTriple(&memo, DomainSubmit, pairA, DomainData, pairB, DomainProof, tripleC)
	})
	if triple > one+1 {
		t.Fatalf("SignTriple allocates %.0f objects, one Sign %.0f: budget is one more", triple, one)
	}
}

// TestAllocBudgetVerifyPaired: checking a pair or triple signature, or a
// plain one, allocates nothing, on a memo hit or on a real verification.
func TestAllocBudgetVerifyPaired(t *testing.T) {
	ring, signers := NewTestKeyring(1, 6)
	sigA, sigB := signTestPair(signers[0])
	tA, tB, tC := signTestTriple(signers[0])
	plain := signers[0].Sign(DomainCommit, pairA)
	var memo PairMemo
	for name, m := range map[string]*PairMemo{"memo": &memo, "real": nil} {
		if got := testing.AllocsPerRun(200, func() {
			if !ring.VerifyMemo(m, 0, sigA, DomainSubmit, pairA) || !ring.VerifyMemo(m, 0, sigB, DomainData, pairB) {
				t.Fatal("valid pair rejected")
			}
			if !ring.VerifyMemo(m, 0, tC, DomainProof, tripleC) || !ring.VerifyMemo(m, 0, tA, DomainSubmit, pairA) || !ring.VerifyMemo(m, 0, tB, DomainData, pairB) {
				t.Fatal("valid triple rejected")
			}
			if !ring.VerifyMemo(m, 0, plain, DomainCommit, pairA) {
				t.Fatal("valid plain signature rejected")
			}
		}); got != 0 {
			t.Errorf("%s: verifying allocates %.0f objects, want 0", name, got)
		}
	}
}

// FuzzVerify: arbitrary signature bytes never panic Verify, never verify
// for a payload the signer did not sign, and get the verdict of
// crypto/ed25519.Verify on the Ed25519 message (stdVerify).
func FuzzVerify(f *testing.F) {
	ring, signers := NewTestKeyring(2, 7)
	sigA, sigB := signTestPair(signers[0])
	tA, tB, tC := signTestTriple(signers[0])
	plain := signers[0].Sign(DomainCommit, pairA)
	signed := func(i int, domain byte, payload []byte) bool {
		if i != 0 {
			return false
		}
		return domain == DomainSubmit && bytes.Equal(payload, pairA) ||
			domain == DomainData && bytes.Equal(payload, pairB) ||
			domain == DomainCommit && bytes.Equal(payload, pairA) ||
			domain == DomainProof && bytes.Equal(payload, tripleC)
	}
	f.Add(0, sigA, DomainSubmit, pairA)
	f.Add(0, sigB, DomainData, pairB)
	f.Add(0, sigB, DomainSubmit, pairA)
	f.Add(0, plain, DomainCommit, pairA)
	f.Add(1, sigA, DomainSubmit, pairA)
	f.Add(0, sigA[:ed25519.SignatureSize], DomainPair, pairA)
	f.Add(0, tA, DomainSubmit, pairA)
	f.Add(0, tB, DomainData, pairB)
	f.Add(0, tC, DomainProof, tripleC)
	f.Add(0, tA, DomainData, pairB)
	f.Add(0, tC, DomainSubmit, pairA)
	f.Add(0, append(append([]byte(nil), tA[:ed25519.SignatureSize]...), append([]byte{3}, tA[ed25519.SignatureSize+1:]...)...), DomainSubmit, pairA)
	f.Add(-1, []byte{}, byte(0), []byte{})
	f.Fuzz(func(t *testing.T, i int, sig []byte, domain byte, payload []byte) {
		var memo PairMemo
		ok := ring.Verify(i, sig, domain, payload)
		if ok != ring.VerifyMemo(&memo, i, sig, domain, payload) || ok != ring.VerifyMemo(&memo, i, sig, domain, payload) {
			t.Fatal("Verify and VerifyMemo disagree")
		}
		if want := stdVerify(ring, check{i, sig, domain, payload}); ok != want {
			t.Fatalf("Verify = %v, ed25519.Verify = %v", ok, want)
		}
		if ok && !signed(i, domain, payload) {
			t.Fatalf("verified (client %d, domain %d, %q), which nobody signed", i, domain, payload)
		}
	})
}
