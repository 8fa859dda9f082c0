package crypto

import (
	"bytes"
	"crypto/ed25519"
	"testing"

	"faust/internal/obs"
)

var (
	pairA = []byte("submit payload")
	pairB = []byte("data payload")
)

func signTestPair(s *Signer) (sigA, sigB []byte) {
	return s.SignPair(nil, DomainSubmit, pairA, DomainData, pairB)
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
	msg := pairMessage(&leafA, &leafB)
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

	// Signing fills the memo; plain signatures never touch it.
	var own PairMemo
	sigA, sigB = signers[1].SignPair(&own, DomainSubmit, pairA, DomainData, pairB)
	m = own
	check("own first half", true, 0, 1, sigA, DomainSubmit, pairA)
	check("own second half", true, 0, 1, sigB, DomainData, pairB)
	check("plain", true, 1, 1, signers[1].Sign(DomainData, pairB), DomainData, pairB)
	check("own pair after a plain verification", true, 0, 1, sigB, DomainData, pairB)
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
}

// TestAllocBudgetVerifyPaired: checking a pair signature allocates
// nothing, on a memo hit or on a real verification.
func TestAllocBudgetVerifyPaired(t *testing.T) {
	ring, signers := NewTestKeyring(1, 6)
	sigA, sigB := signTestPair(signers[0])
	var memo PairMemo
	for name, m := range map[string]*PairMemo{"memo": &memo, "real": nil} {
		if got := testing.AllocsPerRun(200, func() {
			if !ring.VerifyMemo(m, 0, sigA, DomainSubmit, pairA) || !ring.VerifyMemo(m, 0, sigB, DomainData, pairB) {
				t.Fatal("valid pair rejected")
			}
		}); got != 0 {
			t.Errorf("%s: verifying a pair allocates %.0f objects, want 0", name, got)
		}
	}
}

// FuzzVerify: arbitrary signature bytes never panic Verify and never
// verify for a payload the signer did not sign.
func FuzzVerify(f *testing.F) {
	ring, signers := NewTestKeyring(2, 7)
	sigA, sigB := signTestPair(signers[0])
	plain := signers[0].Sign(DomainCommit, pairA)
	signed := func(i int, domain byte, payload []byte) bool {
		if i != 0 {
			return false
		}
		return domain == DomainSubmit && bytes.Equal(payload, pairA) ||
			domain == DomainData && bytes.Equal(payload, pairB) ||
			domain == DomainCommit && bytes.Equal(payload, pairA)
	}
	f.Add(0, sigA, DomainSubmit, pairA)
	f.Add(0, sigB, DomainData, pairB)
	f.Add(0, sigB, DomainSubmit, pairA)
	f.Add(0, plain, DomainCommit, pairA)
	f.Add(1, sigA, DomainSubmit, pairA)
	f.Add(0, sigA[:ed25519.SignatureSize], DomainPair, pairA)
	f.Add(-1, []byte{}, byte(0), []byte{})
	f.Fuzz(func(t *testing.T, i int, sig []byte, domain byte, payload []byte) {
		var memo PairMemo
		ok := ring.Verify(i, sig, domain, payload)
		if ok != ring.VerifyMemo(&memo, i, sig, domain, payload) || ok != ring.VerifyMemo(&memo, i, sig, domain, payload) {
			t.Fatal("Verify and VerifyMemo disagree")
		}
		if ok && !signed(i, domain, payload) {
			t.Fatalf("verified (client %d, domain %d, %q), which nobody signed", i, domain, payload)
		}
	})
}
