package crypto

import (
	"bytes"
	"crypto/ed25519"
	"encoding/hex"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestHashDeterministic(t *testing.T) {
	a := Hash([]byte("hello"), []byte("world"))
	b := Hash([]byte("hello"), []byte("world"))
	if !bytes.Equal(a, b) {
		t.Fatalf("hash not deterministic: %x vs %x", a, b)
	}
	if len(a) != HashSize {
		t.Fatalf("hash size = %d, want %d", len(a), HashSize)
	}
}

func TestHashConcatenationEqualsSingle(t *testing.T) {
	a := Hash([]byte("hello"), []byte("world"))
	b := Hash([]byte("helloworld"))
	if !bytes.Equal(a, b) {
		t.Fatalf("Hash(parts...) must equal Hash(concat): %x vs %x", a, b)
	}
}

func TestHashDistinguishesInputs(t *testing.T) {
	if bytes.Equal(Hash([]byte("a")), Hash([]byte("b"))) {
		t.Fatal("different inputs hashed equal")
	}
}

func TestHashOrNil(t *testing.T) {
	if HashOrNil(nil) != nil {
		t.Fatal("HashOrNil(nil) must be nil (bottom)")
	}
	if got := HashOrNil([]byte{}); got == nil {
		t.Fatal("HashOrNil(empty non-nil) must hash, not return nil")
	}
	if !bytes.Equal(HashOrNil([]byte("x")), Hash([]byte("x"))) {
		t.Fatal("HashOrNil(x) != Hash(x)")
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	ring, signers := NewTestKeyring(3, 1)
	payload := []byte("the payload")
	for i, s := range signers {
		sig := s.Sign(DomainCommit, payload)
		if !ring.Verify(i, sig, DomainCommit, payload) {
			t.Fatalf("client %d: valid signature rejected", i)
		}
	}
}

func TestVerifyRejectsWrongSigner(t *testing.T) {
	ring, signers := NewTestKeyring(3, 1)
	sig := signers[0].Sign(DomainCommit, []byte("p"))
	if ring.Verify(1, sig, DomainCommit, []byte("p")) {
		t.Fatal("signature by client 0 verified as client 1")
	}
}

func TestVerifyRejectsWrongDomain(t *testing.T) {
	ring, signers := NewTestKeyring(1, 1)
	sig := signers[0].Sign(DomainSubmit, []byte("p"))
	if ring.Verify(0, sig, DomainData, []byte("p")) {
		t.Fatal("domain separation violated: SUBMIT signature verified under DATA")
	}
}

func TestVerifyRejectsTamperedPayload(t *testing.T) {
	ring, signers := NewTestKeyring(1, 1)
	sig := signers[0].Sign(DomainData, []byte("p"))
	if ring.Verify(0, sig, DomainData, []byte("q")) {
		t.Fatal("tampered payload verified")
	}
}

func TestVerifyRejectsMalformed(t *testing.T) {
	ring, _ := NewTestKeyring(2, 1)
	if ring.Verify(0, []byte("short"), DomainData, []byte("p")) {
		t.Fatal("malformed signature verified")
	}
	if ring.Verify(-1, make([]byte, 64), DomainData, []byte("p")) {
		t.Fatal("negative client index verified")
	}
	if ring.Verify(2, make([]byte, 64), DomainData, []byte("p")) {
		t.Fatal("out-of-range client index verified")
	}
}

func TestTestKeyringDeterministic(t *testing.T) {
	ring1, signers1 := NewTestKeyring(4, 42)
	ring2, signers2 := NewTestKeyring(4, 42)
	sig1 := signers1[2].Sign(DomainProof, []byte("m"))
	sig2 := signers2[2].Sign(DomainProof, []byte("m"))
	if !bytes.Equal(sig1, sig2) {
		t.Fatal("same seed produced different keys")
	}
	if !ring1.Verify(2, sig2, DomainProof, []byte("m")) || !ring2.Verify(2, sig1, DomainProof, []byte("m")) {
		t.Fatal("cross-verification between identically seeded rings failed")
	}
}

func TestTestKeyringSeedsDiffer(t *testing.T) {
	_, signers1 := NewTestKeyring(1, 1)
	_, signers2 := NewTestKeyring(1, 2)
	s1 := signers1[0].Sign(DomainData, []byte("m"))
	s2 := signers2[0].Sign(DomainData, []byte("m"))
	if bytes.Equal(s1, s2) {
		t.Fatal("different seeds produced identical keys")
	}
}

func TestGenerateKeyring(t *testing.T) {
	ring, signers, err := GenerateKeyring(2)
	if err != nil {
		t.Fatalf("GenerateKeyring: %v", err)
	}
	if ring.N() != 2 || len(signers) != 2 {
		t.Fatalf("wrong sizes: ring.N()=%d signers=%d", ring.N(), len(signers))
	}
	sig := signers[1].Sign(DomainCommit, []byte("x"))
	if !ring.Verify(1, sig, DomainCommit, []byte("x")) {
		t.Fatal("generated key does not verify")
	}
	if _, _, err := GenerateKeyring(0); err == nil {
		t.Fatal("GenerateKeyring(0) should fail")
	}
}

// TestSignerConcurrent: one Signer signs from many goroutines at once
// and every signature is the one it makes alone (RFC 8032 signing is
// deterministic); run with -race.
func TestSignerConcurrent(t *testing.T) {
	ring, signers := NewTestKeyring(1, 17)
	want := signers[0].Sign(DomainSubmit, []byte("concurrent"))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if sig := signers[0].Sign(DomainSubmit, []byte("concurrent")); !bytes.Equal(sig, want) {
					t.Errorf("signature %x, want %x", sig, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !ring.Verify(0, want, DomainSubmit, []byte("concurrent")) {
		t.Fatal("signature does not verify")
	}
}

func TestSignerID(t *testing.T) {
	_, signers := NewTestKeyring(3, 7)
	for i, s := range signers {
		if s.ID() != i {
			t.Fatalf("signer %d reports ID %d", i, s.ID())
		}
	}
}

func TestKeyringMarshalRoundTrip(t *testing.T) {
	ring, signers := NewTestKeyring(5, 9)
	data := MarshalKeyring(ring)
	got, err := UnmarshalKeyring(data)
	if err != nil {
		t.Fatalf("UnmarshalKeyring: %v", err)
	}
	sig := signers[3].Sign(DomainData, []byte("z"))
	if !got.Verify(3, sig, DomainData, []byte("z")) {
		t.Fatal("round-tripped keyring rejects valid signature")
	}
}

func TestKeyringUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalKeyring(nil); err == nil {
		t.Fatal("nil input accepted")
	}
	if _, err := UnmarshalKeyring([]byte{0, 0, 0, 2, 1, 2, 3}); err == nil {
		t.Fatal("truncated input accepted")
	}
}

// keyringWith returns the MarshalKeyring encoding of a two-key ring
// whose second key is bad.
func keyringWith(t *testing.T, bad []byte) []byte {
	t.Helper()
	ring, _ := NewTestKeyring(2, 3)
	data := MarshalKeyring(ring)
	copy(data[4+ed25519.PublicKeySize:], bad)
	return data
}

// TestKeyringRefusesUndecodableKey: a public key that is not the
// encoding of a curve point is refused by UnmarshalKeyring and by the
// constructor the key generators share.
func TestKeyringRefusesUndecodableKey(t *testing.T) {
	notOnCurve := make([]byte, ed25519.PublicKeySize)
	notOnCurve[0] = 2 // no curve point has y = 2
	if _, err := UnmarshalKeyring(keyringWith(t, notOnCurve)); err == nil {
		t.Error("UnmarshalKeyring accepted a key that is not a curve point")
	}
	if _, err := newKeyring([]ed25519.PublicKey{notOnCurve}); err == nil {
		t.Error("newKeyring accepted a key that is not a curve point")
	}
}

// TestKeyringRefusesSmallOrderKey: a public key of small order (the
// identity and points of order 2, 4 and 8) is refused, since anyone can
// forge a signature under it.
func TestKeyringRefusesSmallOrderKey(t *testing.T) {
	for name, hexKey := range map[string]string{
		"identity": "0100000000000000000000000000000000000000000000000000000000000000",
		"order 2":  "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
		"order 4":  "0000000000000000000000000000000000000000000000000000000000000000",
		"order 8":  "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
	} {
		key, err := hex.DecodeString(hexKey)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := UnmarshalKeyring(keyringWith(t, key)); err == nil || !strings.Contains(err.Error(), "small order") {
			t.Errorf("UnmarshalKeyring on the %s point: %v, want a small-order refusal", name, err)
		}
		if _, err := newKeyring([]ed25519.PublicKey{key}); err == nil || !strings.Contains(err.Error(), "small order") {
			t.Errorf("newKeyring on the %s point: %v, want a small-order refusal", name, err)
		}
	}
}

// Property: signatures over random payloads always round-trip, and never
// verify under a different domain.
func TestQuickSignVerify(t *testing.T) {
	ring, signers := NewTestKeyring(2, 123)
	f := func(payload []byte) bool {
		sig := signers[0].Sign(DomainSubmit, payload)
		if !ring.Verify(0, sig, DomainSubmit, payload) {
			return false
		}
		return !ring.Verify(0, sig, DomainCommit, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
