package edwards25519

import (
	"crypto/ed25519"
	"math/big"
	"math/rand/v2"
	"testing"
)

// testSigs returns count signatures of the given keys, round robin, on
// distinct messages.
func testSigs(t *testing.T, keys int, count int) (pubs []*PublicKey, msgs, sigs [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewPCG(1, 2))
	var privs []ed25519.PrivateKey
	for i := 0; i < keys; i++ {
		seed := make([]byte, ed25519.SeedSize)
		for j := range seed {
			seed[j] = byte(rng.IntN(256))
		}
		priv := ed25519.NewKeyFromSeed(seed)
		pub, err := NewPublicKey(priv.Public().(ed25519.PublicKey))
		if err != nil {
			t.Fatal(err)
		}
		privs, pubs = append(privs, priv), append(pubs, pub)
	}
	var out []*PublicKey
	for i := 0; i < count; i++ {
		msg := []byte{byte(i), byte(i >> 8), 'm'}
		msgs = append(msgs, msg)
		sigs = append(sigs, ed25519.Sign(privs[i%keys], msg))
		out = append(out, pubs[i%keys])
	}
	return out, msgs, sigs
}

func TestBatchEquation(t *testing.T) {
	pubs, msgs, sigs := testSigs(t, 3, 9)
	var b Batch
	for round := 0; round < 2; round++ { // the second round reuses the storage
		for n := 1; n <= len(sigs); n++ {
			b.Reset()
			for i := 0; i < n; i++ {
				if !b.Add(pubs[i], msgs[i], sigs[i]) {
					t.Fatalf("n=%d: signature %d refused", n, i)
				}
			}
			if !b.Verify() {
				t.Fatalf("n=%d: valid batch rejected", n)
			}
			for bad := 0; bad < n; bad++ {
				b.Reset()
				for i := 0; i < n; i++ {
					msg := msgs[i]
					if i == bad {
						msg = []byte("forged")
					}
					b.Add(pubs[i], msg, sigs[i])
				}
				if b.Verify() {
					t.Fatalf("n=%d: batch with a bad message at %d accepted", n, bad)
				}
			}
		}
	}
}

func TestNonAdjacentForm(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, w := range []uint{5, 8} {
		for k := 0; k < 50; k++ {
			var le [32]byte
			for i := range le {
				le[i] = byte(rng.IntN(256))
			}
			le[31] &= 0x0f
			var naf [256]int8
			nonAdjacentForm(&naf, &le, w)
			got := new(big.Int)
			for i := 255; i >= 0; i-- {
				got.Lsh(got, 1)
				got.Add(got, big.NewInt(int64(naf[i])))
			}
			var be [32]byte
			for i, c := range le {
				be[31-i] = c
			}
			if want := new(big.Int).SetBytes(be[:]); got.Cmp(want) != 0 {
				t.Fatalf("w=%d: NAF sums to %v, want %v", w, got, want)
			}
		}
	}
}

func TestPublicKeyRefusals(t *testing.T) {
	identity := make([]byte, 32)
	identity[0] = 1
	if _, err := NewPublicKey(identity); err == nil {
		t.Error("identity accepted as a public key")
	}
	notOnCurve := make([]byte, 32)
	notOnCurve[0] = 2
	if _, err := NewPublicKey(notOnCurve); err == nil {
		t.Error("y = 2, which is not on the curve, accepted")
	}
	if _, err := NewPublicKey(NewGeneratorPoint().Bytes()); err != nil {
		t.Errorf("generator refused: %v", err)
	}
}

// TestAllocBudgetBatchEquation: a reused Batch solves equations without
// allocating. Runs without -race in CI.
func TestAllocBudgetBatchEquation(t *testing.T) {
	pubs, msgs, sigs := testSigs(t, 4, 12)
	var b Batch
	run := func() {
		b.Reset()
		for i := range sigs {
			b.Add(pubs[i], msgs[i], sigs[i])
		}
		if !b.Verify() {
			t.Fatal("valid batch rejected")
		}
	}
	run()
	if got := testing.AllocsPerRun(20, run); got != 0 {
		t.Fatalf("a reused batch allocates %.1f objects per equation", got)
	}
}
