package edwards25519

import (
	"bytes"
	"crypto/ed25519"
	"math/rand/v2"
	"testing"
)

// checkSign compares the kernel's public key and signature on msg with
// crypto/ed25519's for seed: RFC 8032 signing is deterministic, so the
// two must be byte-identical.
func checkSign(t *testing.T, sc *Scratch, seed, msg []byte) {
	t.Helper()
	key, err := NewPrivateKey(seed)
	if err != nil {
		t.Fatal(err)
	}
	std := ed25519.NewKeyFromSeed(seed)
	if pub := key.Public(); !bytes.Equal(pub[:], std.Public().(ed25519.PublicKey)) {
		t.Fatalf("seed %x: public key %x, crypto/ed25519 %x", seed, pub, std.Public())
	}
	if got, want := key.Sign(sc, msg), ed25519.Sign(std, msg); !bytes.Equal(got[:], want) {
		t.Fatalf("seed %x, message %x: signature %x, crypto/ed25519 %x", seed, msg, got, want)
	}
}

func TestSignMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	var sc Scratch
	seed := make([]byte, 32)
	for i := 0; i < 64; i++ {
		for j := range seed {
			seed[j] = byte(rng.IntN(256))
		}
		msg := make([]byte, rng.IntN(301))
		for j := range msg {
			msg[j] = byte(rng.IntN(256))
		}
		checkSign(t, &sc, seed, msg)
	}
	if _, err := NewPrivateKey(seed[:31]); err == nil {
		t.Error("a 31-byte seed accepted")
	}
}

// FuzzSign: the kernel signs byte for byte as crypto/ed25519 does, for
// any seed and messages of 0–300 bytes.
func FuzzSign(f *testing.F) {
	f.Add(uint64(1), []byte{})
	f.Add(uint64(2), []byte("message"))
	f.Add(uint64(3), bytes.Repeat([]byte{0xff}, 300))
	var sc Scratch
	f.Fuzz(func(t *testing.T, seed uint64, msg []byte) {
		if len(msg) > 300 {
			msg = msg[:300]
		}
		rng := rand.New(rand.NewPCG(seed, 11))
		key := make([]byte, 32)
		for j := range key {
			key[j] = byte(rng.IntN(256))
		}
		checkSign(t, &sc, key, msg)
	})
}

// TestAllocBudgetSign: signing on reused scratch allocates nothing. Runs
// without -race in CI.
func TestAllocBudgetSign(t *testing.T) {
	key, err := NewPrivateKey(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 200)
	var sc Scratch
	key.Sign(&sc, msg)
	if got := testing.AllocsPerRun(50, func() { key.Sign(&sc, msg) }); got != 0 {
		t.Fatalf("signing allocates %.1f objects", got)
	}
}
