package edwards25519

import (
	"crypto/ed25519"
	"encoding/hex"
	"math/big"
	"math/rand/v2"
	"testing"

	"faust/internal/crypto/internal/edwards25519/field"
)

// The mutations FuzzVerifyOne applies to an honest signature.
const (
	oneHonest     = iota // no mutation
	oneFlipR             // flip bits in a byte of R
	oneFlipS             // flip bits in a byte of s
	oneFlipMsg           // flip bits in a message byte, or extend the message
	oneSPlusOrder        // replace s by s + ℓ
	oneSTopBits          // set some of the top three bits of s
	oneNonCanonR         // replace R by a non-canonical encoding
	oneSmallR            // replace R by a point of order 1, 2, 4 or 8
	onePlusSmall         // add a point of order 2, 4 or 8 to R
	oneWrongKey          // verify under another key
	oneMutations
)

// order is ℓ, the prime order of the group generated by B.
var order, _ = new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// nonCanonicalR holds encodings crypto/ed25519 never accepts as R: y ≥ p
// (p itself, p + 1 and 2²⁵⁵ − 1), and the sign bit set on the two points
// whose x is zero (y = 1 and y = p − 1).
var nonCanonicalR = [][]byte{
	mustHex("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
	mustHex("eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
	mustHex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
	mustHex("0100000000000000000000000000000000000000000000000000000000000080"),
	mustHex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"),
}

// smallOrderR holds canonical encodings of points of small order: the
// identity (order 1), (0, −1) (order 2), the two points with y = 0
// (order 4) and two of order 8. TestSmallOrderR checks the orders.
var smallOrderR = [][]byte{
	mustHex("0100000000000000000000000000000000000000000000000000000000000000"),
	mustHex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
	mustHex("0000000000000000000000000000000000000000000000000000000000000000"),
	mustHex("0000000000000000000000000000000000000000000000000000000000000080"),
	mustHex("26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05"),
	mustHex("c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a"),
}

// smallOrderOf returns the order of the small-order point enc, or 0 if
// [8]enc is not the identity.
func smallOrderOf(t *testing.T, enc []byte) int {
	t.Helper()
	var pt Point
	if _, err := pt.SetBytes(enc); err != nil {
		t.Fatalf("%x does not decode: %v", enc, err)
	}
	var p projP2
	var d projP1xP1
	var zero field.Element
	p.FromP3(&pt)
	for order := 1; order <= 8; order *= 2 {
		if p.X.Equal(&zero) == 1 && p.Y.Equal(&p.Z) == 1 {
			return order
		}
		p.FromP1xP1(d.Double(&p))
	}
	return 0
}

func TestSmallOrderR(t *testing.T) {
	want := []int{1, 2, 4, 4, 8, 8}
	for i, enc := range smallOrderR {
		if got := smallOrderOf(t, enc); got != want[i] {
			t.Errorf("%x has order %d, want %d", enc, got, want[i])
		}
	}
}

// oneVerifyKeys returns three keys with their private halves.
func oneVerifyKeys(t testing.TB) ([]ed25519.PrivateKey, []*PublicKey) {
	rng := rand.New(rand.NewPCG(5, 6))
	var privs []ed25519.PrivateKey
	var pubs []*PublicKey
	for i := 0; i < 3; i++ {
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
	return privs, pubs
}

// mutateOne applies mutation kind to the signature sig by key of msg; pos
// and val pick the byte, the bits and the replacement. It returns the
// message, the signature and the key to verify under.
func mutateOne(pubs []*PublicKey, key int, msg, sig []byte, kind int, pos int, val byte) ([]byte, []byte, *PublicKey) {
	msg = append([]byte(nil), msg...)
	sig = append([]byte(nil), sig...)
	pub := pubs[key]
	flip := val | 1
	switch kind {
	case oneFlipR:
		sig[pos%32] ^= flip
	case oneFlipS:
		sig[32+pos%32] ^= flip
	case oneFlipMsg:
		if len(msg) == 0 || pos%4 == 0 {
			msg = append(msg, val)
		} else {
			msg[pos%len(msg)] ^= flip
		}
	case oneSPlusOrder:
		s := new(big.Int).SetBytes(reversed(sig[32:]))
		s.Add(s, order)
		copy(sig[32:], reversed(s.FillBytes(make([]byte, 32))))
	case oneSTopBits:
		sig[63] |= flip << 5
	case oneNonCanonR:
		copy(sig, nonCanonicalR[pos%len(nonCanonicalR)])
	case oneSmallR:
		copy(sig, smallOrderR[pos%len(smallOrderR)])
	case onePlusSmall:
		var r, t Point
		if _, err := r.SetBytes(sig[:32]); err != nil {
			panic(err)
		}
		t.SetBytes(smallOrderR[1+pos%(len(smallOrderR)-1)])
		copy(sig, r.Add(&r, &t).Bytes())
	case oneWrongKey:
		pub = pubs[(key+1+pos%(len(pubs)-1))%len(pubs)]
	}
	return msg, sig, pub
}

func reversed(b []byte) []byte {
	out := make([]byte, len(b))
	for i, c := range b {
		out[len(b)-1-i] = c
	}
	return out
}

// FuzzVerifyOne: the verdict of the single check (PublicKey.Verify) equals
// crypto/ed25519.Verify's on honest signatures of messages of 0–200
// bytes and on each mutation of them.
func FuzzVerifyOne(f *testing.F) {
	privs, pubs := oneVerifyKeys(f)
	for kind := 0; kind < oneMutations; kind++ {
		for pos := 0; pos < 6; pos++ {
			f.Add(uint64(kind), uint8(kind*20+pos), uint8(pos), uint8(kind), uint16(pos*7), byte(kind+pos))
		}
	}
	f.Add(uint64(99), uint8(200), uint8(2), uint8(oneFlipS), uint16(31), byte(0x80))
	var sc Scratch
	f.Fuzz(func(t *testing.T, seed uint64, size, key, kind uint8, pos uint16, val byte) {
		rng := rand.New(rand.NewPCG(seed, 1))
		msg := make([]byte, int(size)%201)
		for i := range msg {
			msg[i] = byte(rng.IntN(256))
		}
		k := int(key) % len(privs)
		sig := ed25519.Sign(privs[k], msg)
		msg, sig, pub := mutateOne(pubs, k, msg, sig, int(kind)%oneMutations, int(pos), val)
		want := ed25519.Verify(pub.enc[:], msg, sig)
		if got := pub.Verify(&sc, msg, sig); got != want {
			t.Fatalf("mutation %d: Verify = %v, ed25519.Verify = %v (sig %x)", kind%oneMutations, got, want, sig)
		}
		if kind%oneMutations == oneHonest && !want {
			t.Fatal("honest signature rejected")
		}
	})
}

// TestAllocBudgetVerifyOne: a single check on reused scratch allocates
// nothing, whatever the message length. Runs without -race in CI.
func TestAllocBudgetVerifyOne(t *testing.T) {
	privs, pubs := oneVerifyKeys(t)
	msg := make([]byte, 200)
	sig := ed25519.Sign(privs[0], msg)
	var sc Scratch
	if !pubs[0].Verify(&sc, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if got := testing.AllocsPerRun(50, func() { pubs[0].Verify(&sc, msg, sig) }); got != 0 {
		t.Fatalf("a single check allocates %.1f objects", got)
	}
}

func TestNonAdjacentForm(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, w := range []uint{keyWidth, baseWidth} {
		for k := 0; k < 50; k++ {
			var le [32]byte
			for i := range le {
				le[i] = byte(rng.IntN(256))
			}
			le[31] &= 0x0f
			var s Scalar
			if _, err := s.SetCanonicalBytes(le[:]); err != nil {
				t.Fatal(err)
			}
			naf := s.nonAdjacentForm(w)
			got := new(big.Int)
			for i := 255; i >= 0; i-- {
				got.Lsh(got, 1)
				got.Add(got, big.NewInt(int64(naf[i])))
			}
			if want := new(big.Int).SetBytes(reversed(le[:])); got.Cmp(want) != 0 {
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
