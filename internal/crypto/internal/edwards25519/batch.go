package edwards25519

import (
	crand "crypto/rand"
	"encoding/binary"
	"math/big"
	"math/rand/v2"
)

// Batch verification of Ed25519 signatures (Bernstein et al., "High-speed
// high-security signatures", 2012, §4). Signature i = (Rᵢ, sᵢ) by key Aᵢ
// on Mᵢ holds when [sᵢ]B = Rᵢ + [kᵢ]Aᵢ with kᵢ = SHA-512(Rᵢ‖Aᵢ‖Mᵢ) mod ℓ.
// With independent random 128-bit zᵢ, one equation
//
//	[8]([Σ zᵢsᵢ]B − Σ [zᵢ]Rᵢ − Σ [zᵢkᵢ]Aᵢ) = 0
//
// holds for a batch containing a signature that fails its own check only
// with probability 2⁻¹²⁸, so it replaces one verification per signature.
// The multiplication by the cofactor 8 is RFC 8032 §5.1.7's cofactored
// check. The sum runs on the verification kernel (verify.go): the zᵢ take
// width-5 NAF digits against a table of Rᵢ built per signature, and the
// Aᵢ terms use the tables their keys keep. Scalars of one key are summed
// first, so a key costs one term however many of its signatures the
// batch holds.

// order is ℓ, the prime order of the group generated by B.
var order, _ = new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)

// orderLE is ℓ in little-endian bytes, for the canonical-s check.
var orderLE = [32]byte{
	0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
	0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10,
}

// Batch gathers signatures for one batch equation, and is the scratch of
// a single check (VerifyOne). The zero value is an empty batch; Reset
// empties it and keeps its storage, so a reused Batch verifies without
// allocating. A Batch is not safe for concurrent use.
type Batch struct {
	rng *rand.ChaCha8 // draws the zᵢ; seeded from crypto/rand on first use
	ram []byte        // R‖A‖M, hashed for a challenge

	n    int               // signatures added since Reset
	bad  bool              // an added signature satisfies no equation
	r    []nafLookupTable5 // per signature: odd multiples of Rᵢ
	z    [][256]int8       // per signature: NAF of zᵢ
	keys []*PublicKey      // the distinct keys added
	kSum []big.Int         // per key: Σ zᵢkᵢ over its signatures, unreduced
	kNaf [][256]int8       // per key: NAF of kSum mod ℓ
	sSum big.Int           // Σ zᵢsᵢ, unreduced
	sNaf [256]int8

	x, y, q, rem big.Int // scalar scratch
	be           [64]byte
}

// Reset empties the batch.
func (b *Batch) Reset() {
	b.n, b.bad = 0, false
	b.keys = b.keys[:0]
	b.sSum.SetInt64(0)
}

// Add adds the 64-byte signature sig of pub on msg. It returns false,
// and the batch can no longer verify, when sig holds in no equation: s
// is not below ℓ or R is not the canonical encoding of a curve point,
// which is what crypto/ed25519 rejects before any curve arithmetic. It
// also returns false when the system gives no randomness for the zᵢ.
func (b *Batch) Add(pub *PublicKey, msg, sig []byte) bool {
	if len(sig) != 64 || !canonicalScalar(sig[32:]) || !canonicalPoint(sig[:32]) {
		b.bad = true
		return false
	}
	var R Point
	if _, err := R.SetBytes(sig[:32]); err != nil {
		b.bad = true
		return false
	}
	if b.rng == nil {
		var seed [32]byte
		if _, err := crand.Read(seed[:]); err != nil {
			b.bad = true // no equation without randomness; callers verify one by one
			return false
		}
		b.rng = rand.NewChaCha8(seed)
	}
	if b.n == len(b.r) {
		b.r = append(b.r, nafLookupTable5{})
		b.z = append(b.z, [256]int8{})
	}
	b.r[b.n].FromP3(&R)
	var z [32]byte
	binary.LittleEndian.PutUint64(z[0:], b.rng.Uint64())
	binary.LittleEndian.PutUint64(z[8:], b.rng.Uint64())
	nonAdjacentForm(&b.z[b.n], &z, 5)
	b.n++

	k := b.challenge(pub, sig[:32], msg)
	b.setLE(&b.x, z[:16])
	b.q.Mul(&b.x, k)
	j := b.keyIndex(pub)
	b.kSum[j].Add(&b.kSum[j], &b.q)
	b.setLE(&b.y, sig[32:])
	b.q.Mul(&b.x, &b.y)
	b.sSum.Add(&b.sSum, &b.q)
	return true
}

// keyIndex returns pub's index in b.keys, adding it with a zero sum the
// first time.
func (b *Batch) keyIndex(pub *PublicKey) int {
	for j, k := range b.keys {
		if k == pub {
			return j
		}
	}
	j := len(b.keys)
	b.keys = append(b.keys, pub)
	if j == len(b.kSum) {
		b.kSum = append(b.kSum, big.Int{})
		b.kNaf = append(b.kNaf, [256]int8{})
	}
	b.kSum[j].SetInt64(0)
	return j
}

// Verify reports whether the batch equation holds for the signatures
// added since Reset. An empty batch holds.
func (b *Batch) Verify() bool {
	if b.bad {
		return false
	}
	if b.n == 0 {
		return true
	}
	b.nafModOrder(&b.sNaf, &b.sSum, 8)
	for j := range b.keys {
		b.nafModOrder(&b.kNaf[j], &b.kSum[j], 8)
	}
	var acc projP2
	b.sum(&acc)
	return timesEightIsIdentity(&acc)
}

// setLE sets x to the little-endian integer le (at most 64 bytes).
func (b *Batch) setLE(x *big.Int, le []byte) {
	be := b.be[:len(le)]
	for i, c := range le {
		be[len(le)-1-i] = c
	}
	x.SetBytes(be)
}

// nafModOrder writes the width-w NAF of x mod ℓ into naf.
func (b *Batch) nafModOrder(naf *[256]int8, x *big.Int, w uint) {
	b.q.QuoRem(x, order, &b.rem)
	be := b.rem.FillBytes(b.be[:32])
	var le [32]byte
	for i, c := range be {
		le[31-i] = c
	}
	nonAdjacentForm(naf, &le, w)
}

// canonicalScalar reports whether the little-endian s is below ℓ.
func canonicalScalar(s []byte) bool {
	for i := 31; i >= 0; i-- {
		if s[i] != orderLE[i] {
			return s[i] < orderLE[i]
		}
	}
	return false
}

// canonicalPoint reports whether enc is a canonical point encoding as far
// as its bytes tell: y below p = 2²⁵⁵ − 19, and no sign bit on the two
// points whose x is zero (y = 1 and y = p − 1). Whether y is on the curve
// is left to decoding.
func canonicalPoint(enc []byte) bool {
	allFF := true
	for _, c := range enc[1:31] {
		allFF = allFF && c == 0xff
	}
	top := enc[31] & 0x7f
	if allFF && top == 0x7f && enc[0] >= 0xed {
		return false // y ≥ p
	}
	if enc[31]&0x80 == 0 {
		return true
	}
	if allFF && top == 0x7f && enc[0] == 0xec {
		return false // y = p − 1 with the sign bit set
	}
	for _, c := range enc[1:31] {
		if c != 0 {
			return true
		}
	}
	return !(enc[0] == 1 && top == 0) // y = 1 with the sign bit set
}
