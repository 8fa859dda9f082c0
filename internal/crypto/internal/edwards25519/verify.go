package edwards25519

import (
	"bytes"
	"crypto/sha512"
	"errors"
	"math/big"

	"faust/internal/crypto/internal/edwards25519/field"
)

// The verification kernel. Both checks this package makes, a single
// signature's (VerifyOne) and a batch equation's (Batch.Verify), are one
// variable-time multiscalar multiplication (Straus): all terms share one
// chain of doublings, and each term adds its NAF digits from a table of
// odd multiples of its point. The chain is 128 doublings, not 256: the
// NAF of a scalar below ℓ < 2²⁵³ is split at 2¹²⁸ into digits 0–127,
// taken against P, and digits 128–255, taken against [2¹²⁸]P. The split
// is exact whatever the carries, as each digit keeps its weight. The
// basepoint has a static table for each half; a key keeps its two
// tables for the life of its keyring. The zᵢ of a batch equation are 128
// bits, so their NAF needs no split, but it may carry into digit 128: a
// batch equation's chain starts one doubling higher.

// half is where a scalar is split: its digit i ≥ half is digit i − half
// of the multiple of [2¹²⁸]P.
const half = 128

// PublicKey is a decoded Ed25519 public key: its encoding, which every
// challenge hash covers, and the width-8 NAF tables of its point A and
// of [2¹²⁸]A, built once: keys are fixed, so the wide tables save
// additions in every check.
type PublicKey struct {
	enc     [32]byte
	table   nafLookupTable8 // odd multiples of A
	table2h nafLookupTable8 // odd multiples of [2¹²⁸]A
}

// NewPublicKey decodes enc. It refuses an encoding that is not a point
// of the curve and a point of small order, whose signatures the
// cofactored equation cannot tell apart.
func NewPublicKey(enc []byte) (*PublicKey, error) {
	if len(enc) != 32 {
		return nil, errors.New("edwards25519: public key is not 32 bytes")
	}
	var a Point
	if _, err := a.SetBytes(enc); err != nil {
		return nil, err
	}
	var p projP2
	if timesEightIsIdentity(p.FromP3(&a)) {
		return nil, errors.New("edwards25519: public key has small order")
	}
	k := &PublicKey{}
	copy(k.enc[:], enc)
	k.table.FromP3(&a)
	k.table2h.FromP3(new(Point).timesTwoToHalf(&a))
	return k, nil
}

// timesTwoToHalf sets v = [2¹²⁸]q and returns v.
func (v *Point) timesTwoToHalf(q *Point) *Point {
	var p projP2
	var t projP1xP1
	p.FromP3(q)
	for i := 1; i < half; i++ {
		p.FromP1xP1(t.Double(&p))
	}
	return v.fromP1xP1(t.Double(&p))
}

// timesEightIsIdentity reports whether [8]p is the identity, overwriting p.
func timesEightIsIdentity(p *projP2) bool {
	var t projP1xP1
	for i := 0; i < 3; i++ {
		p.FromP1xP1(t.Double(p))
	}
	var zero field.Element
	return p.X.Equal(&zero) == 1 && p.Y.Equal(&p.Z) == 1
}

// VerifyOne reports whether sig is a valid signature of pub on msg,
// deciding exactly what crypto/ed25519.Verify decides: s must be below ℓ,
// and the encoding of R′ = [s]B − [k]A, with k = SHA-512(R‖A‖M) mod ℓ,
// must equal the signature's R byte for byte. The check is cofactorless,
// and R′'s encoding is canonical, so a non-canonical R never verifies.
// VerifyOne uses b's scratch and leaves b empty.
func (b *Batch) VerifyOne(pub *PublicKey, msg, sig []byte) bool {
	b.Reset()
	if len(sig) != 64 || !canonicalScalar(sig[32:]) {
		return false
	}
	nonAdjacentForm(&b.sNaf, (*[32]byte)(sig[32:]), 8)
	j := b.keyIndex(pub)
	b.nafModOrder(&b.kNaf[j], b.challenge(pub, sig[:32], msg), 8)
	var acc projP2
	b.sum(&acc)
	b.Reset()
	var r Point // encoding reads X, Y and Z only
	r.x, r.y, r.z = acc.X, acc.Y, acc.Z
	var enc [32]byte
	return bytes.Equal(r.bytes(&enc), sig[:32])
}

// challenge returns k = SHA-512(R‖A‖M) as an unreduced integer, in b's
// scratch. The hashed string is assembled in b too: a hash.Hash would
// make every message escape to the heap.
func (b *Batch) challenge(pub *PublicKey, R, msg []byte) *big.Int {
	b.ram = append(append(append(b.ram[:0], R...), pub.enc[:]...), msg...)
	digest := sha512.Sum512(b.ram)
	b.setLE(&b.y, digest[:])
	return &b.y
}

// sum sets acc to [s]B − Σ [zᵢ]Rᵢ − Σ [kⱼ]Aⱼ for the NAF digits in b: s in
// sNaf, the zᵢ and the tables of the Rᵢ for the b.n signatures added,
// the kⱼ of b.keys in kNaf. It is the kernel both checks run.
func (b *Batch) sum(acc *projP2) {
	base, base2h := basepointNafTables()
	var (
		t projP1xP1
		p Point
	)
	top := half - 1
	if b.n > 0 {
		top = half // a zᵢ's NAF may carry into digit 128
	}
	acc.Zero()
	for i := top; i >= 0; i-- {
		t.Double(acc)
		if i < half {
			t.addAffine(&p, base.points[:], b.sNaf[i])
			t.addAffine(&p, base2h.points[:], b.sNaf[i+half])
			for j, k := range b.keys {
				t.addAffine(&p, k.table.points[:], -b.kNaf[j][i])
				t.addAffine(&p, k.table2h.points[:], -b.kNaf[j][i+half])
			}
		}
		for j := 0; j < b.n; j++ {
			t.subCached(&p, b.r[j].points[:], b.z[j][i])
		}
		acc.FromP1xP1(&t)
	}
}

// addAffine sets v = v + [d]Q for a NAF digit d, with tab the odd
// multiples of Q; p is scratch.
func (v *projP1xP1) addAffine(p *Point, tab []affineCached, d int8) {
	if d > 0 {
		v.AddAffine(p.fromP1xP1(v), &tab[d/2])
	} else if d < 0 {
		v.SubAffine(p.fromP1xP1(v), &tab[-d/2])
	}
}

// subCached sets v = v − [d]Q for a NAF digit d, with tab the odd
// multiples of Q; p is scratch.
func (v *projP1xP1) subCached(p *Point, tab []projCached, d int8) {
	if d > 0 {
		v.Sub(p.fromP1xP1(v), &tab[d/2])
	} else if d < 0 {
		v.Add(p.fromP1xP1(v), &tab[-d/2])
	}
}
