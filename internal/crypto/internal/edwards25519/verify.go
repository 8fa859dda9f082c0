package edwards25519

import (
	"bytes"
	"crypto/sha512"
	"errors"
	"sync"

	"faust/internal/crypto/internal/edwards25519/field"
)

// The verification kernel. A single check computes R′ = [s]B − [k]A with
// one variable-time multiscalar multiplication (Straus): the terms share
// one chain of doublings, and each adds its NAF digits from a table of
// odd multiples of its point. The chain is 16 doublings, not 256: the
// NAF of a scalar below ℓ < 2²⁵³ is cut into 16 parts of 16 digits, and
// part q, digits 16q to 16q+15, is taken against [2¹⁶ᑫ]P. Digit 16q+j
// of the scalar then adds its value times 2ʲ·[2¹⁶ᑫ]P = 2¹⁶ᑫ⁺ʲ·P, its own
// weight, so the split sum is the scalar multiple exactly, whatever the
// NAF's carries did. The basepoint has 16 static width-8 tables (64 odd
// multiples each); a key keeps 16 width-6 tables (16 odd multiples
// each, 30 KiB in all) for the life of its keyring.
const (
	parts      = 16                   // parts a scalar's NAF is cut into
	partDigits = 256 / parts          // digits per part: the chain's doublings
	baseWidth  = 8                    // NAF width of s, against the basepoint's tables
	basePoints = 1 << (baseWidth - 2) // odd multiples per basepoint table
	keyWidth   = 6                    // NAF width of k, against a key's tables
	keyPoints  = 1 << (keyWidth - 2)  // odd multiples per key table
)

// PublicKey is a decoded Ed25519 public key: its encoding, which every
// challenge hash covers, and the tables of its point A: tables[q][i] is
// (2i+1)·[2¹⁶ᑫ]A, built once, as keys are fixed.
type PublicKey struct {
	enc    [32]byte
	tables [parts][keyPoints]affineCached
}

// NewPublicKey decodes enc. It refuses an encoding that is not a point
// of the curve, and a point of small order: [k]A then takes at most 8
// values, so anyone can make a signature that verifies under that key
// with one guess in 8, and a signature under it proves nothing about
// who signed.
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
	for q := range k.tables {
		oddMultiples(k.tables[q][:], &a)
		a.timesTwoToPart(&a)
	}
	return k, nil
}

// basepointNafTables returns the tables of the basepoint B: table q
// holds the odd multiples of [2¹⁶ᑫ]B. They are built the first time
// they are used.
func basepointNafTables() *[parts][basePoints]affineCached {
	basepointNafTablePrecomp.initOnce.Do(func() {
		b := NewGeneratorPoint()
		for q := range basepointNafTablePrecomp.tables {
			oddMultiples(basepointNafTablePrecomp.tables[q][:], b)
			b.timesTwoToPart(b)
		}
	})
	return &basepointNafTablePrecomp.tables
}

var basepointNafTablePrecomp struct {
	tables   [parts][basePoints]affineCached
	initOnce sync.Once
}

// oddMultiples sets out[i] = (2i+1)·Q for up to 64 points. It builds
// them in projective form, then makes them affine with one field
// inversion for all (Montgomery's trick).
func oddMultiples(out []affineCached, q *Point) {
	var cached [basePoints]projCached
	proj := cached[:len(out)]
	proj[0].FromP3(q)
	var q2, tmp Point
	var t projP1xP1
	q2.Add(q, q)
	for i := 1; i < len(proj); i++ {
		proj[i].FromP3(tmp.fromP1xP1(t.Add(&q2, &proj[i-1])))
	}
	var prefix [basePoints]field.Element // prefix[i] = Z₀·Z₁·…·Zᵢ
	prefix[0] = proj[0].Z
	for i := 1; i < len(proj); i++ {
		prefix[i].Multiply(&prefix[i-1], &proj[i].Z)
	}
	var inv, zInv field.Element // inv = 1/(Z₀·…·Zᵢ) at step i
	inv.Invert(&prefix[len(proj)-1])
	for i := len(proj) - 1; i >= 0; i-- {
		zInv = inv
		if i > 0 {
			zInv.Multiply(&inv, &prefix[i-1])
			inv.Multiply(&inv, &proj[i].Z)
		}
		out[i].YplusX.Multiply(&proj[i].YplusX, &zInv)
		out[i].YminusX.Multiply(&proj[i].YminusX, &zInv)
		out[i].T2d.Multiply(&proj[i].T2d, &zInv)
	}
}

// timesTwoToPart sets v = [2¹⁶]q and returns v.
func (v *Point) timesTwoToPart(q *Point) *Point {
	var p projP2
	var t projP1xP1
	p.FromP3(q)
	for i := 1; i < partDigits; i++ {
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

// Scratch is the reusable memory of a signature or a check: the string
// each hashes, assembled in place because a hash.Hash would make every
// message escape to the heap. The zero value is ready to use. A Scratch
// is not safe for concurrent use.
type Scratch struct {
	buf []byte
}

// Verify reports whether sig is a valid signature of k on msg, deciding
// exactly what crypto/ed25519.Verify decides: s must be below ℓ, and the
// encoding of R′ = [s]B − [k]A, with k = SHA-512(R‖A‖M) mod ℓ, must
// equal the signature's R byte for byte. The check is cofactorless, and
// R′'s encoding is canonical, so a non-canonical R never verifies.
func (k *PublicKey) Verify(sc *Scratch, msg, sig []byte) bool {
	if len(sig) != 64 {
		return false
	}
	var s, h Scalar
	if _, err := s.SetCanonicalBytes(sig[32:]); err != nil {
		return false
	}
	sc.buf = append(append(append(sc.buf[:0], sig[:32]...), k.enc[:]...), msg...)
	digest := sha512.Sum512(sc.buf)
	h.SetUniformBytes(digest[:])
	sNaf, hNaf := s.nonAdjacentForm(baseWidth), h.nonAdjacentForm(keyWidth)
	var acc projP2
	k.sum(&acc, &sNaf, &hNaf)
	var r Point // encoding reads X, Y and Z only
	r.x, r.y, r.z = acc.X, acc.Y, acc.Z
	var enc [32]byte
	return bytes.Equal(r.bytes(&enc), sig[:32])
}

// sum sets acc to [s]B − [h]A for the width-8 NAF of s and the width-6
// NAF of h, A being k's point.
func (k *PublicKey) sum(acc *projP2, s, h *[256]int8) {
	base := basepointNafTables()
	var (
		t projP1xP1
		p Point
	)
	acc.Zero()
	for j := partDigits - 1; j >= 0; j-- {
		t.Double(acc)
		for q := 0; q < parts; q++ {
			t.addAffine(&p, base[q][:], s[q*partDigits+j])
			t.addAffine(&p, k.tables[q][:], -h[q*partDigits+j])
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
