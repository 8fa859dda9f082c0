package edwards25519

import (
	"math/big"
	"math/rand/v2"
	"testing"
)

// scalarOf returns x, below ℓ, as a Scalar.
func scalarOf(t *testing.T, x *big.Int) *Scalar {
	t.Helper()
	s, err := new(Scalar).SetCanonicalBytes(reversed(x.FillBytes(make([]byte, 32))))
	if err != nil {
		t.Fatalf("%v: %v", x, err)
	}
	return s
}

// referenceMult returns [x]p by double-and-add over the bits of x.
func referenceMult(x *big.Int, p *Point) *Point {
	acc := NewIdentityPoint()
	for i := x.BitLen() - 1; i >= 0; i-- {
		acc.Add(acc, acc)
		if x.Bit(i) == 1 {
			acc.Add(acc, p)
		}
	}
	return acc
}

// sumBytes encodes the kernel's [s]B − [h]A for k's point A.
func sumBytes(k *PublicKey, s, h *Scalar) []byte {
	sNaf, hNaf := s.nonAdjacentForm(baseWidth), h.nonAdjacentForm(keyWidth)
	var acc projP2
	k.sum(&acc, &sNaf, &hNaf)
	var r Point
	r.x, r.y, r.z = acc.X, acc.Y, acc.Z
	return r.Bytes()
}

// edgeScalars returns 0, 1, ℓ−1, 2¹⁶ᑫ ± 1 and 2¹⁶ᑫ⁻¹ (the top digit of
// the part below) at every part boundary q, and each part's digits all
// ones (as many as stay below ℓ in the top part).
func edgeScalars() []*big.Int {
	one := big.NewInt(1)
	out := []*big.Int{new(big.Int), big.NewInt(1), new(big.Int).Sub(order, one)}
	for q := 1; q < parts; q++ {
		b := new(big.Int).Lsh(one, uint(partDigits*q))
		out = append(out, new(big.Int).Sub(b, one), new(big.Int).Add(b, one), new(big.Int).Rsh(b, 1))
	}
	for q := 0; q < parts; q++ {
		bits := partDigits
		if q == parts-1 {
			bits = order.BitLen() - 1 - partDigits*q
		}
		ones := new(big.Int).Sub(new(big.Int).Lsh(one, uint(bits)), one)
		out = append(out, ones.Lsh(ones, uint(partDigits*q)))
	}
	return out
}

// TestSplitSumEdgeScalars compares the kernel's split sum [s]B − [h]A
// with double-and-add on every pair of edge scalars, where a carry that
// crosses a part boundary shows: a carry lost there changes the sum.
func TestSplitSumEdgeScalars(t *testing.T) {
	_, pubs := oneVerifyKeys(t)
	key := pubs[0]
	var a Point
	if _, err := a.SetBytes(key.enc[:]); err != nil {
		t.Fatal(err)
	}
	edges := edgeScalars()
	sB := make([]*Point, len(edges))      // [s]B
	minusHA := make([]*Point, len(edges)) // [ℓ − h]A = −[h]A, as A has order ℓ
	for i, x := range edges {
		sB[i] = referenceMult(x, NewGeneratorPoint())
		minusHA[i] = referenceMult(new(big.Int).Sub(order, x), &a)
	}
	for i, s := range edges {
		for j, h := range edges {
			want := new(Point).Add(sB[i], minusHA[j]).Bytes()
			if got := sumBytes(key, scalarOf(t, s), scalarOf(t, h)); string(got) != string(want) {
				t.Fatalf("s = %#x, h = %#x: kernel %x, double-and-add %x", s, h, got, want)
			}
		}
	}
}

// TestScalarBaseMultMatchesKernel: the constant-time ScalarBaseMult that
// signing uses and the variable-time kernel agree on [r]B.
func TestScalarBaseMultMatchesKernel(t *testing.T) {
	_, pubs := oneVerifyKeys(t)
	rng := rand.New(rand.NewPCG(7, 8))
	var wide [64]byte
	var zero Scalar
	for i := 0; i < 64; i++ {
		for j := range wide {
			wide[j] = byte(rng.IntN(256))
		}
		r, err := new(Scalar).SetUniformBytes(wide[:])
		if err != nil {
			t.Fatal(err)
		}
		want := sumBytes(pubs[0], r, &zero)
		if got := new(Point).ScalarBaseMult(r).Bytes(); string(got) != string(want) {
			t.Fatalf("r = %x: ScalarBaseMult %x, kernel %x", r.Bytes(), got, want)
		}
	}
}
