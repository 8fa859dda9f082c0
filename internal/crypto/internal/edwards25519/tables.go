// Copyright (c) 2019 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package edwards25519

import "faust/internal/crypto/internal/edwards25519/field"

// A dynamic lookup table for variable-base, variable-time scalar muls.
type nafLookupTable5 struct {
	points [8]projCached
}

// A precomputed lookup table for fixed-base, variable-time scalar muls.
type nafLookupTable8 struct {
	points [64]affineCached
}

// Constructors.

// Builds a lookup table at runtime. Fast.
func (v *nafLookupTable5) FromP3(q *Point) {
	// Goal: v.points[i] = (2*i+1)*Q, i.e., Q, 3Q, 5Q, ..., 15Q
	// This allows lookup of -15Q, ..., -3Q, -Q, 0, Q, 3Q, ..., 15Q
	v.points[0].FromP3(q)
	q2 := Point{}
	q2.Add(q, q)
	tmpP3 := Point{}
	tmpP1xP1 := projP1xP1{}
	for i := 0; i < 7; i++ {
		v.points[i+1].FromP3(tmpP3.fromP1xP1(tmpP1xP1.Add(&q2, &v.points[i])))
	}
}

// FromP3 builds the odd multiples Q, 3Q, ..., 127Q in projective form,
// then makes them affine with one field inversion for all 64
// (Montgomery's trick), so a key's table is cheap enough to build once
// per keyring.
func (v *nafLookupTable8) FromP3(q *Point) {
	var cached [64]projCached
	cached[0].FromP3(q)
	q2 := Point{}
	q2.Add(q, q)
	tmpP3 := Point{}
	tmpP1xP1 := projP1xP1{}
	for i := 0; i < 63; i++ {
		cached[i+1].FromP3(tmpP3.fromP1xP1(tmpP1xP1.Add(&q2, &cached[i])))
	}
	var prefix [64]field.Element // prefix[i] = Z₀·Z₁·…·Zᵢ
	prefix[0] = cached[0].Z
	for i := 1; i < 64; i++ {
		prefix[i].Multiply(&prefix[i-1], &cached[i].Z)
	}
	var inv, zInv field.Element // inv = 1/(Z₀·…·Zᵢ) at step i
	inv.Invert(&prefix[63])
	for i := 63; i >= 0; i-- {
		zInv = inv
		if i > 0 {
			zInv.Multiply(&inv, &prefix[i-1])
			inv.Multiply(&inv, &cached[i].Z)
		}
		v.points[i].YplusX.Multiply(&cached[i].YplusX, &zInv)
		v.points[i].YminusX.Multiply(&cached[i].YminusX, &zInv)
		v.points[i].T2d.Multiply(&cached[i].T2d, &zInv)
	}
}
