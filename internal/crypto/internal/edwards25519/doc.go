// Copyright (c) 2021 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// Package edwards25519 implements group logic for the twisted Edwards curve
//
//	-x^2 + y^2 = 1 + -(121665/121666)*x^2*y^2
//
// This is better known as the Edwards curve equivalent to Curve25519, and is
// the curve used by the Ed25519 signature scheme.
//
// It is the variable-time subset of the Go standard library's
// crypto/internal/fips140/edwards25519 (Go 1.24, BSD license, see LICENSE)
// that a batch verifier needs: point decoding and addition, the NAF
// lookup tables and the field arithmetic with its amd64 assembly. The
// constant-time scalar multiplications and the Scalar type are left out;
// batch.go adds the batch equation and does its scalar arithmetic modulo
// the group order with math/big. Signing and single verification stay
// with crypto/ed25519.
package edwards25519
