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
// It is the subset of the Go standard library's
// crypto/internal/fips140/edwards25519 (Go 1.24, BSD license, see LICENSE)
// that Ed25519 needs: point decoding, encoding and addition, the field
// arithmetic with its amd64 assembly, the fiat-crypto Scalar type
// (scalar.go, scalar_fiat.go) and the constant-time ScalarBaseMult with
// its tables (scalarmult.go, tables.go). Those files are copied as they
// are, with the standard library's internal imports replaced by their
// public equivalents. sign.go signs with them: the secret scalars only
// ever meet that constant-time code. verify.go adds the variable-time
// verification kernel, which runs on public data only.
package edwards25519
