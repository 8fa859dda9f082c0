// Package version implements the version abstraction at the heart of the
// USTOR protocol (Section 5 of the paper): pairs (V, M) of a timestamp
// vector and a digest vector, the partial order on versions (Definition 7)
// and the hash-chain digest D over view histories.
//
// A client C_i maintains a version (V_i, M_i). Entry V_i[j] holds the
// timestamp of the last operation by C_j scheduled before C_i's latest
// operation, and M_i[j] holds the digest of C_i's expectation of C_j's
// view history at that operation. Versions committed by a correct server
// form a totally ordered chain; incomparable versions are proof of a
// forking attack.
package version

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"

	"faust/internal/crypto"
)

// Version is the pair (V, M) of Algorithm 1. The zero-length Version is
// not valid; use New. A nil digest entry represents the paper's bottom.
type Version struct {
	V []int64  // timestamp vector, one entry per client
	M [][]byte // digest vector, one entry per client; nil = bottom
}

// New returns the initial version (0^n, bottom^n) for n clients.
func New(n int) Version {
	return Version{V: make([]int64, n), M: make([][]byte, n)}
}

// N returns the number of clients this version covers.
func (v Version) N() int { return len(v.V) }

// Clone returns a deep copy of v in three allocations whatever n is: the
// timestamp vector, the digest headers, and one block behind all the
// digests. Each M[i] is a sub-slice of the block with its capacity capped
// at its length, so CopyFrom and DigestStepInto still overwrite same-size
// digests in place and never reach a neighbour. Versions cross API
// boundaries frequently; callers that retain or mutate must clone.
//
//faustlint:hotpath
func (v Version) Clone() Version {
	size := 0
	for _, d := range v.M {
		size += len(d)
	}
	//faustlint:ignore hotpathalloc allocation 1 of 3: the timestamp vector
	c := Version{V: make([]int64, len(v.V))}
	//faustlint:ignore hotpathalloc allocation 2 of 3: the digest headers
	c.M = make([][]byte, len(v.M))
	copy(c.V, v.V)
	//faustlint:ignore hotpathalloc allocation 3 of 3: the block behind all n digests
	block := make([]byte, size)
	for i, d := range v.M {
		if d != nil {
			n := copy(block, d)
			c.M[i], block = block[:n:n], block[n:]
		}
	}
	return c
}

// CopyFrom makes v a deep copy of w, reusing v's backing storage where
// possible. When the dimensions match and v's digest entries have capacity
// for w's (the steady state — all non-initial digests are HashSize bytes),
// the copy performs no allocation. v must own its storage exclusively:
// digests previously shared out of v (e.g. inside sent messages) must have
// been cloned at the sharing point.
func (v *Version) CopyFrom(w Version) {
	if cap(v.V) < len(w.V) {
		v.V = make([]int64, len(w.V))
	}
	v.V = v.V[:len(w.V)]
	copy(v.V, w.V)
	if cap(v.M) < len(w.M) {
		v.M = make([][]byte, len(w.M))
	}
	v.M = v.M[:len(w.M)]
	for i, d := range w.M {
		switch {
		case d == nil:
			v.M[i] = nil
		case cap(v.M[i]) >= len(d):
			v.M[i] = append(v.M[i][:0], d...)
		default:
			v.M[i] = append([]byte(nil), d...)
		}
	}
}

// IsZero reports whether v is the initial version (0^n, bottom^n).
func (v Version) IsZero() bool {
	for _, t := range v.V {
		if t != 0 {
			return false
		}
	}
	for _, d := range v.M {
		if d != nil {
			return false
		}
	}
	return true
}

// LessEq reports whether v is smaller than or equal to w in the order of
// Definition 7: V <= W entrywise, and for every k with V[k] == W[k] the
// digests M[k] and W.M[k] agree. Versions of different dimension are
// never ordered.
func (v Version) LessEq(w Version) bool {
	if len(v.V) != len(w.V) || len(v.M) != len(w.M) {
		return false
	}
	for k := range v.V {
		if v.V[k] > w.V[k] {
			return false
		}
	}
	for k := range v.V {
		if v.V[k] == w.V[k] && !bytes.Equal(v.M[k], w.M[k]) {
			return false
		}
	}
	return true
}

// Less reports the strict order: v.LessEq(w) and v != w.
func (v Version) Less(w Version) bool {
	return v.LessEq(w) && !v.Equal(w)
}

// Equal reports whether the two versions are identical.
func (v Version) Equal(w Version) bool {
	if len(v.V) != len(w.V) || len(v.M) != len(w.M) {
		return false
	}
	for k := range v.V {
		if v.V[k] != w.V[k] {
			return false
		}
	}
	for k := range v.M {
		if !bytes.Equal(v.M[k], w.M[k]) {
			return false
		}
	}
	return true
}

// Comparable reports whether v and w are ordered either way. FAUST treats
// incomparable versions as proof of server misbehavior.
func Comparable(v, w Version) bool {
	return v.LessEq(w) || w.LessEq(v)
}

// Max returns the larger of two comparable versions. The boolean is false
// when the versions are incomparable, in which case the first argument is
// returned unchanged.
func Max(v, w Version) (Version, bool) {
	switch {
	case v.LessEq(w):
		return w, true
	case w.LessEq(v):
		return v, true
	default:
		return v, false
	}
}

// VectorLessEq reports the plain entrywise order V <= W on timestamp
// vectors, ignoring digests. The server uses it (Algorithm 2 line 119) to
// track the last committed operation in the schedule.
func VectorLessEq(v, w []int64) bool {
	if len(v) != len(w) {
		return false
	}
	for k := range v {
		if v[k] > w[k] {
			return false
		}
	}
	return true
}

// VectorLess reports V <= W and V != W.
func VectorLess(v, w []int64) bool {
	if !VectorLessEq(v, w) {
		return false
	}
	for k := range v {
		if v[k] != w[k] {
			return true
		}
	}
	return false
}

// DigestStep extends a view-history digest by one operation executed by
// client k: D(w_1..w_m) = H(D(w_1..w_{m-1}) || be32(k)), with nil for the
// empty sequence. All non-initial digests are exactly HashSize bytes, so
// the encoding is prefix-unambiguous.
func DigestStep(d []byte, k int) []byte {
	return DigestStepInto(nil, d, k)
}

// DigestStepInto is DigestStep appending into dst: with capacity for
// HashSize bytes the call is allocation-free. The digest is computed
// before dst is written, so dst[:0] may alias d itself.
func DigestStepInto(dst []byte, d []byte, k int) []byte {
	var idx [4]byte
	binary.BigEndian.PutUint32(idx[:], uint32(k))
	return crypto.HashInto(dst, d, idx[:])
}

// DigestOfSequence computes the digest of a whole sequence of client
// indices, D(w_1..w_m). It returns nil for the empty sequence.
func DigestOfSequence(clients []int) []byte {
	var d []byte
	for _, k := range clients {
		d = DigestStep(d, k)
	}
	return d
}

// CanonicalBytes returns a deterministic encoding of the version, used as
// the payload of COMMIT-signatures. The encoding is
// n || V[0..n-1] || (len,digest)[0..n-1] with fixed-width integers; a nil
// digest encodes as length 2^32-1 to distinguish bottom from an empty
// digest.
func (v Version) CanonicalBytes() []byte {
	size := 4 + 8*len(v.V)
	for _, d := range v.M {
		size += 4 + len(d)
	}
	return v.AppendCanonical(make([]byte, 0, size))
}

// AppendCanonical appends the canonical encoding to buf and returns the
// extended slice; with sufficient capacity the call is allocation-free.
// Signature hot paths build COMMIT payloads into reusable scratch buffers
// with it.
func (v Version) AppendCanonical(buf []byte) []byte {
	var tmp [8]byte
	binary.BigEndian.PutUint32(tmp[:4], uint32(len(v.V)))
	buf = append(buf, tmp[:4]...)
	for _, t := range v.V {
		binary.BigEndian.PutUint64(tmp[:], uint64(t))
		buf = append(buf, tmp[:]...)
	}
	for _, d := range v.M {
		if d == nil {
			binary.BigEndian.PutUint32(tmp[:4], ^uint32(0))
			buf = append(buf, tmp[:4]...)
			continue
		}
		binary.BigEndian.PutUint32(tmp[:4], uint32(len(d)))
		buf = append(buf, tmp[:4]...)
		buf = append(buf, d...)
	}
	return buf
}

// String renders the version compactly for logs and test failures.
func (v Version) String() string {
	var b strings.Builder
	b.WriteString("V[")
	for i, t := range v.V {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", t)
	}
	b.WriteString("] M[")
	for i, d := range v.M {
		if i > 0 {
			b.WriteByte(' ')
		}
		if d == nil {
			b.WriteString("_")
		} else {
			fmt.Fprintf(&b, "%x", d[:4])
		}
	}
	b.WriteString("]")
	return b.String()
}
