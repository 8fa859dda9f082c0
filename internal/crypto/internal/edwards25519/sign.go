package edwards25519

import (
	"crypto/sha512"
	"errors"
)

// PrivateKey is an expanded Ed25519 private key (RFC 8032 §5.1.5): the
// clamped secret scalar s, the prefix that derives each signature's
// nonce, and the encoding of the public key A = [s]B. Expanding a seed
// costs a SHA-512 and a scalar multiplication, so it is done once per
// key, not once per signature. A PrivateKey is read-only once made, so
// it is safe for concurrent use.
type PrivateKey struct {
	s      Scalar
	prefix [32]byte
	pub    [32]byte
}

// NewPrivateKey expands the 32-byte seed of an Ed25519 private key.
func NewPrivateKey(seed []byte) (*PrivateKey, error) {
	if len(seed) != 32 {
		return nil, errors.New("edwards25519: private key seed is not 32 bytes")
	}
	h := sha512.Sum512(seed)
	k := &PrivateKey{}
	if _, err := k.s.SetBytesWithClamping(h[:32]); err != nil {
		return nil, err
	}
	copy(k.prefix[:], h[32:])
	var a Point
	copy(k.pub[:], a.ScalarBaseMult(&k.s).Bytes())
	return k, nil
}

// Public returns the encoding of the public key.
func (k *PrivateKey) Public() [32]byte { return k.pub }

// Sign returns the RFC 8032 signature of k on msg, byte for byte what
// crypto/ed25519.Sign returns for the same key: R = [r]B with
// r = SHA-512(prefix‖M) mod ℓ, and S = r + SHA-512(R‖A‖M)·s mod ℓ. The
// secret values r and s only meet the constant-time code of the
// standard library: Scalar arithmetic and ScalarBaseMult.
func (k *PrivateKey) Sign(sc *Scratch, msg []byte) (sig [64]byte) {
	sc.buf = append(append(sc.buf[:0], k.prefix[:]...), msg...)
	digest := sha512.Sum512(sc.buf)
	var r, h, s Scalar
	r.SetUniformBytes(digest[:])
	var R Point
	R.ScalarBaseMult(&r).bytes((*[32]byte)(sig[:32]))
	// R overwrites the prefix in sc.buf, so no secret stays behind.
	sc.buf = append(append(append(sc.buf[:0], sig[:32]...), k.pub[:]...), msg...)
	digest = sha512.Sum512(sc.buf)
	h.SetUniformBytes(digest[:])
	s.MultiplyAdd(&h, &k.s, &r).bytes((*[32]byte)(sig[32:]))
	return sig
}
