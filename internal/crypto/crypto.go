// Package crypto provides the cryptographic substrate of the FAUST
// reproduction: collision-resistant hashing, digital signatures with
// domain separation, and keyrings holding the public keys of all clients.
//
// The paper (Section 2) assumes a collision-resistant hash function H and
// a digital signature scheme where only client C_i can sign as C_i and
// every party can verify. We instantiate H with SHA-256 and signatures
// with Ed25519 from the Go standard library.
//
// Signatures that are checked together — those of one REPLY, or the
// SUBMITs of one dispatch batch — are decided by one randomized batch
// equation (Batch, VerifyBatch), computed by internal/edwards25519, a
// subset of the standard library's curve code. Its verdict per signature
// is ed25519.Verify's: see Batch for how, and README "Why the batch
// equation is sound" for why that holds here.
package crypto

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	mathrand "math/rand/v2"
	"sync"

	"faust/internal/crypto/internal/edwards25519"
	"faust/internal/obs"
)

// HashSize is the size in bytes of hash values produced by Hash.
const HashSize = sha256.Size

// Domain tags separate the signature kinds of Algorithm 1 so that a
// signature issued for one purpose can never verify for another.
const (
	DomainSubmit byte = 1 // SUBMIT-signature sigma on (opcode, register, timestamp)
	DomainData   byte = 2 // DATA-signature delta on (timestamp, value hash)
	DomainCommit byte = 3 // COMMIT-signature phi on a version (V, M)
	DomainProof  byte = 4 // PROOF-signature psi on M[i]
	// DomainLSChain is used by the lock-step baseline protocol for
	// signatures over its global hash chain.
	DomainLSChain byte = 5
	// DomainPair tags the root of a hash tree signed by SignPair or
	// SignTriple. No protocol payload is ever signed or verified directly
	// under it.
	DomainPair byte = 6
)

// PairSigSize is the size of a signature on a leaf one level below the
// root of a signed tree: the shared Ed25519 signature, the path byte and
// the one sibling. Both signatures SignPair returns have it, and so does
// the third one of SignTriple.
const PairSigSize = ed25519.SignatureSize + 1 + HashSize

// TripleSigSize is the size of a signature on a leaf two levels below the
// root: the first two signatures SignTriple returns carry their sibling
// leaf and then the sibling of their parent.
const TripleSigSize = PairSigSize + HashSize

// Leaf and inner-node hashes of a signed tree take different prefixes, so
// no leaf preimage can pass for a node preimage or the reverse.
const (
	pairLeafTag byte = 0x00
	pairNodeTag byte = 0x01
)

// scratchPool recycles the concatenation / domain-prefix buffers used by
// Hash, Sign and Verify so the steady-state hot path performs no heap
// allocation beyond the returned digest or signature.
var scratchPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// Signature timing feeds the observability layer: Ed25519 dominates the
// client-side cost of every USTOR operation (Section 6 measures exactly
// this), so per-call histograms make the crypto share of op latency
// visible on /metrics wherever signing or verification happens.
// verifyNs has one observation per signature verified for real, batchNs
// one per verification equation solved.
var (
	signNs   = obs.Default().Histogram("faust_ed25519_sign_ns")
	verifyNs = obs.Default().Histogram("faust_ed25519_verify_ns")
	batchNs  = obs.Default().Histogram("faust_ed25519_batch_ns")
)

// Hash returns the SHA-256 digest of the concatenation of the given byte
// slices. The digest is computed with a stack [32]byte sum (sha256.Sum256)
// over a pooled concatenation buffer; the only allocation is the returned
// 32-byte slice.
func Hash(parts ...[]byte) []byte {
	return HashInto(nil, parts...)
}

// HashInto appends the SHA-256 digest of the concatenation of parts to dst
// and returns the extended slice. With a dst of sufficient capacity the
// call is allocation-free. The digest is fully computed before dst is
// written, so dst[:0] may alias one of the parts.
func HashInto(dst []byte, parts ...[]byte) []byte {
	if len(parts) == 1 {
		sum := sha256.Sum256(parts[0])
		return append(dst, sum[:]...)
	}
	bp := scratchPool.Get().(*[]byte)
	buf := (*bp)[:0]
	for _, p := range parts {
		buf = append(buf, p...)
	}
	sum := sha256.Sum256(buf)
	*bp = buf
	scratchPool.Put(bp)
	return append(dst, sum[:]...)
}

// HashOrNil returns nil when x is nil (the paper's bottom value) and
// Hash(x) otherwise. The initial value of every register is bottom, and
// the DATA-signature of a client that has never written covers bottom
// rather than the hash of an empty string; this helper keeps signer and
// verifier consistent.
func HashOrNil(x []byte) []byte {
	if x == nil {
		return nil
	}
	return Hash(x)
}

// Signer holds a client's private key and can issue signatures in its
// name. The zero value is unusable; construct via GenerateKeyring or
// NewTestKeyring.
type Signer struct {
	id  int
	key ed25519.PrivateKey
}

// ID returns the client index this signer signs for.
func (s *Signer) ID() int { return s.id }

// Sign produces a signature over the given domain-separated payload. The
// domain-prefixed message is assembled in a pooled scratch buffer, so the
// only allocation is the returned signature.
func (s *Signer) Sign(domain byte, payload []byte) []byte {
	bp := scratchPool.Get().(*[]byte)
	msg := append((*bp)[:0], domain)
	msg = append(msg, payload...)
	start := obs.StartTimer()
	sig := ed25519.Sign(s.key, msg)
	signNs.ObserveSince(start)
	*bp = msg
	scratchPool.Put(bp)
	return sig
}

// SignMemo is Sign that also records the signature in memo (when non-nil)
// as verified for this signer, so checking it later costs one SHA-256 of
// the payload instead of an Ed25519 verification.
func (s *Signer) SignMemo(memo *PairMemo, domain byte, payload []byte) []byte {
	sig := s.Sign(domain, payload)
	if memo != nil {
		key := plainKey(domain, payload)
		memo.set(s.id, &key, sig)
	}
	return sig
}

// SignPair signs two domain-separated payloads with one Ed25519
// operation. It hashes each into a leaf H(0x00‖domain‖payload), signs
// DomainPair‖H(0x01‖leafA‖leafB) once, and returns two self-contained
// PairSigSize-byte signatures edsig‖path‖siblingLeaf that Keyring.Verify
// accepts independently for (domA, payloadA) and (domB, payloadB). Both
// are carved from a single allocation. A non-nil memo records the pair
// as verified for this signer: whoever signed a root need not check it.
//
//faustlint:hotpath
func (s *Signer) SignPair(memo *PairMemo, domA byte, payloadA []byte, domB byte, payloadB []byte) (sigA, sigB []byte) {
	leafA, leafB := pairLeaf(domA, payloadA), pairLeaf(domB, payloadB)
	root := pairNode(&leafA, &leafB)
	ed := s.signRoot(memo, &root)
	//faustlint:ignore hotpathalloc the one allocation of a pair: both returned signatures, which escape into messages
	out := make([]byte, 2*PairSigSize)
	sigA, sigB = out[:PairSigSize:PairSigSize], out[PairSigSize:]
	putTreeSig(sigA, &ed, 0, &leafB, nil)
	putTreeSig(sigB, &ed, 1, &leafA, nil)
	return sigA, sigB
}

// SignTriple signs three domain-separated payloads with one Ed25519
// operation over the tree node(node(A, B), C), signing
// DomainPair‖root as SignPair does. A and B get TripleSigSize-byte
// signatures edsig‖path‖siblingLeaf‖node(...) whose path byte is 0 and
// 1; C gets a PairSigSize-byte signature with path 1 and sibling
// node(A, B), which is exactly the shape of a pair signature. All three
// are carved from a single allocation, and a non-nil memo records the
// root as SignPair does.
//
//faustlint:hotpath
func (s *Signer) SignTriple(memo *PairMemo, domA byte, payloadA []byte, domB byte, payloadB []byte, domC byte, payloadC []byte) (sigA, sigB, sigC []byte) {
	leafA, leafB, leafC := pairLeaf(domA, payloadA), pairLeaf(domB, payloadB), pairLeaf(domC, payloadC)
	ab := pairNode(&leafA, &leafB)
	root := pairNode(&ab, &leafC)
	ed := s.signRoot(memo, &root)
	//faustlint:ignore hotpathalloc the one allocation of a triple: the three returned signatures, which escape into messages
	out := make([]byte, 2*TripleSigSize+PairSigSize)
	sigA, sigB, sigC = out[:TripleSigSize:TripleSigSize], out[TripleSigSize:2*TripleSigSize:2*TripleSigSize], out[2*TripleSigSize:]
	putTreeSig(sigA, &ed, 0, &leafB, &leafC)
	putTreeSig(sigB, &ed, 1, &leafA, &leafC)
	putTreeSig(sigC, &ed, 1, &ab, nil)
	return sigA, sigB, sigC
}

// signRoot signs DomainPair‖root and records it in memo when non-nil. It
// returns the signature by value: ed25519.Sign's result then never
// escapes and stays off the heap.
func (s *Signer) signRoot(memo *PairMemo, root *[HashSize]byte) (ed [ed25519.SignatureSize]byte) {
	msg := rootMessage(root)
	start := obs.StartTimer()
	copy(ed[:], ed25519.Sign(s.key, msg[:]))
	signNs.ObserveSince(start)
	if memo != nil {
		memo.set(s.id, &msg, ed[:])
	}
	return ed
}

// putTreeSig writes edsig‖path‖sibling‖uncle into dst; uncle is nil for a
// leaf one level below the root.
func putTreeSig(dst []byte, ed *[ed25519.SignatureSize]byte, path byte, sibling, uncle *[HashSize]byte) {
	copy(dst, ed[:])
	dst[ed25519.SignatureSize] = path
	copy(dst[ed25519.SignatureSize+1:], sibling[:])
	if uncle != nil {
		copy(dst[PairSigSize:], uncle[:])
	}
}

// pairLeaf returns H(0x00‖domain‖payload), one leaf of a signed tree.
func pairLeaf(domain byte, payload []byte) [HashSize]byte {
	bp := scratchPool.Get().(*[]byte)
	buf := append((*bp)[:0], pairLeafTag, domain)
	buf = append(buf, payload...)
	leaf := sha256.Sum256(buf)
	*bp = buf
	scratchPool.Put(bp)
	return leaf
}

// pairNode returns H(0x01‖left‖right), an inner node of a signed tree.
func pairNode(left, right *[HashSize]byte) [HashSize]byte {
	var node [1 + 2*HashSize]byte
	node[0] = pairNodeTag
	copy(node[1:], left[:])
	copy(node[1+HashSize:], right[:])
	return sha256.Sum256(node[:])
}

// rootMessage returns DomainPair‖root: the one string the Ed25519
// signature of a tree covers.
func rootMessage(root *[HashSize]byte) (msg [1 + HashSize]byte) {
	msg[0] = DomainPair
	copy(msg[1:], root[:])
	return msg
}

// plainKey is what a memo remembers a plain signature under: its domain
// (never DomainPair, so it cannot collide with a root message) and the
// leaf hash of its payload.
func plainKey(domain byte, payload []byte) (key [1 + HashSize]byte) {
	leaf := pairLeaf(domain, payload)
	key[0] = domain
	copy(key[1:], leaf[:])
	return key
}

// PairMemo remembers the last message known to carry a valid Ed25519
// signature of one signer, so the other leaves of a signed tree cost two
// or three SHA-256 calls instead of a verification. For a tree the
// message is DomainPair‖root; a plain signature is remembered under
// plainKey, its domain and the hash of its payload. Verification is a
// pure function of (public key, message, signature): a hit requires all
// three to be byte-identical to a call that returned true, with the
// message recomputed from the payload under test, so a hit is exactly as
// strong as verifying again (up to SHA-256 collisions). The zero value
// is an empty memo. A PairMemo is not safe for concurrent use.
type PairMemo struct {
	ok     bool
	signer int
	msg    [1 + HashSize]byte
	sig    [ed25519.SignatureSize]byte
}

func (m *PairMemo) hit(signer int, msg *[1 + HashSize]byte, ed []byte) bool {
	return m.ok && m.signer == signer && m.msg == *msg && bytes.Equal(m.sig[:], ed)
}

func (m *PairMemo) set(signer int, msg *[1 + HashSize]byte, ed []byte) {
	m.ok, m.signer, m.msg = true, signer, *msg
	copy(m.sig[:], ed)
}

// Keyring holds the public keys of all n clients. All parties (clients
// and the server, if it chose to verify) share the same public keyring.
// Each key is also kept decoded, with the table of its point that batch
// equations use (see Batch).
type Keyring struct {
	pubs []ed25519.PublicKey
	keys []*edwards25519.PublicKey
}

// newKeyring returns the keyring of pubs. It refuses a key that is not
// the encoding of a curve point, or whose point has small order: the
// batch equation is cofactored, and only for keys without a small-order
// part does it decide exactly what ed25519.Verify decides on every
// signature their owners did not craft themselves.
func newKeyring(pubs []ed25519.PublicKey) (*Keyring, error) {
	ring := &Keyring{pubs: pubs, keys: make([]*edwards25519.PublicKey, len(pubs))}
	for i, p := range pubs {
		key, err := edwards25519.NewPublicKey(p)
		if err != nil {
			return nil, fmt.Errorf("crypto: public key %d: %w", i, err)
		}
		ring.keys[i] = key
	}
	return ring, nil
}

// N returns the number of clients the keyring covers.
func (k *Keyring) N() int { return len(k.pubs) }

// Verify checks a signature supposedly issued by client i over the given
// domain-separated payload. Three encodings are accepted, told apart by
// length: a 64-byte signature must be Ed25519 over domain‖payload; a
// PairSigSize- or TripleSigSize-byte one (see SignPair and SignTriple)
// must be Ed25519 over the tree root recomputed from (domain, payload)
// and the path it carries. Verify returns false for out-of-range client
// indices and malformed signatures rather than panicking: in this
// protocol a bad signature is evidence of misbehavior, not a programming
// error.
func (k *Keyring) Verify(i int, sig []byte, domain byte, payload []byte) bool {
	return k.VerifyMemo(nil, i, sig, domain, payload)
}

// VerifyMemo is Verify with a memo: a signature whose recomputed message
// (tree root, or plainKey for a plain signature) and Ed25519 part equal
// what memo last saw verify for client i is accepted without a second
// Ed25519 operation, and a signature verified for real refreshes memo. A
// nil memo always verifies for real.
func (k *Keyring) VerifyMemo(memo *PairMemo, i int, sig []byte, domain byte, payload []byte) bool {
	if i < 0 || i >= len(k.pubs) {
		return false
	}
	switch len(sig) {
	case ed25519.SignatureSize:
		if domain == DomainPair {
			return false // roots are only ever reached through a leaf
		}
		var key [1 + HashSize]byte
		if memo != nil {
			key = plainKey(domain, payload)
			if memo.hit(i, &key, sig) {
				return true
			}
		}
		bp := scratchPool.Get().(*[]byte)
		msg := append((*bp)[:0], domain)
		msg = append(msg, payload...)
		ok := k.verifyEd(i, msg, sig)
		*bp = msg
		scratchPool.Put(bp)
		if ok && memo != nil {
			memo.set(i, &key, sig)
		}
		return ok
	case PairSigSize, TripleSigSize:
		return k.verifyTree(memo, i, sig, domain, payload)
	}
	return false
}

// verifyTree is VerifyMemo for the signature of a leaf one or two levels
// below the root of a signed tree, by an in-range client.
//
//faustlint:hotpath
func (k *Keyring) verifyTree(memo *PairMemo, i int, sig []byte, domain byte, payload []byte) bool {
	msg, ed, ok := treeMessage(sig, domain, payload)
	if !ok {
		return false
	}
	if memo != nil && memo.hit(i, &msg, ed) {
		return true
	}
	if !k.verifyEd(i, msg[:], ed) {
		return false
	}
	if memo != nil {
		memo.set(i, &msg, ed)
	}
	return true
}

// treeMessage returns the message DomainPair‖root that the Ed25519 part
// ed of a tree signature covers, with the root recomputed bottom up from
// the leaf (domain, payload) and the siblings sig carries; bit l of the
// path byte says whether the node at level l is a right child. ok is
// false when the path has bits past the last level.
func treeMessage(sig []byte, domain byte, payload []byte) (msg [1 + HashSize]byte, ed []byte, ok bool) {
	ed, path, siblings := sig[:ed25519.SignatureSize], sig[ed25519.SignatureSize], sig[ed25519.SignatureSize+1:]
	if path>>(len(siblings)/HashSize) != 0 {
		return msg, nil, false
	}
	node := pairLeaf(domain, payload)
	for ; len(siblings) > 0; siblings, path = siblings[HashSize:], path>>1 {
		sibling := (*[HashSize]byte)(siblings)
		if path&1 == 0 {
			node = pairNode(&node, sibling)
		} else {
			node = pairNode(sibling, &node)
		}
	}
	return rootMessage(&node), ed, true
}

// verifyEd is the one place an Ed25519 verification happens, so
// faust_ed25519_verify_ns counts exactly the real ones. Each is one
// equation of its own.
func (k *Keyring) verifyEd(i int, msg, sig []byte) bool {
	start := obs.StartTimer()
	ok := ed25519.Verify(k.pubs[i], msg, sig)
	verifyNs.ObserveSince(start)
	batchNs.ObserveSince(start)
	return ok
}

// GenerateKeyring creates a fresh keyring for n clients with cryptographic
// randomness and returns it together with the n signers.
func GenerateKeyring(n int) (*Keyring, []*Signer, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("crypto: keyring size must be positive, got %d", n)
	}
	pubs := make([]ed25519.PublicKey, n)
	signers := make([]*Signer, n)
	for i := 0; i < n; i++ {
		pub, priv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, nil, fmt.Errorf("crypto: generating key %d: %w", i, err)
		}
		pubs[i] = pub
		signers[i] = &Signer{id: i, key: priv}
	}
	ring, err := newKeyring(pubs)
	if err != nil {
		return nil, nil, err
	}
	return ring, signers, nil
}

// NewTestKeyring creates a deterministic keyring for n clients derived
// from the given seed. It is intended for tests and benchmarks where
// reproducibility matters; the keys are NOT secure.
func NewTestKeyring(n int, seed int64) (*Keyring, []*Signer) {
	if n <= 0 {
		panic(fmt.Sprintf("crypto: test keyring size must be positive, got %d", n))
	}
	rng := mathrand.New(mathrand.NewPCG(uint64(seed), uint64(seed)^0x9e3779b97f4a7c15))
	pubs := make([]ed25519.PublicKey, n)
	signers := make([]*Signer, n)
	for i := 0; i < n; i++ {
		seedBytes := make([]byte, ed25519.SeedSize)
		for j := range seedBytes {
			seedBytes[j] = byte(rng.IntN(256))
		}
		priv := ed25519.NewKeyFromSeed(seedBytes)
		pubs[i] = priv.Public().(ed25519.PublicKey)
		signers[i] = &Signer{id: i, key: priv}
	}
	ring, err := newKeyring(pubs)
	if err != nil {
		panic(err) // ed25519 key generation yields prime-order points only
	}
	return ring, signers
}

// ErrShortBuffer reports a malformed encoded keyring.
var ErrShortBuffer = errors.New("crypto: short buffer decoding keyring")

// MarshalKeyring encodes the public keys for distribution to clients, for
// example over the wire by cmd/faust-server.
func MarshalKeyring(k *Keyring) []byte {
	buf := make([]byte, 4, 4+len(k.pubs)*ed25519.PublicKeySize)
	binary.BigEndian.PutUint32(buf, uint32(len(k.pubs)))
	for _, p := range k.pubs {
		buf = append(buf, p...)
	}
	return buf
}

// UnmarshalKeyring decodes a keyring produced by MarshalKeyring. Like
// the constructors, it refuses a key that does not decode to a curve
// point or whose point has small order.
func UnmarshalKeyring(data []byte) (*Keyring, error) {
	if len(data) < 4 {
		return nil, ErrShortBuffer
	}
	n := int(binary.BigEndian.Uint32(data))
	data = data[4:]
	if n < 0 || len(data) != n*ed25519.PublicKeySize {
		return nil, ErrShortBuffer
	}
	pubs := make([]ed25519.PublicKey, n)
	for i := range pubs {
		key := make([]byte, ed25519.PublicKeySize)
		copy(key, data[i*ed25519.PublicKeySize:])
		pubs[i] = key
	}
	return newKeyring(pubs)
}
