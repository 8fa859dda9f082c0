// Package wire defines the message types exchanged by the USTOR and FAUST
// protocols and a canonical, deterministic binary codec for them.
//
// USTOR (client <-> server, Algorithms 1 and 2):
//
//	SUBMIT  carries the operation's timestamp, invocation tuple, the new
//	        value (writes only) and the DATA-signature.
//	REPLY   carries the index c of the last committed operation's client,
//	        the signed version SVER[c], the list L of invocation tuples of
//	        concurrent operations, the PROOF-signature array P and, for
//	        reads, SVER[j] and MEM[j] for the requested register j.
//	COMMIT  carries the client's new version with COMMIT- and
//	        PROOF-signatures.
//
// FAUST (client <-> client over the offline channel, Section 6):
//
//	PROBE    asks a client for the maximal version it knows.
//	VERSION  carries a signed version in response to a probe (or
//	         proactively).
//	FAILURE  announces a detected server failure, optionally with
//	         verifiable evidence (a pair of incomparable signed versions).
//
// The codec is used verbatim over TCP and for the communication-overhead
// experiments (E6); the in-memory transport moves decoded messages but
// reports their encoded size.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"faust/internal/version"
)

// OpCode identifies the kind of a storage operation.
type OpCode uint8

// Operation codes. Values start at one so the zero value is invalid.
const (
	OpRead OpCode = iota + 1
	OpWrite
)

// String returns the paper's name for the opcode.
func (o OpCode) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	default:
		return fmt.Sprintf("OpCode(%d)", uint8(o))
	}
}

// Kind tags the wire messages.
type Kind uint8

// Message kinds. Values start at one so the zero value is invalid.
const (
	KindSubmit Kind = iota + 1
	KindReply
	KindCommit
	KindProbe
	KindVersion
	KindFailure
)

// Message is implemented by every protocol message.
type Message interface {
	// MsgKind returns the message's tag.
	MsgKind() Kind
	// encodeBody appends the message body (without the kind tag) to buf.
	encodeBody(buf []byte) []byte
}

// Invocation is the invocation tuple (i, oc, j, sigma) of Algorithm 1: the
// invoking client, the opcode, the register index and the
// SUBMIT-signature. Trace optionally carries the operation's
// distributed-tracing context; it is covered by the SUBMIT-signature
// (see AppendSubmitPayload) and echoed verbatim in REPLY.L, so
// verifiers of pending operations recompute the identical payload.
type Invocation struct {
	Client    int
	Op        OpCode
	Reg       int
	SubmitSig []byte
	Trace     *TraceCtx
}

// SignedVersion pairs a version with the COMMIT-signature of the client
// that committed it. A zero version carries Committer == -1 and no
// signature.
type SignedVersion struct {
	Committer int
	Ver       version.Version
	Sig       []byte
}

// ZeroSignedVersion returns the unsigned initial version for n clients.
func ZeroSignedVersion(n int) SignedVersion {
	return SignedVersion{Committer: -1, Ver: version.New(n)}
}

// Clone returns a deep copy.
func (sv SignedVersion) Clone() SignedVersion {
	c := SignedVersion{Committer: sv.Committer, Ver: sv.Ver.Clone()}
	if sv.Sig != nil {
		c.Sig = append([]byte(nil), sv.Sig...)
	}
	return c
}

// MemEntry is the server's MEM[j] record: the last timestamp, register
// value and DATA-signature received from client C_j. Value == nil encodes
// the initial bottom value.
type MemEntry struct {
	T       int64
	Value   []byte
	DataSig []byte
}

// Clone returns a deep copy. Nil and empty byte strings stay distinct: a
// nil Value is the paper's bottom while an empty one is a present
// zero-length register value, and collapsing the latter to nil would
// make honest empty values fail the reader's DATA-signature check.
func (m MemEntry) Clone() MemEntry {
	c := MemEntry{T: m.T}
	if m.Value != nil {
		c.Value = make([]byte, len(m.Value))
		copy(c.Value, m.Value)
	}
	if m.DataSig != nil {
		c.DataSig = append([]byte(nil), m.DataSig...)
	}
	return c
}

// Submit is the SUBMIT message of Algorithm 1 (lines 15 and 27).
type Submit struct {
	T       int64      // the operation's timestamp
	Inv     Invocation // invocation tuple (i, oc, j, sigma)
	Value   []byte     // new register value; nil for reads
	DataSig []byte     // DATA-signature delta on (t, xbar)
	// Piggyback optionally carries the COMMIT message of the client's
	// previous operation, realizing the optimization of Section 5 ("this
	// message can be eliminated by piggybacking its contents on the
	// SUBMIT message of the next operation"). The server processes it
	// before the submit, preserving FIFO semantics.
	Piggyback *Commit
	// ProofSig is the PROOF-signature psi on M[i] of the client's
	// previous operation, signed in one tree with this operation's sigma
	// and delta; nil on a client's first operation. The server stores it
	// as P[i] (Algorithm 2 keeps P[i] from the COMMIT instead). A flags
	// byte says which of Piggyback and ProofSig follow, so a SUBMIT
	// without ProofSig encodes as it did when that byte was the piggyback
	// bool.
	ProofSig []byte
}

// Submit flags: the optional sections that follow a SUBMIT's fixed
// fields, in this order.
const (
	submitPiggyback byte = 1 << iota
	submitProof
)

// Reply is the REPLY message of Algorithm 2 (lines 111 and 114). For
// write operations JVer and Mem are absent (IsRead == false). Trace
// optionally echoes the SUBMIT's trace context back with the server's
// root span, letting the client link the server-side subtree; it is
// advisory (the server signs nothing) and never influences protocol
// state.
type Reply struct {
	IsRead bool
	C      int           // client who committed the last scheduled operation
	CVer   SignedVersion // SVER[c]
	JVer   SignedVersion // SVER[j], reads only
	Mem    MemEntry      // MEM[j], reads only
	L      []Invocation  // invocation tuples of concurrent operations
	P      [][]byte      // PROOF-signatures, indexed by client; nil = bottom
	Trace  *TraceCtx
}

// Clone returns a deep copy of the reply sharing no memory with the
// original. The correct server hands out copy-on-write snapshots that
// must never be written through; wrappers that deliberately mutate
// replies (byzantine.ReplyTamperServer) clone first.
func (rp *Reply) Clone() *Reply {
	c := &Reply{
		IsRead: rp.IsRead,
		C:      rp.C,
		CVer:   rp.CVer.Clone(),
		JVer:   rp.JVer.Clone(),
		Mem:    rp.Mem.Clone(),
	}
	if rp.L != nil {
		c.L = make([]Invocation, len(rp.L))
		for i, inv := range rp.L {
			c.L[i] = inv
			c.L[i].SubmitSig = append([]byte(nil), inv.SubmitSig...)
			c.L[i].Trace = inv.Trace.Clone()
		}
	}
	if rp.P != nil {
		c.P = make([][]byte, len(rp.P))
		for i, p := range rp.P {
			if p != nil {
				c.P[i] = append([]byte(nil), p...)
			}
		}
	}
	c.Trace = rp.Trace.Clone()
	return c
}

// Commit is the COMMIT message of Algorithm 1 (lines 19 and 32).
type Commit struct {
	Ver       version.Version
	CommitSig []byte // phi on the version
	// ProofSig is psi on M[i]. Clients now send it with their next
	// SUBMIT (Submit.ProofSig) and leave it nil here; a non-nil one comes
	// from a log written before that change, and the server still keeps
	// it as P[i].
	ProofSig []byte
}

// Probe is FAUST's offline PROBE message.
type Probe struct {
	From int
}

// VersionMsg is FAUST's offline VERSION message carrying the maximal
// version the sender knows (not necessarily committed by the sender).
type VersionMsg struct {
	From int
	SV   SignedVersion
}

// Failure is FAUST's offline FAILURE message. When the detection was
// triggered by incomparable versions, Evidence carries the two signed
// versions so that receivers can independently verify server misbehavior.
type Failure struct {
	From        int
	HasEvidence bool
	EvidenceA   SignedVersion
	EvidenceB   SignedVersion
}

// MsgKind implementations.
func (*Submit) MsgKind() Kind     { return KindSubmit }
func (*Reply) MsgKind() Kind      { return KindReply }
func (*Commit) MsgKind() Kind     { return KindCommit }
func (*Probe) MsgKind() Kind      { return KindProbe }
func (*VersionMsg) MsgKind() Kind { return KindVersion }
func (*Failure) MsgKind() Kind    { return KindFailure }

// Interface compliance checks.
var (
	_ Message = (*Submit)(nil)
	_ Message = (*Reply)(nil)
	_ Message = (*Commit)(nil)
	_ Message = (*Probe)(nil)
	_ Message = (*VersionMsg)(nil)
	_ Message = (*Failure)(nil)
)

// Signing payloads. These are the exact byte strings covered by the four
// signature kinds of Algorithm 1, rendered canonically.

// SubmitPayload is the payload of the SUBMIT-signature:
// opcode || register || timestamp || trace context.
func SubmitPayload(op OpCode, reg int, t int64, tr *TraceCtx) []byte {
	return AppendSubmitPayload(nil, op, reg, t, tr)
}

// AppendSubmitPayload appends the SUBMIT-signature payload to buf and
// returns the extended slice. The hot path reuses a scratch buffer instead
// of allocating per signature. The trace context is part of the signed
// payload: it travels inside the invocation tuple, so verifiers of
// pending operations (REPLY.L) hold exactly the fields the signer
// covered, and a server cannot reassign a trace to another operation
// behind a valid signature.
func AppendSubmitPayload(buf []byte, op OpCode, reg int, t int64, tr *TraceCtx) []byte {
	buf = append(buf, byte(op))
	buf = appendU32(buf, uint32(reg))
	buf = appendI64(buf, t)
	return appendTracePayload(buf, tr)
}

// DataPayload is the payload of the DATA-signature: timestamp || xbar,
// where xbar is the hash of the signer's most recently written value or
// nil (bottom) if it never wrote. Bottom and present hashes encode
// distinctly.
func DataPayload(t int64, xbar []byte) []byte {
	return AppendDataPayload(nil, t, xbar)
}

// AppendDataPayload appends the DATA-signature payload to buf and returns
// the extended slice.
func AppendDataPayload(buf []byte, t int64, xbar []byte) []byte {
	buf = appendI64(buf, t)
	if xbar == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	return append(buf, xbar...)
}

// CommitPayload is the payload of the COMMIT-signature: the canonical
// encoding of the version.
func CommitPayload(v version.Version) []byte { return v.CanonicalBytes() }

// AppendCommitPayload appends the COMMIT-signature payload to buf and
// returns the extended slice.
func AppendCommitPayload(buf []byte, v version.Version) []byte {
	return v.AppendCanonical(buf)
}

// ProofPayload is the payload of the PROOF-signature: the digest M[i].
func ProofPayload(m []byte) []byte { return m }

// Codec. Values are encoded big-endian; byte strings carry a u32 length
// with the sentinel 0xFFFFFFFF for nil (bottom).

const nilSentinel = ^uint32(0)

// ErrCodec reports a malformed encoded message.
var ErrCodec = errors.New("wire: malformed message")

func appendU8(buf []byte, v uint8) []byte { return append(buf, v) }

func appendU32(buf []byte, v uint32) []byte {
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], v)
	return append(buf, tmp[:]...)
}

func appendI64(buf []byte, v int64) []byte {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(v))
	return append(buf, tmp[:]...)
}

func appendBytes(buf, b []byte) []byte {
	if b == nil {
		return appendU32(buf, nilSentinel)
	}
	buf = appendU32(buf, uint32(len(b)))
	return append(buf, b...)
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// appendString encodes a string as u32 length + bytes. Unlike
// appendBytes there is no nil sentinel: Go strings have no nil/empty
// distinction, so giving them one on the wire would create two
// encodings of "" and break canonical round-trips.
func appendString(buf []byte, s string) []byte {
	buf = appendU32(buf, uint32(len(s)))
	return append(buf, s...)
}

func appendVersion(buf []byte, v version.Version) []byte {
	buf = appendU32(buf, uint32(len(v.V)))
	for _, t := range v.V {
		buf = appendI64(buf, t)
	}
	for _, d := range v.M {
		buf = appendBytes(buf, d)
	}
	return buf
}

func appendSignedVersion(buf []byte, sv SignedVersion) []byte {
	buf = appendU32(buf, uint32(int32(sv.Committer)))
	buf = appendVersion(buf, sv.Ver)
	return appendBytes(buf, sv.Sig)
}

func appendInvocation(buf []byte, inv Invocation) []byte {
	buf = appendU32(buf, uint32(inv.Client))
	buf = appendU8(buf, uint8(inv.Op))
	buf = appendU32(buf, uint32(inv.Reg))
	buf = appendBytes(buf, inv.SubmitSig)
	return appendTraceCtx(buf, inv.Trace)
}

func appendMemEntry(buf []byte, m MemEntry) []byte {
	buf = appendI64(buf, m.T)
	buf = appendBytes(buf, m.Value)
	return appendBytes(buf, m.DataSig)
}

// reader decodes with sticky error handling.
type reader struct {
	data []byte
	err  error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrCodec
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || len(r.data) < 1 {
		r.fail()
		return 0
	}
	v := r.data[0]
	r.data = r.data[1:]
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || len(r.data) < 4 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.data)
	r.data = r.data[4:]
	return v
}

func (r *reader) i64() int64 {
	if r.err != nil || len(r.data) < 8 {
		r.fail()
		return 0
	}
	v := int64(binary.BigEndian.Uint64(r.data))
	r.data = r.data[8:]
	return v
}

// bytes returns the next length-prefixed byte string as a sub-slice of the
// input buffer — no allocation, no copy — with its capacity capped at its
// length, so a holder that appends cannot run into the next field. See
// Decode for the ownership contract.
//
//faustlint:hotpath
func (r *reader) bytes() []byte {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if n == nilSentinel {
		return nil
	}
	if uint32(len(r.data)) < n {
		r.fail()
		return nil
	}
	out := r.data[:n:n]
	r.data = r.data[n:]
	return out
}

// value decodes a register value, the one field copied out of the input
// buffer (see Decode). Nil (bottom) and empty stay distinct.
func (r *reader) value() []byte {
	b := r.bytes()
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// bool accepts exactly 0 or 1. Any other byte is rejected so that every
// accepted frame has a single canonical encoding — a forwarder that
// re-encodes a message must produce the very bytes that were signed.
func (r *reader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail()
		return false
	}
}

// str decodes an appendString value. The nil sentinel is rejected: ""
// has exactly one encoding (length 0).
func (r *reader) str() string {
	n := r.u32()
	if r.err != nil || n == nilSentinel {
		r.fail()
		return ""
	}
	if uint32(len(r.data)) < n {
		r.fail()
		return ""
	}
	out := string(r.data[:n])
	r.data = r.data[n:]
	return out
}

// maxVectorLen bounds decoded vector sizes to keep a malicious peer from
// forcing huge allocations.
const maxVectorLen = 1 << 20

func (r *reader) version() version.Version {
	n := r.u32()
	if r.err != nil || n > maxVectorLen {
		r.fail()
		return version.Version{}
	}
	v := version.New(int(n))
	for i := range v.V {
		v.V[i] = r.i64()
	}
	for i := range v.M {
		v.M[i] = r.bytes()
	}
	return v
}

func (r *reader) signedVersion() SignedVersion {
	var sv SignedVersion
	sv.Committer = int(int32(r.u32()))
	sv.Ver = r.version()
	sv.Sig = r.bytes()
	return sv
}

func (r *reader) invocation() Invocation {
	var inv Invocation
	inv.Client = int(r.u32())
	inv.Op = OpCode(r.u8())
	inv.Reg = int(r.u32())
	inv.SubmitSig = r.bytes()
	inv.Trace = r.traceCtx()
	return inv
}

func (r *reader) memEntry() MemEntry {
	var m MemEntry
	m.T = r.i64()
	m.Value = r.value()
	m.DataSig = r.bytes()
	return m
}

func (s *Submit) encodeBody(buf []byte) []byte {
	buf = appendI64(buf, s.T)
	buf = appendInvocation(buf, s.Inv)
	buf = appendBytes(buf, s.Value)
	buf = appendBytes(buf, s.DataSig)
	var flags byte
	if s.Piggyback != nil {
		flags |= submitPiggyback
	}
	if s.ProofSig != nil {
		flags |= submitProof
	}
	buf = appendU8(buf, flags)
	if s.Piggyback != nil {
		buf = s.Piggyback.encodeBody(buf)
	}
	if s.ProofSig != nil {
		buf = appendBytes(buf, s.ProofSig)
	}
	return buf
}

func (rp *Reply) encodeBody(buf []byte) []byte {
	buf = appendBool(buf, rp.IsRead)
	buf = appendU32(buf, uint32(rp.C))
	buf = appendSignedVersion(buf, rp.CVer)
	if rp.IsRead {
		buf = appendSignedVersion(buf, rp.JVer)
		buf = appendMemEntry(buf, rp.Mem)
	}
	buf = appendU32(buf, uint32(len(rp.L)))
	for _, inv := range rp.L {
		buf = appendInvocation(buf, inv)
	}
	buf = appendU32(buf, uint32(len(rp.P)))
	for _, p := range rp.P {
		buf = appendBytes(buf, p)
	}
	return appendTraceCtx(buf, rp.Trace)
}

func (c *Commit) encodeBody(buf []byte) []byte {
	buf = appendVersion(buf, c.Ver)
	buf = appendBytes(buf, c.CommitSig)
	return appendBytes(buf, c.ProofSig)
}

func (p *Probe) encodeBody(buf []byte) []byte {
	return appendU32(buf, uint32(p.From))
}

func (v *VersionMsg) encodeBody(buf []byte) []byte {
	buf = appendU32(buf, uint32(v.From))
	return appendSignedVersion(buf, v.SV)
}

func (f *Failure) encodeBody(buf []byte) []byte {
	buf = appendU32(buf, uint32(f.From))
	buf = appendBool(buf, f.HasEvidence)
	if f.HasEvidence {
		buf = appendSignedVersion(buf, f.EvidenceA)
		buf = appendSignedVersion(buf, f.EvidenceB)
	}
	return buf
}

// Encode serializes a message with its kind tag.
func Encode(m Message) []byte {
	buf := make([]byte, 0, 128)
	buf = append(buf, byte(m.MsgKind()))
	return m.encodeBody(buf)
}

// AppendEncode appends the canonical encoding (kind tag + body) to buf and
// returns the extended slice. Combined with GetBuffer/PutBuffer it makes
// serialization allocation-free on the steady path; transports and the WAL
// use it to frame messages directly into reusable buffers.
func AppendEncode(buf []byte, m Message) []byte {
	buf = append(buf, byte(m.MsgKind()))
	return m.encodeBody(buf)
}

// bufPool recycles encoding scratch buffers. Stored as *[]byte so the
// slice header itself does not allocate on Put.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// GetBuffer borrows a zero-length scratch buffer from the codec pool.
// Return it with PutBuffer when the encoded bytes are no longer referenced.
func GetBuffer() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuffer returns a scratch buffer to the codec pool.
func PutBuffer(b *[]byte) {
	*b = (*b)[:0]
	bufPool.Put(b)
}

// EncodedSize returns the length in bytes of the canonical encoding. The
// communication-overhead experiment uses it to measure per-message cost;
// it encodes into a pooled scratch buffer, so the measurement itself does
// not allocate.
func EncodedSize(m Message) int {
	buf := GetBuffer()
	*buf = AppendEncode((*buf)[:0], m) // keep any growth for the pool
	n := len(*buf)
	PutBuffer(buf)
	return n
}

// Decode parses a message produced by Encode. Trailing garbage is
// rejected.
//
// Ownership: Decode takes over data. The returned message aliases it —
// signatures, digests, hashes, blob payloads and every M[i] of a version
// are capacity-capped sub-slices of data, not copies — so the caller must
// never write to or reuse the buffer: hand Decode one that was read for
// this message alone. The single exception is register values
// (Submit.Value, MemEntry.Value, the lock-step values), which are copied:
// they escape to applications and into long-lived server state and must
// not pin a frame. Anything else a holder retains pins at most the one
// frame it arrived in.
func Decode(data []byte) (Message, error) {
	if len(data) < 1 {
		return nil, ErrCodec
	}
	kind := Kind(data[0])
	r := &reader{data: data[1:]}
	var m Message
	switch kind {
	case KindSubmit:
		s := &Submit{}
		s.T = r.i64()
		s.Inv = r.invocation()
		s.Value = r.value()
		s.DataSig = r.bytes()
		flags := r.u8()
		if flags&^(submitPiggyback|submitProof) != 0 {
			r.fail()
		}
		if flags&submitPiggyback != 0 {
			c := &Commit{}
			c.Ver = r.version()
			c.CommitSig = r.bytes()
			c.ProofSig = r.bytes()
			s.Piggyback = c
		}
		if flags&submitProof != 0 {
			// A set flag with the nil sentinel would re-encode without it.
			if s.ProofSig = r.bytes(); s.ProofSig == nil {
				r.fail()
			}
		}
		m = s
	case KindReply:
		rp := &Reply{}
		rp.IsRead = r.bool()
		rp.C = int(r.u32())
		rp.CVer = r.signedVersion()
		if rp.IsRead {
			rp.JVer = r.signedVersion()
			rp.Mem = r.memEntry()
		}
		nl := r.u32()
		if r.err == nil && nl <= maxVectorLen {
			rp.L = make([]Invocation, nl)
			for i := range rp.L {
				rp.L[i] = r.invocation()
			}
		} else {
			r.fail()
		}
		np := r.u32()
		if r.err == nil && np <= maxVectorLen {
			rp.P = make([][]byte, np)
			for i := range rp.P {
				rp.P[i] = r.bytes()
			}
		} else {
			r.fail()
		}
		rp.Trace = r.traceCtx()
		m = rp
	case KindCommit:
		c := &Commit{}
		c.Ver = r.version()
		c.CommitSig = r.bytes()
		c.ProofSig = r.bytes()
		m = c
	case KindProbe:
		p := &Probe{}
		p.From = int(r.u32())
		m = p
	case KindVersion:
		v := &VersionMsg{}
		v.From = int(r.u32())
		v.SV = r.signedVersion()
		m = v
	case KindFailure:
		f := &Failure{}
		f.From = int(r.u32())
		f.HasEvidence = r.bool()
		if f.HasEvidence {
			f.EvidenceA = r.signedVersion()
			f.EvidenceB = r.signedVersion()
		}
		m = f
	case KindLSSubmit, KindLSReply, KindLSCommit:
		m = decodeLockstep(kind, r)
		if m == nil {
			return nil, ErrCodec
		}
	case KindBlobPut, KindBlobAck, KindBlobGet, KindBlobData:
		m = decodeBlob(kind, r)
		if m == nil {
			return nil, ErrCodec
		}
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCodec, kind)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(r.data))
	}
	return m, nil
}
