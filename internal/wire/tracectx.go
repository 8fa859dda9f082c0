package wire

// Trace context propagation.
//
// A TraceCtx is the wire form of a distributed-tracing context
// (internal/obs/trace): the 128-bit trace ID minted by the client for
// one operation, the 64-bit span the receiver's work should parent
// under, and a flags byte whose low bit carries the sender's
// head-sampling decision so the receiving process retains exactly the
// traces its clients chose to keep.
//
// The field is optional everywhere it appears (Invocation, Reply and
// the four blob messages) and encodes behind a presence bool: one
// strictly-validated 0/1 byte followed, when present, by a fixed-width
// body. Fixed width plus the
// strict bool keeps the codec canonical — there is exactly one byte
// string for every decoded value, which FuzzWireDecode pins.
//
// Signature coverage: a TraceCtx carried by an Invocation is covered by
// that invocation's SUBMIT-signature (AppendSubmitPayload), and since
// the server echoes pending invocations verbatim in REPLY.L, verifiers
// recompute the same payload from the same fields — a server that
// tampers with a traced invocation's context breaks the signature just
// as it would by touching the opcode. The Reply and blob-message trace
// fields are advisory observability metadata on channels that carry no
// server signatures by design (the server holds no keys; blobs are
// content-addressed), so tampering there can corrupt traces but never
// state.

// TraceFlagKeep marks a trace the sender decided to retain.
const TraceFlagKeep uint8 = 1

// TraceCtx is an optional trace context attached to a message.
type TraceCtx struct {
	ID    [16]byte // 128-bit trace ID
	Span  uint64   // sender-side parent span
	Flags uint8
}

// Clone returns a copy (TraceCtx is a value; this exists for the
// pointer-field deep copies in Reply.Clone).
func (t *TraceCtx) Clone() *TraceCtx {
	if t == nil {
		return nil
	}
	c := *t
	return &c
}

// appendTraceCtx encodes the optional trace context: presence bool,
// then the fixed 25-byte body.
func appendTraceCtx(buf []byte, t *TraceCtx) []byte {
	if t == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = append(buf, t.ID[:]...)
	buf = appendI64(buf, int64(t.Span))
	return append(buf, t.Flags)
}

// appendTracePayload appends the trace context to a signing payload in
// the same canonical form the codec uses, so signer and verifier agree
// byte for byte.
func appendTracePayload(buf []byte, t *TraceCtx) []byte {
	return appendTraceCtx(buf, t)
}

// traceCtx decodes an optional trace context.
func (r *reader) traceCtx() *TraceCtx {
	if !r.bool() {
		return nil
	}
	t := &TraceCtx{}
	if r.err != nil || len(r.data) < 16 {
		r.fail()
		return nil
	}
	copy(t.ID[:], r.data[:16])
	r.data = r.data[16:]
	t.Span = uint64(r.i64())
	t.Flags = r.u8()
	if r.err != nil {
		return nil
	}
	return t
}
