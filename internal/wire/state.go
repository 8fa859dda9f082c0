package wire

// ServerState is the complete state of the USTOR server of Algorithm 2:
// MEM, the last-committed pointer c, SVER, the concurrent-operation list L
// and the PROOF-signature array P. The persistence subsystem (package
// store) snapshots it to disk and restores it on recovery; the canonical
// encoding below is the snapshot payload.
//
// The server is untrusted, so nothing here is secret and nothing needs to
// be authenticated at rest: a snapshot altered by an attacker is just one
// more way for the server to lie, and the client-side checks of
// Algorithm 1 catch it exactly as they catch a lying live server.
type ServerState struct {
	N    int             // number of clients (registers)
	C    int             // client who committed the last scheduled operation
	Mem  []MemEntry      // MEM, n entries
	Sver []SignedVersion // SVER, n entries
	L    []Invocation    // invocation tuples of uncommitted operations
	P    [][]byte        // PROOF-signatures, n entries; nil = bottom
}

// stateSize computes the exact encoded size of st so EncodeServerState can
// build the snapshot in a single allocation — snapshots of a busy server
// are the largest payloads the system produces, and growing the buffer
// doubling-by-doubling copies the whole state O(log n) times.
func stateSize(st *ServerState) int {
	size := 4 + 4 // n, c
	for _, m := range st.Mem {
		size += 8 + 4 + len(m.Value) + 4 + len(m.DataSig)
	}
	for _, sv := range st.Sver {
		size += 4 + 4 + 8*len(sv.Ver.V) // committer, vector length, V
		for _, d := range sv.Ver.M {
			size += 4 + len(d)
		}
		size += 4 + len(sv.Sig)
	}
	size += 4 // len(L)
	for _, inv := range st.L {
		size += 4 + 1 + 4 + 4 + len(inv.SubmitSig)
	}
	for _, p := range st.P {
		size += 4 + len(p)
	}
	return size
}

// EncodeServerState renders the state canonically:
// n || c || MEM[0..n-1] || SVER[0..n-1] || len(L) || L || P[0..n-1].
func EncodeServerState(st *ServerState) []byte {
	buf := make([]byte, 0, stateSize(st))
	buf = appendU32(buf, uint32(st.N))
	buf = appendU32(buf, uint32(int32(st.C)))
	for _, m := range st.Mem {
		buf = appendMemEntry(buf, m)
	}
	for _, sv := range st.Sver {
		buf = appendSignedVersion(buf, sv)
	}
	buf = appendU32(buf, uint32(len(st.L)))
	for _, inv := range st.L {
		buf = appendInvocation(buf, inv)
	}
	for _, p := range st.P {
		buf = appendBytes(buf, p)
	}
	return buf
}

// DecodeServerState parses an encoding produced by EncodeServerState.
// Trailing garbage is rejected. Like Decode it takes over data: the
// returned state aliases the buffer everywhere but in the register values
// (which are copied), so a restored server pins at most the one snapshot
// it booted from until its entries have been replaced by live traffic.
func DecodeServerState(data []byte) (*ServerState, error) {
	r := &reader{data: data}
	n := r.u32()
	if r.err != nil || n == 0 || n > maxVectorLen {
		return nil, ErrCodec
	}
	st := &ServerState{N: int(n)}
	st.C = int(int32(r.u32()))
	st.Mem = make([]MemEntry, n)
	for i := range st.Mem {
		st.Mem[i] = r.memEntry()
	}
	st.Sver = make([]SignedVersion, n)
	for i := range st.Sver {
		st.Sver[i] = r.signedVersion()
	}
	nl := r.u32()
	if r.err != nil || nl > maxVectorLen {
		return nil, ErrCodec
	}
	st.L = make([]Invocation, nl)
	for i := range st.L {
		st.L[i] = r.invocation()
	}
	st.P = make([][]byte, n)
	for i := range st.P {
		st.P[i] = r.bytes()
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.data) != 0 {
		return nil, ErrCodec
	}
	if st.C < 0 || st.C >= st.N {
		return nil, ErrCodec
	}
	return st, nil
}
