// Package ustor implements USTOR, the weak fork-linearizable untrusted
// storage protocol of Section 5 of the paper (Algorithms 1 and 2).
//
// USTOR emulates n single-writer multi-reader registers X_0..X_{n-1} on an
// untrusted server. When the server is correct the protocol is
// linearizable and wait-free; every operation takes a single round of
// message exchange (SUBMIT -> REPLY) plus an asynchronous COMMIT that only
// expedites garbage collection at the server. When the server is faulty,
// clients either detect an inconsistency (output fail and halt) or their
// views remain weak fork-linearizable — at which point the FAUST layer
// (package faustproto) guarantees eventual detection through offline
// client-to-client version exchange.
package ustor

import (
	"context"
	"fmt"
	"sync"

	"faust/internal/obs/trace"
	"faust/internal/version"
	"faust/internal/wire"
)

// Server is the correct USTOR server of Algorithm 2. It is a pure state
// machine driven by HandleSubmit / HandleCommit; package transport
// serializes the calls, matching the paper's atomic event handlers, but
// the server is additionally safe for concurrent handler calls. The
// server keeps no secrets and verifies nothing — all integrity guarantees
// come from the client-side checks.
//
// # Copy-on-write replies
//
// REPLY messages share memory with server state instead of deep-copying
// it. That is safe because the state is managed copy-on-write:
//
//   - L is append-only between commits. A reply takes a length-and-
//     capacity-capped view (l[:len:len]) of the current tuples; later
//     appends land beyond the view's capacity (or in a new backing array)
//     and existing entries are never mutated in place. A commit that
//     truncates L installs a freshly allocated slice, leaving every view
//     handed out earlier intact.
//   - P is an immutable array: a SUBMIT carrying a PROOF-signature (or a
//     COMMIT from an old log that carries one) installs a new [][]byte
//     with the one entry replaced rather than writing through the old
//     one.
//   - SVER entries and MEM entries are replaced wholesale; the versions
//     and signatures they reference come from received messages, which
//     are immutable once handed to the server.
//
// The one exception is MEM[j] in read replies: its value is handed to
// application code (which may retain or mutate the returned slice), so it
// is still deep-copied — outside the critical section.
//
// gen counts state mutations; tests use it to correlate snapshots.
type Server struct {
	mu sync.Mutex

	n    int
	mem  []wire.MemEntry      // MEM: last timestamp, value, DATA-signature per client
	c    int                  // client who committed the last operation in the schedule
	sver []wire.SignedVersion // SVER: last version and COMMIT-signature per client
	l    []wire.Invocation    // L: invocation tuples of concurrent (uncommitted) operations
	p    [][]byte             // P: PROOF-signatures per client
	gen  uint64               // state generation, bumped on every mutation
}

// compile-time interface check lives in transport tests; avoid the import
// cycle here by asserting locally against the method set.
var _ interface {
	HandleSubmit(ctx context.Context, from int, s *wire.Submit) *wire.Reply
	HandleCommit(ctx context.Context, from int, c *wire.Commit)
} = (*Server)(nil)

// NewServer creates a correct server for n clients. Initially every
// register holds bottom, every version is (0^n, bottom^n), and the "last
// committed" pointer c refers to client 0, whose initial version is zero —
// exactly the initial state of Algorithm 2.
func NewServer(n int) *Server {
	s := &Server{
		n:    n,
		mem:  make([]wire.MemEntry, n),
		sver: make([]wire.SignedVersion, n),
		p:    make([][]byte, n),
	}
	for i := 0; i < n; i++ {
		s.sver[i] = wire.ZeroSignedVersion(n)
	}
	return s
}

// N returns the number of clients.
func (s *Server) N() int { return s.n }

// HandleSubmit implements Algorithm 2 lines 107-116. It updates MEM,
// snapshots the pre-append state of L (so an operation's own tuple is
// never in its REPLY), appends the new invocation tuple, and assembles the
// REPLY from the copy-on-write snapshot outside the critical section —
// HandleSubmit holds the mutex only for a few pointer-sized writes and is
// O(1) allocation regardless of n, plus the one copy of P when the
// SUBMIT carries the PROOF-signature of the client's previous operation,
// which becomes P[from]. A piggybacked COMMIT (Section 5 optimization) is
// processed first, exactly as if it had arrived as its own message.
//
// Keeping P[from] from the SUBMIT rather than the COMMIT departs from
// Algorithm 2 (line 121). A reply shows P[k] only to vouch for k's
// operation in L, and that operation's SUBMIT is the one that set it.
func (s *Server) HandleSubmit(ctx context.Context, from int, m *wire.Submit) *wire.Reply {
	_, span := trace.Child(ctx, "apply")
	defer span.End()
	if m.Piggyback != nil {
		s.HandleCommit(ctx, from, m.Piggyback)
	}
	if from < 0 || from >= s.n {
		return nil
	}
	isRead := m.Inv.Op == wire.OpRead
	j := m.Inv.Reg
	if isRead && (j < 0 || j >= s.n) {
		return nil
	}

	var (
		c    int
		cver wire.SignedVersion
		jver wire.SignedVersion
		mem  wire.MemEntry
	)
	s.mu.Lock()
	if isRead {
		// Reads refresh the timestamp and DATA-signature but keep the
		// stored value (line 110).
		s.mem[from] = wire.MemEntry{T: m.T, Value: s.mem[from].Value, DataSig: m.DataSig}
		jver = s.sver[j]
		mem = s.mem[j]
	} else {
		s.mem[from] = wire.MemEntry{T: m.T, Value: m.Value, DataSig: m.DataSig}
	}
	if m.ProofSig != nil {
		s.setProof(from, m.ProofSig)
	}
	c = s.c
	cver = s.sver[c]
	l := s.l[:len(s.l):len(s.l)] // COW view of the pre-append tuples
	p := s.p                     // immutable COW array
	s.l = append(s.l, m.Inv)
	s.gen++
	s.mu.Unlock()

	reply := &wire.Reply{
		IsRead: isRead,
		C:      c,
		CVer:   cver,
		L:      l,
		P:      p,
		// Advisory echo of the request's trace context (the submit
		// signature covers Inv.Trace; this copy just labels the REPLY).
		Trace: m.Inv.Trace,
	}
	if isRead {
		reply.JVer = jver
		// MEM[j]'s value escapes to application code; deep-copy it, but
		// outside the lock — the entry's byte slices are never mutated in
		// place, only replaced.
		reply.Mem = mem.Clone()
	}
	return reply
}

// HandleCommit implements Algorithm 2 lines 117-123. When the committed
// version exceeds the current maximum, the committer becomes the new
// schedule head and its tuple — plus all earlier tuples — leave L.
// Clients send the PROOF-signature with their next SUBMIT instead, so
// P[from] changes here only for a COMMIT that still carries one: a
// record of a log written before that change.
func (s *Server) HandleCommit(_ context.Context, from int, m *wire.Commit) {
	if from < 0 || from >= s.n {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	vc := s.sver[s.c].Ver
	if version.VectorLess(vc.V, m.Ver.V) {
		s.c = from
		for idx := len(s.l) - 1; idx >= 0; idx-- {
			if s.l[idx].Client == from {
				// COW: install a fresh slice; views of the old L handed out
				// in earlier replies stay intact. Spare room for the
				// SUBMITs that follow spares their appends a reallocation
				// (views are capped at their length, so they never see it).
				rest := s.l[idx+1:]
				s.l = append(make([]wire.Invocation, 0, 2*len(rest)+4), rest...)
				break
			}
		}
	}
	// The message is immutable once received, so its version and signatures
	// can be adopted without cloning.
	s.sver[from] = wire.SignedVersion{Committer: from, Ver: m.Ver, Sig: m.CommitSig}
	if m.ProofSig != nil {
		s.setProof(from, m.ProofSig)
	}
	s.gen++
}

// setProof installs psi as P[from]. Replies alias P, so it replaces the
// array instead of writing through. Caller holds s.mu.
func (s *Server) setProof(from int, psi []byte) {
	newP := make([][]byte, s.n)
	copy(newP, s.p)
	newP[from] = psi
	s.p = newP
}

// ExportState serializes the server's complete state (MEM, c, SVER, L, P)
// with the canonical wire.ServerState encoding. Together with
// RestoreState it makes the server snapshottable: because the server is a
// deterministic state machine, restoring a snapshot and replaying the
// SUBMIT/COMMIT messages received afterwards reproduces the state exactly.
// Package store builds its WAL + snapshot persistence on this pair.
func (s *Server) ExportState() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return wire.EncodeServerState(&wire.ServerState{
		N:    s.n,
		C:    s.c,
		Mem:  s.mem,
		Sver: s.sver,
		L:    s.l,
		P:    s.p,
	})
}

// RestoreState replaces the server's state with a previously exported one.
// The snapshot's dimension must match the server's n.
func (s *Server) RestoreState(data []byte) error {
	st, err := wire.DecodeServerState(data)
	if err != nil {
		return fmt.Errorf("ustor: decoding server state: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.N != s.n {
		return fmt.Errorf("ustor: snapshot is for %d clients, server has %d", st.N, s.n)
	}
	s.mem = st.Mem
	s.c = st.C
	s.sver = st.Sver
	s.l = st.L
	s.p = st.P
	s.gen++
	return nil
}

// Generation returns the state-mutation counter. Every HandleSubmit,
// HandleCommit and RestoreState bumps it; tests use it to correlate reply
// snapshots with server state.
func (s *Server) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// PendingOps returns the current length of L, i.e. the number of
// submitted-but-uncommitted operations the server tracks. Exposed for
// tests and the garbage-collection experiment.
func (s *Server) PendingOps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.l)
}
