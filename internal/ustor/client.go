package ustor

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"faust/internal/crypto"
	"faust/internal/obs"
	"faust/internal/obs/trace"
	"faust/internal/transport"
	"faust/internal/version"
	"faust/internal/wire"
)

// Span names of the client-side operation stages. Static constants: the
// record path never formats (hotpathalloc).
const (
	spanWrite  = "write"
	spanRead   = "read"
	spanSign   = "sign"
	spanRPC    = "rpc"
	spanVerify = "verify"
)

// ErrHalted is returned by every operation after the client has detected
// server misbehavior and halted ("outputs fail_i ... and halts").
var ErrHalted = errors.New("ustor: client halted after failure detection")

// DetectionError reports which of Algorithm 1's checks exposed the server.
// It is the payload of the fail_i output action.
type DetectionError struct {
	Client int    // detecting client
	Check  string // which protocol check failed, in the paper's terms
}

// Error implements error.
func (e *DetectionError) Error() string {
	return fmt.Sprintf("ustor: client %d detected faulty server: %s", e.Client, e.Check)
}

// OpResult is the extended part of a completed operation's response: the
// version the operation committed (with its COMMIT-signature) and the
// operation's timestamp t = V[i]. The FAUST layer consumes both.
type OpResult struct {
	Version   wire.SignedVersion
	Timestamp int64
}

// ReadResult extends OpResult for reads with the returned register value
// and the writer's signed version SVER[j] from the REPLY.
// WriterTimestamp is the timestamp t_j of the returned value — the
// reply's MEM[j].T, which the line 51 check pins to V[j] as of this
// operation (0 for a never-written register). Cache layers use it to
// tag values with exactly the version they were read at, immune to
// concurrent operations on the same client.
type ReadResult struct {
	OpResult
	Value           []byte
	WriterVersion   wire.SignedVersion
	WriterTimestamp int64
}

// Client is the USTOR client of Algorithm 1. A Client executes operations
// sequentially (concurrent calls are serialized internally, matching the
// well-formedness assumption of the model). It is wait-free as long as
// the server responds: an operation performs exactly one SUBMIT -> REPLY
// round and never waits for other clients.
type Client struct {
	id     int
	n      int
	signer *crypto.Signer
	ring   *crypto.Keyring
	onFail func(error)
	events *obs.EventLog // protocol event sink for detections

	// The link has its own lock: Close must be callable while an
	// operation blocks in link.Recv holding c.mu, and Rebind must not
	// race either of them.
	linkMu sync.Mutex
	link   transport.Link

	mu        sync.Mutex
	xbar      []byte          // hash of the most recently written value; nil = bottom
	ver       version.Version // (V_i, M_i)
	failed    bool
	reason    error
	piggyback bool
	pending   *wire.Commit // deferred COMMIT awaiting the next SUBMIT

	// Scratch buffers for signature payloads and value hashes, reused
	// across operations (guarded by mu). They keep the steady-state
	// operation path free of per-call allocations; everything that escapes
	// into a message or result is still freshly allocated or cloned.
	// payloadB holds the DATA payload of a SUBMIT being signed; readHash
	// the hash of a value being read (hash backs xbar and must survive).
	payload, payloadB []byte
	hash, readHash    []byte

	// memo[k] remembers, per signing point, the last message of client k
	// known to carry k's valid signature (see crypto.PairMemo). A SUBMIT
	// signs one tree over (SUBMIT, DATA) and the PROOF of k's previous
	// operation, so whichever of the three a reply shows first pays the
	// Ed25519 verification for all; a COMMIT signs the COMMIT-signature
	// alone. The client's own signatures enter at signing time. The
	// submit memos are guarded by mu, the commit memos by memoMu.
	memo []pairMemos

	// memoMu guards every memo[k].commit and commitBuf, the payload
	// scratch of VerifyVersion. It is not mu: an operation holds mu while
	// it waits for a silent server, and the FAUST layer checks VERSION
	// messages and FAILURE evidence through these memos from its offline
	// receive loop, which must keep running exactly then (Section 6).
	memoMu    sync.Mutex
	commitBuf []byte

	// batch holds the signatures of the REPLY being checked that no memo
	// vouches for, and batchChecks[i] the check that fails if batch
	// check i does not verify (guarded by mu; see settle).
	batch       crypto.Batch
	batchChecks []string
}

type pairMemos struct{ submit, commit crypto.PairMemo }

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithFailHandler registers a callback invoked exactly once when the
// client detects server misbehavior (the fail_i output action). The
// callback runs on the operation's goroutine before the operation returns.
func WithFailHandler(f func(error)) ClientOption {
	return func(c *Client) { c.onFail = f }
}

// WithEventLog redirects the client's protocol events (fork-detected,
// rollback-detected) from the process-wide default log to the given one.
// Tests use it to observe one client cluster in isolation; the FAUST layer
// uses it to gather USTOR detections and its own notifications in a single
// log.
func WithEventLog(l *obs.EventLog) ClientOption {
	return func(c *Client) { c.events = l }
}

// WithCommitPiggyback enables the Section 5 optimization: instead of
// sending a separate COMMIT message after each operation, the COMMIT is
// attached to the next operation's SUBMIT, halving the client's message
// count. The protocol is unchanged otherwise — the client's operations
// merely stay in the server's concurrent list L a little longer. Call
// Flush before abandoning the client to deliver the final COMMIT.
func WithCommitPiggyback() ClientOption {
	return func(c *Client) { c.piggyback = true }
}

// NewClient creates the USTOR client for client index id out of ring.N()
// clients, communicating over link.
func NewClient(id int, ring *crypto.Keyring, signer *crypto.Signer, link transport.Link, opts ...ClientOption) *Client {
	c := &Client{
		id:     id,
		n:      ring.N(),
		signer: signer,
		ring:   ring,
		link:   link,
		ver:    version.New(ring.N()),
		events: obs.Default().Events(),
		memo:   make([]pairMemos, ring.N()),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// ID returns the client index.
func (c *Client) ID() int { return c.id }

// N returns the number of clients.
func (c *Client) N() int { return c.n }

// Failed reports whether the client has detected server misbehavior, and
// the detection error if so.
func (c *Client) Failed() (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed, c.reason
}

// Version returns the client's current version (a copy).
func (c *Client) Version() version.Version {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ver.Clone()
}

// ObservedTimestamp returns V[j] of the client's current version: the
// timestamp of the last operation by client j that this client has
// observed (through replies and their concurrent-operation lists).
// Unlike Version it copies nothing — cache layers consult it on their
// hot path. Out-of-range indices return 0.
func (c *Client) ObservedTimestamp(j int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if j < 0 || j >= c.n {
		return 0
	}
	return c.ver.V[j]
}

// getLink returns the current transport link.
func (c *Client) getLink() transport.Link {
	c.linkMu.Lock()
	defer c.linkMu.Unlock()
	return c.link
}

// Close closes the current transport link, unblocking any pending
// operation.
func (c *Client) Close() error { return c.getLink().Close() }

// Rebind replaces the client's transport link, keeping all protocol state
// (version, xbar, deferred piggyback COMMIT). Use it to reconnect after a
// server restart: the client resumes exactly where it left off, and its
// line 36 check then verifies that the server really recovered every
// operation the client committed — a rolled-back server is detected as
// faulty on the next operation. The caller is responsible for closing the
// old link.
//
// CAVEAT: Rebind requires that no operation is in flight. It swaps the
// link pointer but does not interrupt an operation already blocked in
// Recv on the old link — that operation keeps waiting on the dead link
// (or fails with its transport error) and its REPLY is never re-requested
// on the new one. Sequence a reconnect as: let the failing operation
// return its error, Close the old link, Rebind, then retry the operation.
// Calling Rebind concurrently with Write/Read is a programming error, not
// a recoverable race.
func (c *Client) Rebind(link transport.Link) {
	c.linkMu.Lock()
	defer c.linkMu.Unlock()
	c.link = link
}

// Write implements write_i(X_i, x) (Algorithm 1 lines 8-10).
func (c *Client) Write(x []byte) error {
	_, err := c.WriteX(context.Background(), x)
	return err
}

// Read implements read_i(X_j) (Algorithm 1 lines 21-23).
//
// # Empty-register semantics
//
// A register whose owner has never completed a write reads as a nil
// value with a nil error — the paper's bottom, not a failure. The same
// holds after the owner explicitly writes nil (writing bottom is legal);
// the two cases are distinguishable through ReadX: a never-written
// register comes with the zero WriterVersion, an explicit nil write with
// a non-zero one. A nil value and a present-but-empty value ([]byte{})
// are distinct: Write(nil) stores bottom, Write([]byte{}) stores an
// empty value, and reads return exactly what was written. Layers above
// rely on this bootstrap contract — package kv treats a nil register as
// the empty key directory.
func (c *Client) Read(j int) ([]byte, error) {
	res, err := c.ReadX(context.Background(), j)
	if err != nil {
		return nil, err
	}
	return res.Value, nil
}

// WriteX is the extended write (Algorithm 1 lines 11-20): identical to
// Write but additionally returns the committed version. ctx carries the
// operation's trace context: when absent (and tracing is on) the write
// becomes a new trace root, and the context travels inside the SUBMIT —
// covered by the SUBMIT-signature — so server-side spans join it.
func (c *Client) WriteX(ctx context.Context, x []byte) (OpResult, error) {
	res, err := c.round(ctx, wire.OpWrite, c.id, x)
	return res.OpResult, err
}

// ReadX is the extended read (Algorithm 1 lines 24-33): identical to Read
// but additionally returns the committed version and the writer's signed
// version.
//
// Empty-register semantics match Read: a never-written register yields
// Value == nil, err == nil, and a WriterVersion whose Ver.IsZero() —
// never an error. See Read for the nil / empty / never-written
// distinctions.
func (c *Client) ReadX(ctx context.Context, j int) (ReadResult, error) {
	return c.round(ctx, wire.OpRead, j, nil)
}

// round is the one operation round of Algorithm 1, lines 11-20 for a
// write of x and lines 24-33 for a read of register reg: sign, SUBMIT,
// await the REPLY, lines 34-47 (and 48-52 for a read), COMMIT. A write's
// result carries only the OpResult part.
func (c *Client) round(ctx context.Context, op wire.OpCode, reg int, x []byte) (ReadResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed {
		return ReadResult{}, ErrHalted
	}
	if reg < 0 || reg >= c.n {
		return ReadResult{}, fmt.Errorf("ustor: register %d out of range [0,%d)", reg, c.n)
	}
	isRead := op == wire.OpRead
	name, hist := spanWrite, cmWriteNs
	if isRead {
		name, hist = spanRead, cmReadNs
	}
	ctx, sp := trace.Start(ctx, name)
	defer sp.End()
	tc := transport.WireTrace(ctx)
	start := obs.StartTimer()
	defer func() { hist.ObserveSinceExemplar(start, traceExemplar(tc)) }()

	_, hs := trace.Child(ctx, spanSign)
	t := c.ver.V[c.id] + 1
	if !isRead {
		if x == nil {
			c.xbar = nil
		} else {
			c.hash = crypto.HashInto(c.hash[:0], x)
			c.xbar = c.hash
		}
	}
	sigma, delta, psi := c.signSubmit(op, reg, t, tc)
	hs.End()

	submit := &wire.Submit{
		T:         t,
		Inv:       wire.Invocation{Client: c.id, Op: op, Reg: reg, SubmitSig: sigma, Trace: tc},
		Value:     x,
		DataSig:   delta,
		Piggyback: c.takePending(),
		ProofSig:  psi,
	}
	_, hrpc := trace.Child(ctx, spanRPC)
	//faustlint:ignore lockheldio c.mu is the USTOR session lock; Algorithm 1 serializes a client's own SUBMIT..COMMIT round, and wait-freedom is across clients, not within one
	if err := c.getLink().Send(submit); err != nil {
		hrpc.End()
		return ReadResult{}, fmt.Errorf("ustor: submitting %s: %w", name, err)
	}

	reply, err := c.recvReply(isRead)
	hrpc.End()
	if err != nil {
		return ReadResult{}, err
	}
	_, hv := trace.Child(ctx, spanVerify)
	err = c.updateVersion(reply)
	if err == nil {
		if isRead {
			err = c.checkData(reply, reg)
		} else {
			err = c.settle("")
		}
	}
	hv.End()
	if err != nil {
		return ReadResult{}, err
	}
	sv, err := c.commit()
	if err != nil {
		return ReadResult{}, err
	}
	res := ReadResult{OpResult: OpResult{Version: sv, Timestamp: c.ver.V[c.id]}}
	if isRead {
		res.Value, res.WriterVersion, res.WriterTimestamp = reply.Mem.Value, reply.JVer.Clone(), reply.Mem.T
	}
	return res, nil
}

// signSubmit produces, with one Ed25519 signature, the SUBMIT-signature
// on (op, reg, t) and the DATA-signature on (t, xbar) of the operation
// being submitted and the PROOF-signature psi on M[i] of the client's
// previous operation, which completed when its COMMIT was signed. The
// first operation has no previous one: it signs the pair alone and psi
// is nil.
func (c *Client) signSubmit(op wire.OpCode, reg int, t int64, tc *wire.TraceCtx) (sigma, delta, psi []byte) {
	c.payload = wire.AppendSubmitPayload(c.payload[:0], op, reg, t, tc)
	c.payloadB = wire.AppendDataPayload(c.payloadB[:0], t, c.xbar)
	memo := &c.memo[c.id].submit
	if c.ver.M[c.id] == nil {
		sigma, delta = c.signer.SignPair(memo, crypto.DomainSubmit, c.payload, crypto.DomainData, c.payloadB)
		return sigma, delta, nil
	}
	return c.signer.SignTriple(memo, crypto.DomainSubmit, c.payload, crypto.DomainData, c.payloadB,
		crypto.DomainProof, wire.ProofPayload(c.ver.M[c.id]))
}

// verify checks client k's SUBMIT-, DATA- or PROOF-signature over a
// domain-separated payload through k's submit memo, for the REPLY being
// checked: a signature the memo does not vouch for joins c.batch, and
// settle decides it, failing with check if it is the first that does not
// verify. verify returns false only for a signature that cannot verify
// at all. COMMIT-signatures go through verifyVersion.
func (c *Client) verify(check string, k int, sig []byte, domain byte, payload []byte) bool {
	n := c.batch.Len()
	ok := c.ring.VerifyBatched(&c.batch, &c.memo[k].submit, k, sig, domain, payload)
	c.tagBatch(n, check)
	return ok
}

// verifyVersion is verify for the signed version of line 35 or 49, under
// its committer's COMMIT memo.
func (c *Client) verifyVersion(check string, sv wire.SignedVersion) bool {
	n := c.batch.Len()
	ok := verifyCommit(c.ring, c, &c.batch, sv)
	c.tagBatch(n, check)
	return ok
}

// tagBatch records check as the check of the signature that joined
// c.batch since it held n signatures, if one did.
func (c *Client) tagBatch(n int, check string) {
	if c.batch.Len() > n {
		c.batchChecks = append(c.batchChecks, check)
	}
}

// settle ends the checks of a REPLY: one batch equation decides the
// signatures waiting in c.batch (crypto.Batch.Verify). The checks ran in
// Algorithm 1's order, so the first of them that does not verify is the
// first failed check; otherwise check, where the walk stopped ("" when
// every check held), is. settle fails the client with it and empties the
// batch for the next REPLY.
func (c *Client) settle(check string) error {
	c.memoMu.Lock() // the batch's COMMIT-signatures update COMMIT memos
	bad := c.batch.Verify()
	c.memoMu.Unlock()
	if bad >= 0 {
		check = c.batchChecks[bad]
	}
	c.batch.Reset()
	c.batchChecks = c.batchChecks[:0]
	if check != "" {
		return c.fail(check)
	}
	return nil
}

// VerifyVersion decides a signed version: sv.Committer is a client of
// ring and sv.Sig is its COMMIT-signature on sv.Ver. It is the one such
// check: Algorithm 1 lines 35 and 49, FAUST's VERSION and
// FAILURE-evidence checks and the offline audit all call it. Whether the
// initial version, which nobody signs, is acceptable is the caller's
// decision. With a non-nil c the check goes through c's per-signer
// COMMIT memo under c.memoMu, so a signature the client has already
// verified or produced costs no second Ed25519 verification and no
// allocation; ring must then be c's keyring. With a nil c it always
// verifies for real.
func VerifyVersion(ring *crypto.Keyring, c *Client, sv wire.SignedVersion) bool {
	return verifyCommit(ring, c, nil, sv)
}

// verifyCommit is VerifyVersion, except that with non-nil c and b the
// Ed25519 verification joins b, as crypto.Keyring.VerifyBatched
// describes: lines 35 and 49 check their signed versions this way.
func verifyCommit(ring *crypto.Keyring, c *Client, b *crypto.Batch, sv wire.SignedVersion) bool {
	if sv.Committer < 0 || sv.Committer >= ring.N() {
		return false
	}
	if c == nil {
		return ring.Verify(sv.Committer, sv.Sig, crypto.DomainCommit, wire.CommitPayload(sv.Ver))
	}
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	c.commitBuf = wire.AppendCommitPayload(c.commitBuf[:0], sv.Ver)
	memo := &c.memo[sv.Committer].commit
	if b == nil {
		return ring.VerifyMemo(memo, sv.Committer, sv.Sig, crypto.DomainCommit, c.commitBuf)
	}
	return ring.VerifyBatched(b, memo, sv.Committer, sv.Sig, crypto.DomainCommit, c.commitBuf)
}

// recvReply waits for the REPLY message. A response of the wrong shape is
// itself evidence of server misbehavior.
func (c *Client) recvReply(isRead bool) (*wire.Reply, error) {
	m, err := c.getLink().Recv()
	if err != nil {
		return nil, fmt.Errorf("ustor: awaiting reply: %w", err)
	}
	reply, ok := m.(*wire.Reply)
	if !ok {
		return nil, c.fail("server sent a non-REPLY message")
	}
	if reply.IsRead != isRead {
		return nil, c.fail("REPLY kind does not match the submitted operation")
	}
	if err := c.validateReplyShape(reply); err != nil {
		return nil, err
	}
	return reply, nil
}

// validateReplyShape rejects structurally malformed replies before the
// protocol checks run. A correct server can never produce these.
func (c *Client) validateReplyShape(r *wire.Reply) error {
	if r.C < 0 || r.C >= c.n {
		return c.fail("REPLY names an out-of-range committing client")
	}
	if r.CVer.Ver.N() != c.n || len(r.CVer.Ver.M) != c.n {
		return c.fail("REPLY carries a version of the wrong dimension")
	}
	if len(r.P) != c.n {
		return c.fail("REPLY carries a PROOF array of the wrong dimension")
	}
	if r.IsRead && (r.JVer.Ver.N() != c.n || len(r.JVer.Ver.M) != c.n) {
		return c.fail("REPLY carries a writer version of the wrong dimension")
	}
	for _, inv := range r.L {
		if inv.Client < 0 || inv.Client >= c.n {
			return c.fail("invocation tuple names an out-of-range client")
		}
		if inv.Op != wire.OpRead && inv.Op != wire.OpWrite {
			return c.fail("invocation tuple carries an invalid opcode")
		}
		if inv.Reg < 0 || inv.Reg >= c.n {
			return c.fail("invocation tuple names an out-of-range register")
		}
	}
	return nil
}

// The checks of Algorithm 1 that a REPLY's signatures fail.
const (
	checkLine35 = "COMMIT-signature on SVER[c] invalid (line 35)"
	checkLine41 = "PROOF-signature for concurrent operation invalid (line 41)"
	checkLine43 = "SUBMIT-signature for concurrent operation invalid (line 43)"
	checkLine49 = "COMMIT-signature on SVER[j] invalid (line 49)"
	checkLine50 = "DATA-signature on returned value invalid (line 50)"
)

// updateVersion implements Algorithm 1 lines 34-47: verify the largest
// committed version shown by the server, adopt it, and advance it over the
// concurrent operations listed in L, checking every tuple's signatures and
// extending the digest chain. The signatures wait in c.batch for settle;
// a check that fails before them settles at once. (After a detection
// c.ver may hold a partly walked version, as it always could: the client
// has halted.)
func (c *Client) updateVersion(r *wire.Reply) error {
	vc, mc := r.CVer.Ver, r.CVer.Ver.M

	// Line 35: the shown version is either the initial one or carries a
	// valid COMMIT-signature by client C_c.
	if !vc.IsZero() && !c.verifyVersion(checkLine35, wire.SignedVersion{Committer: r.C, Ver: vc, Sig: r.CVer.Sig}) {
		return c.settle(checkLine35)
	}
	// Line 36: the shown version extends the client's own version and
	// agrees on the client's own timestamp.
	if !c.ver.LessEq(vc) || vc.V[c.id] != c.ver.V[c.id] {
		return c.settle("server version does not extend own version (line 36)")
	}

	// Line 37: adopt (V_c, M_c). CopyFrom reuses c.ver's storage — safe
	// because everything shared out of c.ver (commit messages, results)
	// was cloned at the sharing point.
	c.ver.CopyFrom(vc)

	// Lines 38-45: walk the concurrent operations.
	d := mc[r.C]
	for _, inv := range r.L {
		k := inv.Client
		// Line 41: the previous operation of C_k must be committed and
		// covered by the PROOF-signature the server presents. C_k signed
		// that psi in one tree with the sigma of this very operation and
		// sent it in this operation's SUBMIT, so verifying it here pays
		// for the line 43 check below through the memo. It still proves
		// what line 41 asks: C_k signs psi on M[k] only after completing
		// the operation with that digest.
		if c.ver.M[k] != nil {
			if !c.verify(checkLine41, k, r.P[k], crypto.DomainProof, wire.ProofPayload(c.ver.M[k])) {
				return c.settle(checkLine41)
			}
		}
		// Line 42: account for C_k's operation.
		c.ver.V[k]++
		// Line 43: no client is concurrent with itself, and the
		// SUBMIT-signature must cover the expected timestamp.
		if k == c.id {
			return c.settle("own operation listed as concurrent (line 43)")
		}
		// inv.Trace is whatever the submitter put under its signature;
		// recomputing the payload from the echoed tuple keeps the check
		// sound whether or not the operation was traced.
		c.payload = wire.AppendSubmitPayload(c.payload[:0], inv.Op, inv.Reg, c.ver.V[k], inv.Trace)
		if !c.verify(checkLine43, k, inv.SubmitSig, crypto.DomainSubmit, c.payload) {
			return c.settle(checkLine43)
		}
		// Lines 44-45: extend the digest chain, writing the new digest into
		// M[k]'s existing storage (DigestStepInto computes before writing,
		// so d may alias the destination).
		d = version.DigestStepInto(c.ver.M[k][:0], d, k)
		c.ver.M[k] = d
	}

	// Lines 46-47: append the own operation.
	c.ver.V[c.id]++
	c.ver.M[c.id] = version.DigestStepInto(c.ver.M[c.id][:0], d, c.id)
	return nil
}

// checkData implements Algorithm 1 lines 48-52: validate the returned
// register value and the writer's version against the adopted version.
// It settles the REPLY's checks, those of updateVersion included.
func (c *Client) checkData(r *wire.Reply, j int) error {
	vj := r.JVer.Ver
	tj, xj := r.Mem.T, r.Mem.Value

	// Line 49: the writer's version is initial or properly signed by C_j.
	if !vj.IsZero() && !c.verifyVersion(checkLine49, wire.SignedVersion{Committer: j, Ver: vj, Sig: r.JVer.Sig}) {
		return c.settle(checkLine49)
	}
	// Line 50: the value integrity check via the DATA-signature.
	if tj != 0 {
		var xbar []byte // nil = bottom, as in crypto.HashOrNil
		if xj != nil {
			c.readHash = crypto.HashInto(c.readHash[:0], xj)
			xbar = c.readHash
		}
		c.payload = wire.AppendDataPayload(c.payload[:0], tj, xbar)
		if !c.verify(checkLine50, j, r.Mem.DataSig, crypto.DomainData, c.payload) {
			return c.settle(checkLine50)
		}
	}
	// Line 51: the writer's version is no newer than the adopted one, and
	// the returned timestamp matches C_j's last operation in the view.
	if !vj.LessEq(r.CVer.Ver) || tj != c.ver.V[j] {
		return c.settle("returned value is not from the latest operation of the writer (line 51)")
	}
	// Line 52: the writer's own entry is current or one behind (its COMMIT
	// may still be in flight).
	if vj.V[j] != tj && vj.V[j] != tj-1 {
		return c.settle("writer version timestamp inconsistent with returned value (line 52)")
	}
	return c.settle("")
}

// commit signs the COMMIT message (lines 18-19 / 31-32) and either sends
// it immediately or defers it to the next SUBMIT (piggyback mode). It
// returns the signed version for the caller. The COMMIT carries phi
// alone: psi on the new M[i] travels with the next SUBMIT (signSubmit).
func (c *Client) commit() (wire.SignedVersion, error) {
	// Memoizing the own phi at signing time is what makes the next
	// reply's SVER[c] check free in the common uncontended case.
	c.payload = wire.AppendCommitPayload(c.payload[:0], c.ver)
	c.memoMu.Lock()
	phi := c.signer.SignMemo(&c.memo[c.id].commit, crypto.DomainCommit, c.payload)
	c.memoMu.Unlock()
	// One clone, shared by the COMMIT message and the returned result:
	// both treat the version as immutable (the server adopts received
	// versions without writing through them, and the FAUST layer clones on
	// retention), while c.ver itself keeps mutating in later operations.
	sv := c.ver.Clone()
	msg := &wire.Commit{Ver: sv, CommitSig: phi}
	if c.piggyback {
		c.pending = msg
	} else if err := c.getLink().Send(msg); err != nil {
		return wire.SignedVersion{}, fmt.Errorf("ustor: sending commit: %w", err)
	}
	return wire.SignedVersion{Committer: c.id, Ver: sv, Sig: phi}, nil
}

// traceExemplar converts a wire trace context to the histogram-exemplar
// trace ID, zero when the operation is untraced.
func traceExemplar(tc *wire.TraceCtx) trace.TraceID {
	if tc == nil {
		return trace.TraceID{}
	}
	return trace.TraceID(tc.ID)
}

// takePending returns and clears the deferred COMMIT. Caller holds c.mu.
func (c *Client) takePending() *wire.Commit {
	msg := c.pending
	c.pending = nil
	return msg
}

// Flush sends any deferred COMMIT immediately. Only meaningful in
// piggyback mode; a no-op otherwise. Call before a graceful shutdown so
// the client's last operation leaves the server's concurrent list.
func (c *Client) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	msg := c.takePending()
	if msg == nil {
		return nil
	}
	//faustlint:ignore lockheldio c.mu is the USTOR session lock; the deferred COMMIT must leave before any new operation reuses the session
	if err := c.getLink().Send(msg); err != nil {
		return fmt.Errorf("ustor: flushing commit: %w", err)
	}
	return nil
}

// fail records the detection, fires the fail_i output action once, halts
// the client, and returns the detection error. The first detection also
// lands in the protocol event log: the line 36 check (server version does
// not extend the client's own) is the signature of replayed old state and
// is classified as rollback-detected; every other failed check is
// fork-detected evidence.
func (c *Client) fail(check string) error {
	err := &DetectionError{Client: c.id, Check: check}
	if !c.failed {
		c.failed = true
		c.reason = err
		kind := obs.EventFork
		if strings.Contains(check, "(line 36)") {
			kind = obs.EventRollback
		}
		c.events.Record(kind, c.id, "", check)
		if c.onFail != nil {
			c.onFail(err)
		}
	}
	return err
}
