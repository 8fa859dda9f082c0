// Package faustproto implements FAUST, the fail-aware untrusted storage
// protocol of Section 6 of the paper, on top of the USTOR protocol.
//
// FAUST turns USTOR's extended operations into a fail-aware untrusted
// service (Definition 5): every operation returns a timestamp; the client
// asynchronously emits stability cuts stable_i(W) — vector W[j] bounds the
// timestamps of its operations known to be consistent with client C_j —
// and fail_i notifications when the server provably misbehaved.
//
// Mechanisms, exactly as in the paper:
//
//   - VER, an array with the maximal version received from every client,
//     updated from USTOR responses and offline VERSION messages;
//   - every received version must be comparable to VER[max]; an
//     incomparable pair is proof of a forking attack;
//   - periodic dummy reads over all registers in round-robin order
//     propagate versions through the server while the client is idle;
//   - when an entry VER[j] stays silent longer than the probe timeout,
//     the client sends C_j a PROBE over the offline channel; C_j answers
//     with a VERSION message carrying the maximal version it knows;
//   - on detection, a FAILURE message (with the incomparable version pair
//     as verifiable evidence when available) is broadcast to all clients,
//     fail_i is output, and the client halts.
package faustproto

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"faust/internal/clock"
	"faust/internal/crypto"
	"faust/internal/obs"
	"faust/internal/offline"
	"faust/internal/transport"
	"faust/internal/ustor"
	"faust/internal/version"
	"faust/internal/wire"
)

// ErrHalted is returned by operations after the client has output fail_i
// (or was stopped).
var ErrHalted = errors.New("faust: client halted")

// ForkError is the payload of fail_i when detection came from a pair of
// incomparable versions: cryptographically verifiable evidence that the
// server mounted a forking attack.
type ForkError struct {
	Client int
	A, B   wire.SignedVersion
}

// Error implements error.
func (e *ForkError) Error() string {
	return fmt.Sprintf("faust: client %d holds incomparable versions %s and %s: server mounted a forking attack",
		e.Client, e.A.Ver, e.B.Ver)
}

// Config tunes the FAUST background machinery.
type Config struct {
	// ProbeTimeout is the paper's delta: how long an entry of VER may stay
	// silent before the owner is probed over the offline channel.
	ProbeTimeout time.Duration
	// PollInterval is the cadence of the dummy-read and probe loops.
	PollInterval time.Duration
	// DisableDummyReads turns off the periodic dummy reads (used by tests
	// that need full control over the operation sequence).
	DisableDummyReads bool
}

// DefaultConfig returns the configuration used by the examples: probe
// after 200ms of silence, poll every 50ms.
func DefaultConfig() Config {
	return Config{ProbeTimeout: 200 * time.Millisecond, PollInterval: 50 * time.Millisecond}
}

// Option configures a Client.
type Option func(*Client)

// WithConfig replaces the default configuration.
func WithConfig(cfg Config) Option {
	return func(c *Client) { c.cfg = cfg }
}

// WithStableHandler registers a callback for stable_i(W) notifications.
// The callback receives a copy of the stability cut and runs outside the
// client's locks.
func WithStableHandler(f func(w []int64)) Option {
	return func(c *Client) { c.onStable = f }
}

// WithFailHandler registers a callback for the fail_i notification. It is
// invoked exactly once.
func WithFailHandler(f func(err error)) Option {
	return func(c *Client) { c.onFail = f }
}

// WithEventLog routes this client's protocol events (stability-cut
// advances, fail notifications, fork detections) to l instead of the
// process-wide default event log. The log is also handed to the
// underlying USTOR client.
func WithEventLog(l *obs.EventLog) Option {
	return func(c *Client) { c.events = l }
}

// WithClock drives the silence stamps and the probe and dummy-read
// tickers from clk instead of the wall clock.
func WithClock(clk clock.Clock) Option {
	return func(c *Client) { c.clk = clk }
}

// Client is a FAUST client (Figure 4: USTOR client + failure detector +
// offline exchange). Create with NewClient, then Start the background
// machinery; user operations may run concurrently with it.
type Client struct {
	id   int
	n    int
	ring *crypto.Keyring
	us   *ustor.Client
	ep   offline.Channel
	cfg  Config
	clk  clock.Clock

	onStable func([]int64)
	onFail   func(error)
	events   *obs.EventLog

	mu        sync.Mutex
	cond      *sync.Cond
	ver       []wire.SignedVersion // VER[j]: maximal version received from C_j
	lastUpd   []time.Time          // last time VER[j] was refreshed
	lastProbe []time.Time
	maxIdx    int // index of the maximum of all versions in VER
	w         []int64
	userBusy  int
	dummyReg  int
	failed    bool // fail_i decided: operations halt
	failDone  bool // fail_i output complete: FAILURE broadcast, handler returned
	failErr   error
	stopped   bool

	stopCh    chan struct{}
	wg        sync.WaitGroup
	startOnce sync.Once
	stopOnce  sync.Once
	failOnce  sync.Once
}

// NewClient creates a FAUST client for client index id, talking to the
// server over link and to other clients over the offline endpoint ep.
func NewClient(id int, ring *crypto.Keyring, signer *crypto.Signer, link transport.Link, ep offline.Channel, opts ...Option) *Client {
	c := &Client{
		id:        id,
		n:         ring.N(),
		ring:      ring,
		ep:        ep,
		cfg:       DefaultConfig(),
		clk:       clock.Real,
		ver:       make([]wire.SignedVersion, ring.N()),
		lastUpd:   make([]time.Time, ring.N()),
		lastProbe: make([]time.Time, ring.N()),
		w:         make([]int64, ring.N()),
		stopCh:    make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	for i := range c.ver {
		c.ver[i] = wire.ZeroSignedVersion(ring.N())
	}
	for _, o := range opts {
		o(c)
	}
	if c.events == nil {
		c.events = obs.Default().Events()
	}
	now := c.clk.Now()
	for i := range c.lastUpd {
		c.lastUpd[i] = now
	}
	c.us = ustor.NewClient(id, ring, signer, link,
		ustor.WithFailHandler(c.ustorFailed), ustor.WithEventLog(c.events))
	return c
}

// ID returns the client index.
func (c *Client) ID() int { return c.id }

// Start launches the offline receiver, the dummy-read loop and the probe
// loop. It is idempotent.
func (c *Client) Start() {
	c.startOnce.Do(func() {
		c.wg.Add(2)
		go c.receiveLoop()
		go c.probeLoop(c.clk.NewTicker(c.cfg.PollInterval))
		if !c.cfg.DisableDummyReads {
			c.wg.Add(1)
			go c.dummyReadLoop(c.clk.NewTicker(c.cfg.PollInterval))
		}
	})
}

// Stop terminates the background machinery and unblocks pending waiters
// and operations. It does not constitute a failure.
func (c *Client) Stop() {
	c.stopOnce.Do(func() {
		c.mu.Lock()
		c.stopped = true
		c.cond.Broadcast()
		c.mu.Unlock()
		close(c.stopCh)
		c.ep.Close()
		_ = c.us.Close()
		c.wg.Wait()
	})
}

// Write implements write_i(X_i, x) of the fail-aware service: it returns
// the operation's timestamp.
func (c *Client) Write(x []byte) (int64, error) {
	if err := c.opStart(); err != nil {
		return 0, err
	}
	res, err := c.us.WriteX(context.Background(), x)
	c.opEnd()
	if err != nil {
		return 0, err
	}
	c.integrateVersion(c.id, res.Version)
	return res.Timestamp, nil
}

// Read implements read_i(X_j): it returns the register value and the
// operation's timestamp.
func (c *Client) Read(j int) ([]byte, int64, error) {
	if err := c.opStart(); err != nil {
		return nil, 0, err
	}
	res, err := c.us.ReadX(context.Background(), j)
	c.opEnd()
	if err != nil {
		return nil, 0, err
	}
	c.integrateRead(j, res)
	return res.Value, res.Timestamp, nil
}

// integrateRead folds a completed read of register j into VER: the
// operation's own version and, for a written register, the writer's.
func (c *Client) integrateRead(j int, res ustor.ReadResult) {
	c.integrateVersion(c.id, res.Version)
	if !res.WriterVersion.Ver.IsZero() {
		// USTOR verified the COMMIT-signature with key j (line 49); pin
		// the committer rather than trusting the server's field. The
		// version is the read's own clone, and integrateVersion clones
		// what it retains, so setting the field on a copy is enough.
		sv := res.WriterVersion
		sv.Committer = j
		c.integrateVersion(j, sv)
	}
}

// StableCut returns a copy of the current stability cut W. An operation
// of this client with timestamp t is stable w.r.t. C_j iff W[j] >= t.
func (c *Client) StableCut() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int64, len(c.w))
	copy(out, c.w)
	return out
}

// MaxVersion returns the maximal version the client knows (VER[max]).
func (c *Client) MaxVersion() wire.SignedVersion {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ver[c.maxIdx].Clone()
}

// Failed reports whether fail_i has been output, and its reason.
func (c *Client) Failed() (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed, c.failErr
}

// IsStable reports whether the operation with timestamp t is stable
// w.r.t. all clients.
func (c *Client) IsStable(t int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stable(t)
}

// WaitStable blocks until the operation with timestamp t is stable w.r.t.
// all clients, the client fails (returning the failure), or the timeout
// elapses.
func (c *Client) WaitStable(t int64, timeout time.Duration) error {
	return c.waitCut(timeout, func() bool { return c.stable(t) })
}

// stable reports whether the cut covers timestamp t for every client.
// Caller holds c.mu.
func (c *Client) stable(t int64) bool {
	for _, wj := range c.w {
		if wj < t {
			return false
		}
	}
	return true
}

// WaitStableFor blocks until the operation with timestamp t is stable
// w.r.t. client j.
func (c *Client) WaitStableFor(j int, t int64, timeout time.Duration) error {
	return c.waitCut(timeout, func() bool { return c.w[j] >= t })
}

// WaitFail blocks until fail_i has occurred — including the fail
// handler, which has returned by then — (returning nil), the client is
// stopped (ErrHalted) or the timeout elapses.
func (c *Client) WaitFail(timeout time.Duration) error {
	return c.wait(timeout, "no failure", func() (bool, error) { return c.failDone, nil })
}

func (c *Client) waitCut(timeout time.Duration, reached func() bool) error {
	return c.wait(timeout, "stability not reached", func() (bool, error) {
		if reached() {
			return true, nil
		}
		return c.failed, c.failErr
	})
}

// wait blocks under c.mu until done reports true (returning its error),
// the client is stopped (ErrHalted) or the caller's timeout elapses. The
// timeout is the caller's wall-clock budget, not a protocol timer.
func (c *Client) wait(timeout time.Duration, what string, done func() (bool, error)) error {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer timer.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if ok, err := done(); ok {
			return err
		}
		if c.stopped {
			return ErrHalted
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("faust: %s within %v (cut %v)", what, timeout, c.w)
		}
		c.cond.Wait()
	}
}

func (c *Client) opStart() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed {
		return ErrHalted
	}
	if c.stopped {
		return ErrHalted
	}
	c.userBusy++
	return nil
}

func (c *Client) opEnd() {
	c.mu.Lock()
	c.userBusy--
	c.mu.Unlock()
}

// integrateVersion folds a version received "from" client from into VER,
// performing the comparability check against VER[max], updating the
// stability cut, and waking waiters. It fires fail on incomparability.
func (c *Client) integrateVersion(from int, sv wire.SignedVersion) {
	now := c.clk.Now()
	c.mu.Lock()
	if c.failed || c.stopped {
		c.mu.Unlock()
		return
	}
	c.lastUpd[from] = now
	if sv.Ver.IsZero() {
		c.cond.Broadcast()
		c.mu.Unlock()
		return
	}
	maxSV := c.ver[c.maxIdx]
	if !version.Comparable(sv.Ver, maxSV.Ver) {
		c.mu.Unlock()
		fe := &ForkError{Client: c.id, A: maxSV.Clone(), B: sv.Clone()}
		c.events.Record(obs.EventFork, c.id, "",
			fmt.Sprintf("incomparable versions %s / %s (from client %d)", fe.A.Ver, fe.B.Ver, from))
		c.failWith(fe, true)
		return
	}
	var notify []int64
	if c.ver[from].Ver.Less(sv.Ver) {
		c.ver[from] = sv.Clone()
		if c.ver[c.maxIdx].Ver.LessEq(sv.Ver) {
			c.maxIdx = from
		}
		if wj := sv.Ver.V[c.id]; wj > c.w[from] {
			c.w[from] = wj
			notify = make([]int64, len(c.w))
			copy(notify, c.w)
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	if notify != nil {
		c.events.RecordCut(c.id, notify)
		if c.onStable != nil {
			c.onStable(notify)
		}
	}
}

// ustorFailed is the fail handler of the underlying USTOR client.
func (c *Client) ustorFailed(err error) {
	c.failWith(err, false)
}

// failWith outputs fail_i exactly once: records the reason, broadcasts a
// FAILURE message to all clients (with evidence when the cause is a pair
// of incomparable versions) and wakes all waiters: stability waiters as
// soon as the client is halted, WaitFail only once the handler has run.
func (c *Client) failWith(err error, withEvidence bool) {
	c.failOnce.Do(func() {
		c.mu.Lock()
		c.failed = true
		c.failErr = err
		c.cond.Broadcast()
		c.mu.Unlock()

		msg := &wire.Failure{From: c.id}
		var fe *ForkError
		if withEvidence && errors.As(err, &fe) {
			msg.HasEvidence = true
			msg.EvidenceA = fe.A
			msg.EvidenceB = fe.B
		}
		c.events.Record(obs.EventFail, c.id, "", err.Error())
		_ = c.ep.Broadcast(msg)
		if c.onFail != nil {
			c.onFail(err)
		}
		c.mu.Lock()
		c.failDone = true
		c.cond.Broadcast()
		c.mu.Unlock()
	})
}

// receiveLoop handles offline PROBE / VERSION / FAILURE messages.
func (c *Client) receiveLoop() {
	defer c.wg.Done()
	for {
		msg, err := c.ep.Recv()
		if err != nil {
			return
		}
		switch m := msg.Body.(type) {
		case *wire.Probe:
			c.handleProbe(msg.From)
		case *wire.VersionMsg:
			c.handleVersion(msg.From, m)
		case *wire.Failure:
			c.handleFailure(m)
		}
	}
}

func (c *Client) handleProbe(from int) {
	c.mu.Lock()
	failed := c.failed
	sv := c.ver[c.maxIdx].Clone()
	c.mu.Unlock()
	if failed {
		// A failed client re-announces the failure instead of a version.
		_ = c.ep.Send(from, &wire.Failure{From: c.id})
		return
	}
	_ = c.ep.Send(from, &wire.VersionMsg{From: c.id, SV: sv})
}

// handleVersion integrates a VERSION message whose version verifies. An
// unverifiable one carries no information and leaves VER, the cut and
// the sender's silence timer as they were; the initial version carries
// none either, but refreshes the timer: the peer is alive.
func (c *Client) handleVersion(from int, m *wire.VersionMsg) {
	if m.SV.Ver.IsZero() || ustor.VerifyVersion(c.ring, c.us, m.SV) {
		c.integrateVersion(from, m.SV)
	}
}

func (c *Client) handleFailure(m *wire.Failure) {
	if m.HasEvidence {
		// Evidence is verifiable: two validly signed, incomparable
		// versions prove server misbehavior regardless of the sender.
		a, b := m.EvidenceA, m.EvidenceB
		if !ustor.VerifyVersion(c.ring, c.us, a) || !ustor.VerifyVersion(c.ring, c.us, b) ||
			version.Comparable(a.Ver, b.Ver) {
			return // bogus evidence; ignore
		}
		c.events.Record(obs.EventFork, c.id, "",
			fmt.Sprintf("verified fork evidence relayed by client %d", m.From))
		c.failWith(&ForkError{Client: c.id, A: a, B: b}, true)
		return
	}
	// Clients are trusted (the model assumes honest clients), so a bare
	// FAILURE notification is believed.
	c.failWith(fmt.Errorf("faust: client %d reported a server failure", m.From), false)
}

// dummyReadLoop periodically issues a read over all registers round-robin
// while no user operation is in flight, propagating fresh versions
// through the server (Section 6).
func (c *Client) dummyReadLoop(ticker *clock.Ticker) {
	defer c.wg.Done()
	defer ticker.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-ticker.C:
		}
		c.mu.Lock()
		if c.failed || c.stopped {
			c.mu.Unlock()
			return
		}
		busy := c.userBusy > 0
		reg := c.dummyReg
		c.dummyReg = (c.dummyReg + 1) % c.n
		c.mu.Unlock()
		if busy {
			continue
		}
		res, err := c.us.ReadX(context.Background(), reg)
		if err != nil {
			// Detection is handled by the fail handler; transport errors
			// mean shutdown. Either way this loop is done.
			return
		}
		c.integrateRead(reg, res)
	}
}

// probeLoop watches the freshness of VER entries and probes silent
// clients over the offline channel. It runs independently of the dummy
// reads so that a crashed (silent) server cannot disable probing.
func (c *Client) probeLoop(ticker *clock.Ticker) {
	defer c.wg.Done()
	defer ticker.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-ticker.C:
		}
		now := c.clk.Now()
		var targets []int
		c.mu.Lock()
		if c.failed || c.stopped {
			c.mu.Unlock()
			return
		}
		for j := 0; j < c.n; j++ {
			if j == c.id {
				continue
			}
			if now.Sub(c.lastUpd[j]) > c.cfg.ProbeTimeout && now.Sub(c.lastProbe[j]) > c.cfg.ProbeTimeout {
				c.lastProbe[j] = now
				targets = append(targets, j)
			}
		}
		c.mu.Unlock()
		for _, j := range targets {
			_ = c.ep.Send(j, &wire.Probe{From: c.id})
		}
	}
}
