// Package faust is a fail-aware untrusted storage service — a Go
// implementation of the FAUST and USTOR protocols from:
//
//	Christian Cachin, Idit Keidar, Alexander Shraer.
//	"Fail-Aware Untrusted Storage." DSN 2009.
//
// A set of n mutually-trusting clients shares n single-writer multi-reader
// registers through one storage server that nobody trusts. The service
// guarantees (Definition 5 of the paper):
//
//   - linearizability and wait-freedom whenever the server is correct;
//   - causal consistency always, even under a malicious server;
//   - accurate failure notifications: fail fires only if the server
//     really misbehaved, and then at every client;
//   - stability notifications: each client receives a monotonically
//     growing stability cut W, where W[j] bounds the timestamps of its
//     operations guaranteed consistent with client j. Operations stable
//     w.r.t. everyone are final: the execution prefix up to them is
//     linearizable.
//
// Under the hood every operation runs the USTOR protocol (one SUBMIT ->
// REPLY round plus an asynchronous COMMIT, O(n) bytes per message),
// maintaining hash-chained, signed version vectors that make any
// consistency violation by the server either immediately detectable or
// permanently fork the clients' views — in which case the background
// PROBE/VERSION exchange between clients exposes the fork with
// cryptographic evidence.
//
// # Quickstart
//
//	svc, err := faust.NewService(3)
//	if err != nil { ... }
//	defer svc.Close()
//
//	alice, _ := svc.Client(0)
//	bob, _ := svc.Client(1)
//
//	ts, _ := alice.Write([]byte("report-v1"))
//	val, _, _ := bob.Read(0)              // "report-v1"
//	_ = alice.WaitStable(ts, time.Second) // consistent with everyone
//
// See examples/ for complete programs, including a forking-attack
// demonstration and the paper's collaboration scenario.
package faust

import (
	"errors"
	"fmt"
	"time"

	"faust/internal/crypto"
	"faust/internal/faustproto"
	"faust/internal/offline"
	"faust/internal/transport"
	"faust/internal/ustor"
)

// Timestamp identifies an operation of one client; timestamps returned to
// a client increase monotonically (Definition 5, Integrity).
type Timestamp = int64

// Cut is a stability cut: Cut[j] is the largest timestamp t such that all
// of this client's operations up to t are known consistent with client j.
type Cut = []int64

// ErrHalted is returned by operations after the client detected a server
// failure (or was stopped).
var ErrHalted = faustproto.ErrHalted

// Service is an in-process FAUST deployment: a correct storage server, an
// offline client-to-client channel and up to n clients. It is the
// simplest way to use the library and the configuration every test and
// example builds on. For a networked deployment, see cmd/faust-server
// and cmd/faust-client.
type Service struct {
	n       int
	ring    *crypto.Keyring
	signers []*crypto.Signer
	network *transport.Network
	hub     *offline.Hub
	server  *ustor.Server
	clients []*Client
	cfg     faustproto.Config
}

// ServiceOption configures a Service.
type ServiceOption func(*Service)

// WithProbeTimeout sets how long a client waits for news from a peer
// before probing it over the offline channel (the paper's delta).
func WithProbeTimeout(d time.Duration) ServiceOption {
	return func(s *Service) { s.cfg.ProbeTimeout = d }
}

// WithPollInterval sets the cadence of the background dummy-read and
// probe loops. It must be positive.
func WithPollInterval(d time.Duration) ServiceOption {
	return func(s *Service) { s.cfg.PollInterval = d }
}

// WithoutDummyReads disables the background dummy reads. Stability then
// advances only through user operations and offline probes.
func WithoutDummyReads() ServiceOption {
	return func(s *Service) { s.cfg.DisableDummyReads = true }
}

// NewService creates an in-process service for n clients with freshly
// generated Ed25519 keys.
func NewService(n int, opts ...ServiceOption) (*Service, error) {
	if n <= 0 {
		return nil, fmt.Errorf("faust: need at least one client, got %d", n)
	}
	ring, signers, err := crypto.GenerateKeyring(n)
	if err != nil {
		return nil, fmt.Errorf("faust: generating keys: %w", err)
	}
	return newService(n, ring, signers, opts...)
}

// NewTestService creates an in-process service with deterministic keys
// derived from seed. Intended for tests and benchmarks; the keys are not
// secure. It panics on an option NewService would refuse.
func NewTestService(n int, seed int64, opts ...ServiceOption) *Service {
	ring, signers := crypto.NewTestKeyring(n, seed)
	s, err := newService(n, ring, signers, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

func newService(n int, ring *crypto.Keyring, signers []*crypto.Signer, opts ...ServiceOption) (*Service, error) {
	s := &Service{
		n:       n,
		ring:    ring,
		signers: signers,
		server:  ustor.NewServer(n),
		hub:     offline.NewHub(n),
		clients: make([]*Client, n),
		cfg:     faustproto.DefaultConfig(),
	}
	for _, o := range opts {
		o(s)
	}
	if s.cfg.PollInterval <= 0 {
		return nil, fmt.Errorf("faust: poll interval must be positive, got %v", s.cfg.PollInterval)
	}
	s.network = transport.NewNetwork(n, s.server)
	return s, nil
}

// N returns the number of clients the service supports.
func (s *Service) N() int { return s.n }

// ClientOption configures one client.
type ClientOption func(*clientConfig)

type clientConfig struct {
	onStable func(Cut)
	onFail   func(error)
}

// OnStable registers a callback for stable notifications (stable_i(W) in
// the paper). The callback receives a copy of the cut and runs outside
// the client's locks.
func OnStable(f func(Cut)) ClientOption {
	return func(c *clientConfig) { c.onStable = f }
}

// OnFail registers a callback for the fail notification; it fires at most
// once, and only if the server demonstrably misbehaved.
func OnFail(f func(error)) ClientOption {
	return func(c *clientConfig) { c.onFail = f }
}

// Client creates (on first call) and returns client i, starting its
// background machinery. Options are honored only on the creating call.
func (s *Service) Client(i int, opts ...ClientOption) (*Client, error) {
	if i < 0 || i >= s.n {
		return nil, fmt.Errorf("faust: client %d out of range [0,%d)", i, s.n)
	}
	if s.clients[i] != nil {
		if len(opts) > 0 {
			return nil, errors.New("faust: client already created; options ignored would mislead")
		}
		return s.clients[i], nil
	}
	var cc clientConfig
	for _, o := range opts {
		o(&cc)
	}
	protoOpts := []faustproto.Option{faustproto.WithConfig(s.cfg)}
	if cc.onStable != nil {
		protoOpts = append(protoOpts, faustproto.WithStableHandler(cc.onStable))
	}
	if cc.onFail != nil {
		protoOpts = append(protoOpts, faustproto.WithFailHandler(cc.onFail))
	}
	inner := faustproto.NewClient(i, s.ring, s.signers[i],
		s.network.ClientLink(i), s.hub.Endpoint(i), protoOpts...)
	inner.Start()
	s.clients[i] = &Client{id: i, n: s.n, inner: inner}
	return s.clients[i], nil
}

// Close stops all clients and shuts the service down.
func (s *Service) Close() {
	for _, c := range s.clients {
		if c != nil {
			c.inner.Stop()
		}
	}
	s.network.Stop()
	s.hub.Stop()
}

// Client is one collaborator's handle to the fail-aware service. Methods
// are safe for concurrent use; operations are serialized per client as
// the model requires.
type Client struct {
	id    int
	n     int
	inner *faustproto.Client
}

// ID returns the client index; the client writes register ID() and may
// read any register.
func (c *Client) ID() int { return c.id }

// Write stores x in the client's own register and returns the operation's
// timestamp. The operation is immediately causally consistent; track its
// stability via StableCut, WaitStable, or an OnStable callback.
func (c *Client) Write(x []byte) (Timestamp, error) {
	return c.inner.Write(x)
}

// Read returns the current value of register j (nil if never written) and
// the operation's timestamp.
func (c *Client) Read(j int) ([]byte, Timestamp, error) {
	if j < 0 || j >= c.n {
		return nil, 0, fmt.Errorf("faust: register %d out of range [0,%d)", j, c.n)
	}
	return c.inner.Read(j)
}

// StableCut returns the current stability cut.
func (c *Client) StableCut() Cut { return c.inner.StableCut() }

// IsStable reports whether the operation with the given timestamp is
// stable w.r.t. every client; the execution prefix up to a stable
// operation is linearizable.
func (c *Client) IsStable(t Timestamp) bool { return c.inner.IsStable(t) }

// WaitStable blocks until the operation with timestamp t is stable w.r.t.
// all clients, a failure is detected (the detection error is returned),
// or the timeout elapses.
func (c *Client) WaitStable(t Timestamp, timeout time.Duration) error {
	return c.inner.WaitStable(t, timeout)
}

// WaitStableFor blocks until the operation with timestamp t is stable
// w.r.t. client j.
func (c *Client) WaitStableFor(j int, t Timestamp, timeout time.Duration) error {
	return c.inner.WaitStableFor(j, t, timeout)
}

// Failed reports whether this client has detected a server failure, and
// the reason. A failure is proof of misbehavior — the service never
// reports false positives.
func (c *Client) Failed() (bool, error) { return c.inner.Failed() }

// WaitFail blocks until a failure is detected (returns nil) or the
// timeout elapses (returns an error). Useful in tests and monitoring.
func (c *Client) WaitFail(timeout time.Duration) error {
	return c.inner.WaitFail(timeout)
}

// Stop halts this client's background machinery. It is not a failure.
func (c *Client) Stop() { c.inner.Stop() }
