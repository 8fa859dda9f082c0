// Package offline implements the reliable offline client-to-client
// communication method of the paper's model (Section 2, Figure 1): a
// message sent from one client to another is eventually delivered even if
// the two clients are never simultaneously connected.
//
// The in-memory Hub realizes this with unbounded store-and-forward
// inboxes: a recipient that is slow, busy, or "offline" simply finds all
// pending messages when it next receives. Per sender-recipient pair, FIFO
// order is preserved. FAUST uses this channel for its PROBE / VERSION /
// FAILURE exchange (Section 6).
package offline

import (
	"errors"
	"fmt"
	"sync"

	"faust/internal/wire"
)

// ErrClosed is returned after an endpoint or the hub has been closed.
var ErrClosed = errors.New("offline: endpoint closed")

// Msg is a delivered offline message together with its sender.
type Msg struct {
	From int
	Body wire.Message
}

// Channel is one client's attachment to the offline communication method,
// abstracting over the in-memory Hub and the TCP mesh so the FAUST layer
// works with either.
type Channel interface {
	// ID returns the owning client's index.
	ID() int
	// Send reliably delivers m to client to (eventually, even if the
	// recipient is currently offline).
	Send(to int, m wire.Message) error
	// Broadcast sends m to every other client.
	Broadcast(m wire.Message) error
	// Recv blocks for the next message or returns ErrClosed.
	Recv() (Msg, error)
	// Close shuts the channel down.
	Close()
}

// Endpoint is one client's attachment to the in-memory offline channel.
type Endpoint struct {
	hub *Hub
	id  int

	mu     sync.Mutex
	cond   *sync.Cond
	inbox  []Msg
	closed bool
}

// Hub connects n endpoints with reliable eventual delivery.
type Hub struct {
	endpoints []*Endpoint
}

// NewHub creates a hub with n endpoints, one per client.
func NewHub(n int) *Hub {
	h := &Hub{endpoints: make([]*Endpoint, n)}
	for i := 0; i < n; i++ {
		e := &Endpoint{hub: h, id: i}
		e.cond = sync.NewCond(&e.mu)
		h.endpoints[i] = e
	}
	return h
}

// N returns the number of endpoints.
func (h *Hub) N() int { return len(h.endpoints) }

// Endpoint returns client i's endpoint.
func (h *Hub) Endpoint(i int) *Endpoint { return h.endpoints[i] }

// Stop closes all endpoints; blocked Recv calls return ErrClosed after
// draining already-delivered messages.
func (h *Hub) Stop() {
	for _, e := range h.endpoints {
		e.Close()
	}
}

// ID returns the client index of this endpoint.
func (e *Endpoint) ID() int { return e.id }

// Send delivers m to client `to`'s inbox. Delivery is reliable: it
// succeeds even when the recipient is not currently receiving. Sending to
// self or out of range is an error.
func (e *Endpoint) Send(to int, m wire.Message) error {
	if to < 0 || to >= len(e.hub.endpoints) {
		return fmt.Errorf("offline: recipient %d out of range [0,%d)", to, len(e.hub.endpoints))
	}
	if to == e.id {
		return fmt.Errorf("offline: client %d cannot send to itself", e.id)
	}
	e.mu.Lock()
	senderClosed := e.closed
	e.mu.Unlock()
	if senderClosed {
		return ErrClosed
	}
	return e.hub.endpoints[to].deliver(Msg{From: e.id, Body: m})
}

// Broadcast sends m to every other endpoint. A closed recipient does not
// abort the rest; the first delivery error (other than a closed
// recipient) is returned.
func (e *Endpoint) Broadcast(m wire.Message) error {
	var firstErr error
	for i := range e.hub.endpoints {
		if i == e.id {
			continue
		}
		if err := e.Send(i, m); err != nil && !errors.Is(err, ErrClosed) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (e *Endpoint) deliver(m Msg) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		// A crashed client never receives; the model allows that (clients
		// may fail by crashing). The send itself is not an error.
		return nil
	}
	e.inbox = append(e.inbox, m)
	e.cond.Signal()
	return nil
}

// Recv blocks until a message is available or the endpoint closes.
// Messages already delivered before Close are still returned.
func (e *Endpoint) Recv() (Msg, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.inbox) == 0 && !e.closed {
		e.cond.Wait()
	}
	if len(e.inbox) == 0 {
		return Msg{}, ErrClosed
	}
	m := e.inbox[0]
	e.inbox[0] = Msg{}
	e.inbox = e.inbox[1:]
	return m, nil
}

// Pending returns the number of queued messages.
func (e *Endpoint) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.inbox)
}

// Close marks the endpoint closed and wakes blocked receivers. Close is
// idempotent.
func (e *Endpoint) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	e.cond.Broadcast()
}
