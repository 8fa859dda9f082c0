package offline

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"faust/internal/wire"
)

// TCPMesh is the networked implementation of the offline client-to-client
// channel: every client listens on its own address and sends directly to
// its peers. Sends to unreachable peers are queued and retried in the
// background, which realizes the model's reliable eventual delivery —
// messages arrive even if sender and recipient are never online at the
// same time (as long as the sender's queue survives).
//
// Framing: 4-byte big-endian length, then a 4-byte sender ID, then the
// canonical wire encoding.
type TCPMesh struct {
	id    int
	ln    net.Listener
	peers map[int]string

	mu      sync.Mutex
	cond    *sync.Cond
	inbox   []Msg
	pending map[int][][]byte // queued frames per unreachable peer
	closed  bool

	retry time.Duration
	wg    sync.WaitGroup
	done  chan struct{}
}

var _ Channel = (*TCPMesh)(nil)

// ListenTCP creates the mesh endpoint for client id, listening on
// listenAddr, with peers mapping every other client ID to its address.
// retry is the interval for redelivering queued messages (0 means 500ms).
func ListenTCP(id int, listenAddr string, peers map[int]string, retry time.Duration) (*TCPMesh, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("offline: listen %s: %w", listenAddr, err)
	}
	if retry <= 0 {
		retry = 500 * time.Millisecond
	}
	m := &TCPMesh{
		id:      id,
		ln:      ln,
		peers:   peers,
		pending: make(map[int][][]byte),
		retry:   retry,
		done:    make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	m.wg.Add(2)
	go m.acceptLoop()
	go m.retryLoop()
	return m, nil
}

// Addr returns the listening address.
func (m *TCPMesh) Addr() net.Addr { return m.ln.Addr() }

// ID implements Channel.
func (m *TCPMesh) ID() int { return m.id }

// Send implements Channel: it attempts direct delivery and falls back to
// queue-and-retry.
func (m *TCPMesh) Send(to int, msg wire.Message) error {
	if to == m.id {
		return fmt.Errorf("offline: client %d cannot send to itself", m.id)
	}
	addr, known := m.peers[to]
	if !known {
		return fmt.Errorf("offline: no address for client %d", to)
	}
	frame := m.frame(msg)
	if err := deliverTCP(addr, frame); err != nil {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return ErrClosed
		}
		m.pending[to] = append(m.pending[to], frame)
		m.mu.Unlock()
	}
	return nil
}

// Broadcast implements Channel.
func (m *TCPMesh) Broadcast(msg wire.Message) error {
	var firstErr error
	for to := range m.peers {
		if to == m.id {
			continue
		}
		if err := m.Send(to, msg); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Recv implements Channel.
func (m *TCPMesh) Recv() (Msg, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.inbox) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.inbox) == 0 {
		return Msg{}, ErrClosed
	}
	out := m.inbox[0]
	m.inbox[0] = Msg{}
	m.inbox = m.inbox[1:]
	return out, nil
}

// Close implements Channel.
func (m *TCPMesh) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	close(m.done)
	_ = m.ln.Close()
	m.wg.Wait()
}

func (m *TCPMesh) frame(msg wire.Message) []byte {
	frame := make([]byte, 8, 256)
	binary.BigEndian.PutUint32(frame[4:], uint32(m.id))
	frame = wire.AppendEncode(frame, msg)
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame
}

func deliverTCP(addr string, frame []byte) error {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	_, err = conn.Write(frame)
	return err
}

func (m *TCPMesh) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return
		}
		m.wg.Add(1)
		go m.readConn(conn)
	}
}

func (m *TCPMesh) readConn(conn net.Conn) {
	defer m.wg.Done()
	defer conn.Close()
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n < 4 || n > 1<<24 {
			return
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(conn, body); err != nil {
			return
		}
		from := int(binary.BigEndian.Uint32(body[:4]))
		msg, err := wire.Decode(body[4:])
		if err != nil {
			continue // a malformed message carries no information
		}
		m.mu.Lock()
		if !m.closed {
			m.inbox = append(m.inbox, Msg{From: from, Body: msg})
			m.cond.Signal()
		}
		m.mu.Unlock()
	}
}

// retryLoop redelivers queued frames, providing eventual delivery to
// peers that were offline.
func (m *TCPMesh) retryLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.retry)
	defer ticker.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-ticker.C:
		}
		m.mu.Lock()
		work := make(map[int][][]byte, len(m.pending))
		for to, frames := range m.pending {
			work[to] = frames
		}
		m.pending = make(map[int][][]byte)
		m.mu.Unlock()

		for to, frames := range work {
			addr := m.peers[to]
			var failed [][]byte
			for _, f := range frames {
				if err := deliverTCP(addr, f); err != nil {
					failed = append(failed, f)
				}
			}
			if len(failed) > 0 {
				m.mu.Lock()
				if !m.closed {
					m.pending[to] = append(failed, m.pending[to]...)
				}
				m.mu.Unlock()
			}
		}
	}
}
