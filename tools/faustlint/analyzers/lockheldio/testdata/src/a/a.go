// Fixture for the lockheldio analyzer.
package a

import (
	"net"
	"os"
	"sync"
)

// Link mirrors the transport link contract: Send/Recv on an interface
// count as blocking transport I/O.
type Link interface {
	Send(m int) error
	Recv() (int, error)
}

// File mirrors a storage seam's file handle: Sync on an interface is
// the disk barrier.
type File interface {
	Sync() error
}

type Blobs interface {
	PutBlob(key string, data []byte) error
	GetBlob(key string) ([]byte, error)
}

type server struct {
	mu      sync.Mutex
	rw      sync.RWMutex
	wmu     sync.Mutex
	flushMu sync.Mutex
	conn    net.Conn
	file    *os.File
	seam    File
	link    Link
	blobs   Blobs
	state   int
}

func (s *server) writeUnderStateLock(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.conn.Write(b) // want `can block on I/O while mutex s\.mu is held`
	return err
}

func (s *server) syncUnderStateLock() error {
	s.mu.Lock()
	err := s.file.Sync() // want `\(\*os\.File\)\.Sync can block on I/O while mutex s\.mu is held`
	s.mu.Unlock()
	return err
}

func (s *server) seamSyncUnderStateLock() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seam.Sync() // want `Sync can block on I/O while mutex s\.mu is held`
}

// seamSyncUnderFlushLock: flushMu serializes the barrier by design.
func (s *server) seamSyncUnderFlushLock() error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	return s.seam.Sync()
}

func (s *server) sendUnderReadLock() error {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.link.Send(1) // want `Send can block on I/O while mutex s\.rw is held`
}

func (s *server) blobUnderStateLock() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.blobs.PutBlob("k", nil) // want `PutBlob can block on I/O while mutex s\.mu is held`
}

// narrowedCriticalSection drops the lock before the write: clean.
func (s *server) narrowedCriticalSection(b []byte) error {
	s.mu.Lock()
	s.state++
	s.mu.Unlock()
	_, err := s.conn.Write(b)
	return err
}

// serializationLockIsExempt: wmu exists to be held across the write.
func (s *server) serializationLockIsExempt(b []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	_, err := s.conn.Write(b)
	return err
}

// earlyReturnUnlock: the error path unlocks and leaves; the fall-through
// path still holds the lock, so the write after the if is flagged.
func (s *server) earlyReturnUnlock(b []byte, bad bool) error {
	s.mu.Lock()
	if bad {
		s.mu.Unlock()
		return nil
	}
	_, err := s.conn.Write(b) // want `can block on I/O while mutex s\.mu is held`
	s.mu.Unlock()
	return err
}

// bothBranchesUnlock: every rejoining path released the lock.
func (s *server) bothBranchesUnlock(b []byte, fast bool) error {
	s.mu.Lock()
	if fast {
		s.mu.Unlock()
	} else {
		s.state++
		s.mu.Unlock()
	}
	_, err := s.conn.Write(b)
	return err
}

// writeInsideUnlockedBranch: the branch unlocks first, then writes.
func (s *server) writeInsideUnlockedBranch(b []byte, flush bool) error {
	s.mu.Lock()
	if flush {
		s.mu.Unlock()
		_, err := s.conn.Write(b)
		return err
	}
	s.mu.Unlock()
	return nil
}

// goroutineEscapes: the spawned body runs without the spawner's lock.
func (s *server) goroutineEscapes(b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		_, _ = s.conn.Write(b)
	}()
}

// justified ignore: suppressed.
func (s *server) sessionLockSend() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//faustlint:ignore lockheldio session lock intentionally spans the protocol round
	return s.link.Send(2)
}

// unjustified ignore: NOT honored, and called out.
func (s *server) unjustifiedIgnore() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//faustlint:ignore lockheldio
	return s.link.Send(3) // want `missing a justification — not honored`
}
