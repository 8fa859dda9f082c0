// Package store gives the USTOR server durable, recoverable state.
//
// The paper models the server as a pure in-memory state machine
// (Algorithm 2), so a restart would silently roll every client back to an
// older state — indistinguishable, from the clients' point of view, from a
// malicious rollback attack, and therefore guaranteed to trip the
// fail-awareness checks. This package closes that gap with classic
// write-ahead logging: every SUBMIT and COMMIT is appended to a log
// *before* it is applied, and the full server state (wire.ServerState) is
// snapshotted periodically. Recovery loads the newest valid snapshot and
// replays the log tail; because the server is deterministic, the recovered
// state is bit-for-bit the pre-crash state, and clients resume without
// noticing.
//
// The flip side is deliberate: the store authenticates nothing. A log
// truncated by an attacker recovers "successfully" into a stale state —
// and the protocol's client-side checks (Algorithm 1 line 36) then expose
// the rollback exactly as they expose a lying live server. Durability here
// protects against crashes; fail-awareness protects against everything
// else.
//
// FileBackend is the one Backend: CRC-checksummed length-prefixed WAL
// segments plus atomic snapshot files, tolerating a torn final record
// after a crash. It and FileBlobs make every filesystem call through one
// seam, so the same code runs on the OS (OpenFile, OpenFileBlobs) and on
// a MemDisk, the in-memory disk that tests, benchmarks and the simulator
// crash and fault.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"

	"faust/internal/wire"
)

// Record is one durably logged server input: a SUBMIT or COMMIT message
// together with the index of the client that sent it. These are the only
// messages that mutate server state, so they are exactly what recovery
// must replay.
type Record struct {
	From int
	Msg  wire.Message // *wire.Submit or *wire.Commit
}

// ErrBadRecord reports a record that is not a SUBMIT or COMMIT, or whose
// encoding is malformed.
var ErrBadRecord = errors.New("store: record is not a SUBMIT or COMMIT")

// DecodeRecord parses a record payload as a WAL frame carries it: u32
// client index followed by the wire encoding of the message. Like
// wire.Decode it takes over data: the record's message aliases the
// buffer, which the caller must never write to or reuse.
func DecodeRecord(data []byte) (Record, error) {
	if len(data) < 4 {
		return Record{}, ErrBadRecord
	}
	from := int(int32(binary.BigEndian.Uint32(data)))
	m, err := wire.Decode(data[4:])
	if err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	switch m.(type) {
	case *wire.Submit, *wire.Commit:
	default:
		return Record{}, ErrBadRecord
	}
	return Record{From: from, Msg: m}, nil
}

// Backend persists server state as a snapshot plus a log tail. The
// Persistent wrapper drives it with WAL discipline: Load once on open,
// Append before every state change, Flush before any reply escapes,
// WriteSnapshot periodically. FileBackend implements it, on the OS or on
// a MemDisk.
//
// Implementations must be safe for concurrent Append/Flush calls: the
// group-commit FileBackend coalesces appends from concurrent callers into
// a single write + sync.
type Backend interface {
	// Load returns the recovery baseline: the newest valid snapshot (nil
	// if none was ever written) and the log records appended after it, in
	// order. Called once, before any Append or WriteSnapshot.
	Load() (snapshot []byte, tail []Record, err error)
	// Append logs one record. Immediate-mode backends make it durable
	// before returning; group-commit backends may buffer, in which case
	// the record is durable only after the next Flush. Either way the
	// record's position in the log equals its Append order.
	Append(rec Record) error
	// Flush makes every record appended so far durable (to the degree the
	// backend is configured for — process-crash or power-loss). It must
	// not return before that point; concurrent Flush calls may coalesce
	// into one sync. A no-op for immediate-mode backends.
	Flush() error
	// WriteSnapshot atomically replaces the recovery baseline: after it
	// returns, a Load observes state with an empty tail, and log records
	// covered by the snapshot may be reclaimed. A crash during
	// WriteSnapshot must leave the previous baseline intact. Buffered
	// records are flushed or superseded; none are lost.
	WriteSnapshot(state []byte) error
	// Close flushes buffered records and releases resources. The backend
	// stays recoverable.
	Close() error
}
