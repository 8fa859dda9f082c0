package store

import (
	"context"
	"fmt"
	"sync"

	"faust/internal/obs/trace"
	"faust/internal/wire"
)

// Core is the server state machine the store can persist: the ServerCore
// handlers plus state export/import. ustor.Server implements it; any
// deterministic core with the same message interface can be persisted the
// same way.
type Core interface {
	HandleSubmit(ctx context.Context, from int, s *wire.Submit) *wire.Reply
	HandleCommit(ctx context.Context, from int, c *wire.Commit)
	ExportState() []byte
	RestoreState(state []byte) error
}

// Options configures a Persistent server.
type Options struct {
	// SnapshotEvery takes a snapshot after that many logged records,
	// bounding both recovery replay time and WAL size. Zero disables
	// automatic snapshots; Snapshot can still be called explicitly.
	SnapshotEvery int
}

// Persistent wraps a Core with write-ahead logging: every SUBMIT and
// COMMIT is appended to the backend before it is applied, so the applied
// state never runs ahead of the log. It implements transport.ServerCore
// and drops in wherever a plain server is served.
//
// Durability points follow the replies. A SUBMIT's record — and, by log
// order, every record buffered before it — is flushed before its REPLY is
// returned, so no client ever observes an operation that recovery cannot
// replay. COMMIT messages have no reply, so their records may stay in the
// group-commit buffer until the next SUBMIT, snapshot or background flush
// picks them up. A crash inside that window loses the commit — the same
// outcome as a crash between receipt and logging, which immediate mode
// has too, just over a wider (flush-interval-bounded) window. Losing a
// commit never lets a client accept a rollback, and it ends one of two
// ways. If the committing client's next operation comes first, it sees a
// server version behind its own and reports the server faulty (Algorithm
// 1 line 36). If another client's later COMMIT covers the lost one first,
// that COMMIT's HandleCommit prunes the operation from L, and the state
// heals with no check firing. The simulator (internal/sim) runs this
// wrapper over a FileBackend on a MemDisk; its batch-crash-lost row fails
// a WAL write before it lands, loses such tails and produces both
// outcomes.
//
// If the backend ever fails to append or flush, the server stops replying
// (nil REPLYs) rather than serve operations it cannot make durable — to
// the clients this is indistinguishable from a crashed server, which is
// the honest signal: wait-freedom is lost, integrity is not.
type Persistent struct {
	mu      sync.Mutex
	core    Core
	backend Backend
	opts    Options

	sinceSnap int
	broken    error // sticky persistence failure

	recoveredSnapshot bool
	recoveredRecords  int
}

// Open recovers the core's state from the backend — newest snapshot, then
// WAL tail replay — and returns the persistent wrapper ready to serve.
func Open(core Core, backend Backend, opts Options) (*Persistent, error) {
	state, tail, err := backend.Load()
	if err != nil {
		return nil, fmt.Errorf("store: loading backend: %w", err)
	}
	if state != nil {
		if err := core.RestoreState(state); err != nil {
			return nil, fmt.Errorf("store: restoring snapshot: %w", err)
		}
	}
	for i, rec := range tail {
		switch m := rec.Msg.(type) {
		case *wire.Submit:
			core.HandleSubmit(context.Background(), rec.From, m)
		case *wire.Commit:
			core.HandleCommit(context.Background(), rec.From, m)
		default:
			return nil, fmt.Errorf("store: WAL record %d: %w", i, ErrBadRecord)
		}
	}
	return &Persistent{
		core:              core,
		backend:           backend,
		opts:              opts,
		recoveredSnapshot: state != nil,
		recoveredRecords:  len(tail),
	}, nil
}

// Recovered reports what Open found: whether a snapshot was restored and
// how many WAL records were replayed on top of it.
func (p *Persistent) Recovered() (fromSnapshot bool, replayed int) {
	return p.recoveredSnapshot, p.recoveredRecords
}

// N reports the wrapped core's client-group size, or -1 when the core does
// not expose one. The TCP transport uses it to reject handshake IDs
// outside [0, N) before they can occupy connection-table entries.
func (p *Persistent) N() int {
	if sized, ok := p.core.(interface{ N() int }); ok {
		return sized.N()
	}
	return -1
}

// HandleSubmit implements transport.ServerCore as the batch of one:
// HandleSubmitBuffered, then FlushBatch before the reply escapes — one sync
// covers this SUBMIT plus every record buffered ahead of it. The
// transport's dispatcher never calls it (it drives the two halves itself
// so a whole batch shares the flush); it serves callers that hold the
// core directly.
func (p *Persistent) HandleSubmit(ctx context.Context, from int, s *wire.Submit) *wire.Reply {
	reply := p.HandleSubmitBuffered(ctx, from, s)
	if p.FlushBatch() != nil {
		return nil
	}
	return reply
}

// HandleSubmitBuffered logs and applies the SUBMIT but leaves the backend
// flush to a later FlushBatch call, so a whole dispatcher batch shares one
// fsync. The caller (the transport's dispatcher) MUST withhold the
// returned reply until FlushBatch succeeds. A nil reply means this op must
// not be acknowledged regardless of the flush outcome.
func (p *Persistent) HandleSubmitBuffered(ctx context.Context, from int, s *wire.Submit) *wire.Reply {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken != nil {
		return nil
	}
	_, ha := trace.Child(ctx, "wal.append")
	err := p.backend.Append(Record{From: from, Msg: s})
	ha.End()
	if err != nil {
		p.broken = err
		return nil
	}
	reply := p.core.HandleSubmit(ctx, from, s)
	p.bumpLocked()
	if p.broken != nil { // snapshot rotation failed: stay silent
		return nil
	}
	return reply
}

// FlushBatch syncs every record buffered by HandleSubmitBuffered calls
// since the last flush. On failure the wrapper goes sticky-broken and the
// caller must suppress every reply the failed batch produced. The flush
// runs outside p.mu: the backend orders and coalesces concurrent flushes
// itself, so submitters arriving while a sync is in flight append behind
// it and share the next one instead of serializing on the wrapper lock.
func (p *Persistent) FlushBatch() error {
	p.mu.Lock()
	broken := p.broken
	p.mu.Unlock()
	if broken != nil {
		return broken
	}
	if err := p.backend.Flush(); err != nil {
		p.mu.Lock()
		p.broken = err
		p.mu.Unlock()
		return err
	}
	return nil
}

// HandleCommit implements transport.ServerCore: log, then apply.
func (p *Persistent) HandleCommit(ctx context.Context, from int, c *wire.Commit) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken != nil {
		return
	}
	if err := p.backend.Append(Record{From: from, Msg: c}); err != nil {
		p.broken = err
		return
	}
	p.core.HandleCommit(ctx, from, c)
	p.bumpLocked()
}

// bumpLocked counts one logged record and rotates a snapshot when due.
func (p *Persistent) bumpLocked() {
	p.sinceSnap++
	if p.opts.SnapshotEvery > 0 && p.sinceSnap >= p.opts.SnapshotEvery {
		if err := p.snapshotLocked(); err != nil {
			p.broken = err
		}
	}
}

func (p *Persistent) snapshotLocked() error {
	if err := p.backend.WriteSnapshot(p.core.ExportState()); err != nil {
		return err
	}
	p.sinceSnap = 0
	return nil
}

// Snapshot forces a snapshot rotation now, e.g. before a graceful
// shutdown so the next boot replays nothing.
func (p *Persistent) Snapshot() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken != nil {
		return p.broken
	}
	return p.snapshotLocked()
}

// ExportState returns the wrapped core's current state. Exposed so tests
// and operators can compare pre-crash and post-recovery state.
func (p *Persistent) ExportState() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.core.ExportState()
}

// Err returns the sticky persistence failure, if any.
func (p *Persistent) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.broken
}

// Close closes the backend. It does NOT snapshot: closing mid-workload
// must look exactly like a crash so recovery is exercised honestly; call
// Snapshot first for a fast next boot.
func (p *Persistent) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.backend.Close()
}
