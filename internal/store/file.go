package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"faust/internal/wire"
)

// On-disk layout. A directory holds generations of (snapshot, WAL segment)
// pairs:
//
//	snap-00000003       full server state at the start of generation 3
//	wal-00000003.log    records appended after that snapshot
//
// Generation 0 has no snapshot (the initial server state is implicit).
// Every WAL segment starts with an 8-byte magic, followed by records
// framed as u32 length || u32 CRC-32C || payload. Snapshots carry their
// own magic and the same length+CRC framing around a single payload.
//
// WriteSnapshot is crash-safe by ordering: the new snapshot is written to
// a temporary file, synced, and renamed into place before the new WAL
// segment is created and the old generation is deleted. Recovery picks the
// highest generation with a valid snapshot, so a crash at any point leaves
// either the old baseline or the new one, never neither.
//
// Recovery tolerates a torn final record (the append that was in flight
// when the process died): the WAL invariant guarantees the server never
// replied to an operation whose record did not finish writing, so dropping
// the torn tail loses nothing a client observed. The tail is truncated at
// the last valid record so subsequent appends continue a clean log.

const (
	walMagic    = "FAUSTWAL"
	snapMagic   = "FAUSTSNP"
	maxRecord   = 1 << 24 // matches the transport's frame limit
	frameHeader = 8       // u32 length + u32 crc
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptSnapshot reports that no valid snapshot could be read even
// though snapshot files exist.
var ErrCorruptSnapshot = errors.New("store: all snapshots corrupt")

// FileOptions configures a FileBackend.
type FileOptions struct {
	// Fsync syncs the WAL after appends and the directory after every
	// snapshot rotation. Off, the backend survives process crashes (the
	// OS page cache keeps writes); on, it also survives power loss, at a
	// per-operation cost the benchmarks quantify.
	Fsync bool
	// GroupCommit batches appends: records accumulate in a buffer and hit
	// the disk on the next Flush as one write plus (with Fsync) one
	// fdatasync. Concurrent flushers coalesce: a caller whose records were
	// covered by another caller's in-flight flush returns without a second
	// sync. Durability of an individual record is deferred to the next
	// Flush — exactly the WAL contract the Persistent wrapper needs, since
	// it flushes before any REPLY escapes. Off, every Append flushes
	// before returning: immediate mode is a group commit of one.
	GroupCommit bool
	// FlushInterval, with GroupCommit, bounds how long a buffered record
	// may linger before a background flush picks it up (idle servers would
	// otherwise keep the last COMMITs of a burst in memory indefinitely).
	// Zero disables the background flusher; Flush, WriteSnapshot and Close
	// still flush.
	FlushInterval time.Duration
}

// preallocChunk is the step in which WAL segments are grown ahead of the
// write offset. Appends then overwrite already-allocated zeros, so an
// fdatasync needs no metadata write — the classic WAL preallocation
// trick. Recovery treats the zero-filled tail as torn and truncates it.
const preallocChunk = 1 << 20

// FileBackend is the durable Backend: length-prefixed, CRC-checksummed WAL
// segments plus atomic snapshot files in a single directory.
//
// Every record is framed into a batch buffer and reaches the disk through
// Flush, in either mode. Lock order: flushMu (held across disk writes)
// before mu (guards buffers and handles, held only for memory operations).
type FileBackend struct {
	mu   sync.Mutex
	disk fsys
	dir  string
	opts FileOptions

	gen    uint64
	wal    file
	snap   []byte   // recovered snapshot, handed out by Load
	tail   []Record // recovered records, handed out by Load
	loaded bool
	closed bool

	flushMu     sync.Mutex
	buf         []byte // framed records awaiting flush
	spare       []byte // recycled batch buffer
	flushErr    error  // sticky write/sync failure
	off         int64  // end of written data in the current segment
	preallocEnd int64  // file size extended ahead of off
	flushStop   chan struct{}
	flushDone   chan struct{}
	stopOnce    sync.Once
}

var _ Backend = (*FileBackend)(nil)

func snapName(gen uint64) string { return fmt.Sprintf("snap-%08d", gen) }
func walName(gen uint64) string  { return fmt.Sprintf("wal-%08d.log", gen) }

// OpenFile opens (or initializes) a persistence directory and performs
// crash recovery: it selects the newest valid snapshot, replays the
// matching WAL segment tolerating a torn final record, truncates the torn
// tail, and removes files from older generations.
func OpenFile(dir string, opts FileOptions) (*FileBackend, error) {
	return openFile(osFS{}, dir, opts)
}

func openFile(disk fsys, dir string, opts FileOptions) (*FileBackend, error) {
	if err := disk.mkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	b := &FileBackend{disk: disk, dir: dir, opts: opts}
	if err := b.recover(); err != nil {
		return nil, err
	}
	if opts.GroupCommit && opts.FlushInterval > 0 {
		b.flushStop = make(chan struct{})
		b.flushDone = make(chan struct{})
		go b.flushLoop()
	}
	return b, nil
}

// flushLoop is the background group-commit flusher: it bounds how long a
// buffered record may stay memory-only while the server is idle.
func (b *FileBackend) flushLoop() {
	defer close(b.flushDone)
	ticker := time.NewTicker(b.opts.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-b.flushStop:
			return
		case <-ticker.C:
			_ = b.Flush() // errors are sticky; the next Append/Flush reports them
		}
	}
}

// recover selects the generation, reads snapshot and WAL, and leaves the
// WAL file open for appending.
func (b *FileBackend) recover() error {
	snaps, wals, stale, err := scanDir(b.disk, b.dir)
	if err != nil {
		return err
	}
	// Newest valid snapshot wins; generation 0 (no snapshot) is the
	// fallback baseline.
	b.gen = 0
	for i := len(snaps) - 1; i >= 0; i-- {
		state, err := readSnapshot(b.disk, filepath.Join(b.dir, snapName(snaps[i])))
		if err == nil {
			b.gen = snaps[i]
			b.snap = state
			break
		}
	}
	if b.snap == nil && len(snaps) > 0 {
		return fmt.Errorf("%w in %s", ErrCorruptSnapshot, b.dir)
	}

	wal, tail, valid, err := b.openSegment(b.gen, false)
	if err != nil {
		return err
	}
	b.wal = wal
	b.tail = tail
	b.off = valid
	b.preallocEnd = valid

	// Best-effort cleanup of other generations and of temporary files from
	// an interrupted snapshot rotation. Older generations are superseded by
	// the chosen baseline; newer ones are rotation debris whose snapshot
	// failed validation (otherwise they would have been chosen).
	for _, g := range snaps {
		if g != b.gen {
			_ = b.disk.remove(filepath.Join(b.dir, snapName(g)))
		}
	}
	for _, g := range wals {
		if g != b.gen {
			_ = b.disk.remove(filepath.Join(b.dir, walName(g)))
		}
	}
	for _, name := range stale {
		_ = b.disk.remove(filepath.Join(b.dir, name))
	}
	return nil
}

// scanDir lists the snapshot and WAL generations present in dir, in
// ascending order, plus leftover temporary files.
func scanDir(disk fsys, dir string) (snaps, wals []uint64, stale []string, err error) {
	names, err := disk.readDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("store: reading %s: %w", dir, err)
	}
	for _, name := range names {
		var g uint64
		switch {
		case strings.HasSuffix(name, ".tmp"):
			stale = append(stale, name)
		case strings.HasPrefix(name, "snap-"):
			if _, err := fmt.Sscanf(name, "snap-%08d", &g); err == nil && snapName(g) == name {
				snaps = append(snaps, g)
			}
		case strings.HasPrefix(name, "wal-"):
			if _, err := fmt.Sscanf(name, "wal-%08d.log", &g); err == nil && walName(g) == name {
				wals = append(wals, g)
			}
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })
	return snaps, wals, stale, nil
}

// readSnapshot reads and validates one snapshot file.
func readSnapshot(disk fsys, path string) ([]byte, error) {
	data, err := disk.readFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(snapMagic)+frameHeader || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("store: %s: bad snapshot header", path)
	}
	body := data[len(snapMagic):]
	length := binary.BigEndian.Uint32(body)
	sum := binary.BigEndian.Uint32(body[4:])
	payload := body[frameHeader:]
	if uint32(len(payload)) != length || crc32.Checksum(payload, crcTable) != sum {
		return nil, fmt.Errorf("store: %s: snapshot checksum mismatch", path)
	}
	return append([]byte(nil), payload...), nil
}

// writeSnapshotFile writes state to path atomically.
func writeSnapshotFile(disk fsys, path string, state []byte, fsync bool) error {
	buf := make([]byte, 0, len(snapMagic)+frameHeader+len(state))
	buf = append(buf, snapMagic...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(state)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(state, crcTable))
	buf = append(buf, state...)
	return writeAtomic(disk, path, buf, fsync)
}

// openSegment opens generation gen's WAL segment for appending and
// returns it with its records and valid end offset. A fresh segment starts
// empty even if a file of that name survived an interrupted earlier
// rotation — its records predate the new snapshot, whatever state they
// are in. Otherwise the records are parsed, and a torn or corrupt tail
// (including the zero-filled padding a preallocated segment leaves after
// a crash) is dropped and truncated away.
func (b *FileBackend) openSegment(gen uint64, fresh bool) (file, []Record, int64, error) {
	path := filepath.Join(b.dir, walName(gen))
	var data []byte
	var err error
	if !fresh {
		if data, err = b.disk.readFile(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, nil, 0, fmt.Errorf("store: reading WAL %s: %w", path, err)
		}
	}
	f, err := b.disk.openFile(path)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("store: opening WAL %s: %w", path, err)
	}
	var tail []Record
	valid := int64(len(walMagic))
	switch {
	case len(data) < len(walMagic):
		// Fresh, empty or torn at creation: no record was ever fully
		// written, so nothing can be lost by starting the segment over.
		if err = f.Truncate(0); err == nil {
			_, err = f.WriteAt([]byte(walMagic), 0)
		}
	case string(data[:len(walMagic)]) != walMagic:
		err = fmt.Errorf("store: %s is not a WAL segment", path)
	default:
		var offsets []int64
		tail, offsets = scanRecords(data, true)
		valid = offsets[len(offsets)-1]
		err = f.Truncate(valid)
	}
	if err == nil && b.opts.Fsync {
		// The segment may have just been created (or truncated): persist
		// its directory entry too, or power loss could drop the whole file
		// out from under the per-append syncs.
		if err = f.Sync(); err == nil {
			err = b.disk.syncDir(b.dir)
		}
	}
	if err != nil {
		_ = f.Close()
		return nil, nil, 0, err
	}
	return f, tail, valid, nil
}

// scanRecords walks the framed records of a WAL image and returns the
// decoded records (when collect is true) plus the end offset of every
// valid record: offsets[0] is the start of the record area and
// offsets[len-1] the end of the valid prefix. The scan stops at the first
// torn, corrupt or undecodable frame — it is the single definition of
// record validity, shared by recovery and RollbackWAL so the two can
// never disagree about where records end.
func scanRecords(data []byte, collect bool) ([]Record, []int64) {
	var tail []Record
	offsets := []int64{int64(len(walMagic))}
	rest := data[len(walMagic):]
	for len(rest) >= frameHeader {
		length := binary.BigEndian.Uint32(rest)
		sum := binary.BigEndian.Uint32(rest[4:])
		if length > maxRecord || uint32(len(rest)-frameHeader) < length {
			break // torn or insane length: drop the tail
		}
		payload := rest[frameHeader : frameHeader+length]
		if crc32.Checksum(payload, crcTable) != sum {
			break // bit rot or torn write inside the record
		}
		if collect {
			// Decoding aliases its input and a collected record lives on in
			// server state: a buffer per record pins a record, not the segment.
			payload = append([]byte(nil), payload...)
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			break // framing intact but content undecodable: treat as torn
		}
		if collect {
			tail = append(tail, rec)
		}
		advance := int64(frameHeader) + int64(length)
		offsets = append(offsets, offsets[len(offsets)-1]+advance)
		rest = rest[advance:]
	}
	return tail, offsets
}

// Load implements Backend.
func (b *FileBackend) Load() ([]byte, []Record, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.loaded {
		return nil, nil, errors.New("store: Load called twice")
	}
	b.loaded = true
	snap, tail := b.snap, b.tail
	b.snap, b.tail = nil, nil
	return snap, tail, nil
}

// appendFramed frames rec (u32 len | u32 crc | payload) directly into buf
// and returns the extended slice — no intermediate allocation, so Append
// encodes straight into the shared batch buffer.
func appendFramed(buf []byte, rec Record) ([]byte, error) {
	switch rec.Msg.(type) {
	case *wire.Submit, *wire.Commit:
	default:
		return buf, ErrBadRecord
	}
	start := len(buf)
	buf = append(buf, make([]byte, frameHeader)...) // header backfilled below
	buf = binary.BigEndian.AppendUint32(buf, uint32(rec.From))
	buf = wire.AppendEncode(buf, rec.Msg)
	payload := buf[start+frameHeader:]
	if len(payload) > maxRecord {
		//faustlint:ignore hotpathalloc oversize-record rejection path; allocating the error here is fine because the record is discarded anyway
		return buf[:start], fmt.Errorf("store: record of %d bytes exceeds limit", len(payload))
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf, nil
}

// Append implements Backend. The record lands in the batch buffer; in
// group-commit mode it becomes durable on the next Flush, otherwise Append
// flushes it (and everything buffered ahead of it) before returning.
func (b *FileBackend) Append(rec Record) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return errors.New("store: backend closed")
	}
	if b.flushErr != nil {
		err := b.flushErr
		b.mu.Unlock()
		return err
	}
	var err error
	b.buf, err = appendFramed(b.buf, rec)
	b.mu.Unlock()
	if err != nil {
		return err
	}
	smAppends.Inc()
	if b.opts.GroupCommit {
		return nil
	}
	return b.Flush()
}

// Flush implements Backend: it writes the batched records in one write
// syscall and (with Fsync) one fdatasync. Concurrent callers coalesce —
// whoever wins the flush lock carries every record buffered so far, and
// the others observe an empty buffer and return.
func (b *FileBackend) Flush() error {
	b.flushMu.Lock()
	defer b.flushMu.Unlock()
	return b.flushLocked()
}

// flushLocked is Flush with flushMu already held (WriteSnapshot and Close
// reuse it as part of their larger critical sections).
func (b *FileBackend) flushLocked() error {
	b.mu.Lock()
	if b.flushErr != nil {
		err := b.flushErr
		b.mu.Unlock()
		return err
	}
	if len(b.buf) == 0 {
		b.mu.Unlock()
		return nil
	}
	batch := b.buf
	b.buf = b.spare[:0] // swap buffers so appenders continue during the write
	wal, off, preallocEnd := b.wal, b.off, b.preallocEnd
	b.mu.Unlock()

	err := writeBatch(wal, batch, off, &preallocEnd, b.opts.Fsync)

	b.mu.Lock()
	b.spare = batch[:0]
	b.preallocEnd = preallocEnd
	if err != nil {
		b.flushErr = err
	} else {
		b.off = off + int64(len(batch))
	}
	b.mu.Unlock()
	return err
}

// zeroChunk is the write-ahead padding installed by preallocation. It is
// written, not just reserved: materializing the blocks up front means a
// steady-state flush changes no file metadata (no size update, no extent
// allocation, no unwritten-extent conversion), so its fdatasync is a pure
// data flush — the preallocation discipline production WALs (etcd, etc.)
// use.
var zeroChunk = make([]byte, preallocChunk)

// writeBatch persists one batch at offset off, zero-filling the file in
// preallocChunk steps ahead of the data so the (data)sync does not have to
// update file metadata on the steady path. Recovery treats the zero
// padding as a torn tail and truncates it.
func writeBatch(wal file, batch []byte, off int64, preallocEnd *int64, sync bool) error {
	if end := off + int64(len(batch)); end > *preallocEnd {
		grown := (end/preallocChunk + 1) * preallocChunk
		for at := *preallocEnd; at < grown; at += preallocChunk {
			n := grown - at
			if n > preallocChunk {
				n = preallocChunk
			}
			if _, err := wal.WriteAt(zeroChunk[:n], at); err != nil {
				return fmt.Errorf("store: preallocating WAL: %w", err)
			}
		}
		*preallocEnd = grown
	}
	if _, err := wal.WriteAt(batch, off); err != nil {
		return fmt.Errorf("store: appending WAL batch: %w", err)
	}
	if sync {
		start := time.Now()
		err := wal.Sync()
		smFsyncNs.ObserveSince(start)
		if err != nil {
			return fmt.Errorf("store: syncing WAL: %w", err)
		}
	}
	return nil
}

// WriteSnapshot implements Backend. See the layout comment for the
// crash-safe ordering. The pending batch is flushed into the outgoing
// segment first, so the rotation never drops a record that is not covered
// by the new snapshot.
func (b *FileBackend) WriteSnapshot(state []byte) error {
	b.flushMu.Lock()
	defer b.flushMu.Unlock()
	if err := b.flushLocked(); err != nil {
		return err
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return errors.New("store: backend closed")
	}
	next := b.gen + 1
	b.mu.Unlock()

	// The heavy I/O — snapshot write, segment creation, syncs — runs with
	// only flushMu held. Appenders keep making progress: appends buffer
	// under the state lock, and an immediate-mode Append's flush queues on
	// flushMu exactly as it would behind any other flush.
	if err := writeSnapshotFile(b.disk, filepath.Join(b.dir, snapName(next)), state, b.opts.Fsync); err != nil {
		return fmt.Errorf("store: writing snapshot %d: %w", next, err)
	}
	wal, _, _, err := b.openSegment(next, true)
	if err != nil {
		return fmt.Errorf("store: creating WAL segment %d: %w", next, err)
	}
	b.mu.Lock()
	old := b.gen
	_ = b.wal.Close()
	b.wal = wal
	b.gen = next
	b.off = int64(len(walMagic))
	b.preallocEnd = b.off
	b.mu.Unlock()
	_ = b.disk.remove(filepath.Join(b.dir, walName(old)))
	if old > 0 {
		_ = b.disk.remove(filepath.Join(b.dir, snapName(old)))
	}
	return nil
}

// Close implements Backend: it stops the background flusher, flushes the
// pending batch, trims preallocated padding and closes the segment.
func (b *FileBackend) Close() error {
	if b.flushStop != nil {
		b.stopOnce.Do(func() { close(b.flushStop) })
		<-b.flushDone
	}
	b.flushMu.Lock()
	defer b.flushMu.Unlock()
	flushErr := b.flushLocked() // still close below; error propagated after
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	wal, off, preallocEnd := b.wal, b.off, b.preallocEnd
	b.mu.Unlock()
	// closed is set: every other path checks it under the state lock
	// before touching b.wal, so the final trim/sync/close can run on the
	// captured handle without holding b.mu across the syscalls.
	if off < preallocEnd {
		// Trim the preallocated zeros: a gracefully closed segment ends at
		// its last record, so only a crash leaves padding for recovery.
		_ = wal.Truncate(off)
	}
	if b.opts.Fsync {
		_ = wal.Sync()
	}
	if err := wal.Close(); err != nil {
		return err
	}
	// A failed final flush means buffered records were dropped — a graceful
	// shutdown must not report success over that.
	return flushErr
}

// RollbackWAL truncates the newest WAL segment in dir at a record
// boundary, discarding the last drop records. It is attack tooling for the
// rollback experiments and tests: the truncation is framing-clean, so a
// subsequent OpenFile recovers "successfully" into the stale state — which
// is precisely what a malicious storage operator would engineer, and what
// the clients' fail-awareness checks must expose. It returns the number of
// records remaining. The backend must not have the directory open.
func RollbackWAL(dir string, drop int) (int, error) {
	if drop < 0 {
		return 0, fmt.Errorf("store: cannot roll back %d WAL records", drop)
	}
	disk := osFS{}
	_, wals, _, err := scanDir(disk, dir)
	if err != nil {
		return 0, err
	}
	if len(wals) == 0 {
		return 0, fmt.Errorf("store: no WAL segment in %s", dir)
	}
	path := filepath.Join(dir, walName(wals[len(wals)-1]))
	data, err := disk.readFile(path)
	if err != nil {
		return 0, err
	}
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return 0, fmt.Errorf("store: %s is not a WAL segment", path)
	}
	// Record boundaries come from the same scanner recovery uses, so the
	// attack tool and recovery can never disagree about what counts as a
	// record (zero-filled group-commit padding, torn tails, bit rot).
	_, offsets := scanRecords(data, false)
	keep := max(len(offsets)-1-drop, 0)
	f, err := disk.openFile(path)
	if err != nil {
		return 0, err
	}
	err = f.Truncate(offsets[keep])
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	return keep, nil
}
