package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"faust/internal/wire"
)

// appendN opens dir, appends n records (T = 0..n-1) and closes again.
func appendN(t *testing.T, dir string, n int) {
	t.Helper()
	b, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Load(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := b.Append(submitRecord(0, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// loadTail opens dir and returns the recovered snapshot and tail.
func loadTail(t *testing.T, dir string) ([]byte, []Record) {
	t.Helper()
	b, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	t.Cleanup(func() { _ = b.Close() })
	snap, tail, err := b.Load()
	if err != nil {
		t.Fatalf("recovery load: %v", err)
	}
	return snap, tail
}

func walPath(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".log" {
			return filepath.Join(dir, e.Name())
		}
	}
	t.Fatal("no WAL segment found")
	return ""
}

// TestCrashTornFinalRecord is the crash-injection test: a WAL cut mid-way
// through its final record must recover to exactly the preceding records —
// no panic, no error, no corrupted state.
func TestCrashTornFinalRecord(t *testing.T) {
	const n = 6
	for _, cut := range []int64{1, 3, frameHeader - 1, frameHeader + 1} {
		dir := t.TempDir()
		appendN(t, dir, n)
		path := walPath(t, dir)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		// Cut inside the final record: fully losing it needs size-(header+payload),
		// so any cut strictly between leaves a torn fragment.
		if err := os.Truncate(path, info.Size()-cut); err != nil {
			t.Fatal(err)
		}
		_, tail := loadTail(t, dir)
		if len(tail) != n-1 {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(tail), n-1)
		}
		for i, rec := range tail {
			if rec.Msg.(*wire.Submit).T != int64(i) {
				t.Fatalf("cut=%d: record %d has T=%d", cut, i, rec.Msg.(*wire.Submit).T)
			}
		}
	}
}

// TestCrashTornTailTruncatedForAppend checks that recovery physically
// removes the torn bytes so post-recovery appends produce a clean log.
func TestCrashTornTailTruncatedForAppend(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, 4)
	path := walPath(t, dir)
	info, _ := os.Stat(path)
	if err := os.Truncate(path, info.Size()-2); err != nil {
		t.Fatal(err)
	}

	b, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, tail, err := b.Load(); err != nil || len(tail) != 3 {
		t.Fatalf("Load = %d records, %v; want 3", len(tail), err)
	}
	if err := b.Append(submitRecord(0, 77)); err != nil {
		t.Fatal(err)
	}
	_ = b.Close()

	_, tail := loadTail(t, dir)
	if len(tail) != 4 || tail[3].Msg.(*wire.Submit).T != 77 {
		t.Fatalf("after append-over-torn-tail: %d records", len(tail))
	}
}

// TestCrashCorruptRecordDropsTail: a flipped bit mid-log fails the CRC and
// recovery keeps only the prefix before it.
func TestCrashCorruptRecordDropsTail(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, 5)
	path := walPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a payload byte inside the third record: skip magic, walk two
	// frames, then step past the next header.
	off := int64(len(walMagic))
	for i := 0; i < 2; i++ {
		length := int64(data[off])<<24 | int64(data[off+1])<<16 | int64(data[off+2])<<8 | int64(data[off+3])
		off += frameHeader + length
	}
	data[off+frameHeader+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, tail := loadTail(t, dir)
	if len(tail) != 2 {
		t.Fatalf("recovered %d records after mid-log corruption, want 2", len(tail))
	}
}

// TestCrashTornSnapshotFallsBack: a corrupted newest snapshot must not
// take the store down — recovery falls back to the previous generation.
func TestCrashTornSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Load(); err != nil {
		t.Fatal(err)
	}
	stateA := []byte("generation-one")
	if err := b.WriteSnapshot(stateA); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(submitRecord(0, 5)); err != nil {
		t.Fatal(err)
	}
	_ = b.Close()

	// Simulate a rotation that tore the second snapshot: a higher-numbered
	// snapshot file exists but fails validation.
	if err := os.WriteFile(filepath.Join(dir, snapName(2)), []byte("FAUSTSNPgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, tail := loadTail(t, dir)
	if !bytes.Equal(snap, stateA) {
		t.Fatalf("fell back to %q, want %q", snap, stateA)
	}
	if len(tail) != 1 {
		t.Fatalf("tail = %d records, want 1", len(tail))
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(2))); !os.IsNotExist(err) {
		t.Fatal("corrupt orphan snapshot not cleaned up")
	}
}

// TestSnapshotRotationReclaimsLog: after a snapshot, old segments are gone
// and recovery needs only the new baseline.
func TestSnapshotRotationReclaimsLog(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Load(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := b.Append(submitRecord(0, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.WriteSnapshot([]byte("baseline")); err != nil {
		t.Fatal(err)
	}
	_ = b.Close()

	// Generation 1, and nothing of generation 0.
	names, err := osFS{}.readDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{snapName(1), walName(1)}; fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("directory holds %v, want %v", names, want)
	}
	snap, tail := loadTail(t, dir)
	if !bytes.Equal(snap, []byte("baseline")) || len(tail) != 0 {
		t.Fatalf("post-rotation recovery: snap=%q tail=%d", snap, len(tail))
	}
}

// TestRollbackWAL exercises the attack tooling itself: a framing-clean
// truncation that recovery accepts without complaint.
func TestRollbackWAL(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, 8)
	remaining, err := RollbackWAL(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if remaining != 5 {
		t.Fatalf("remaining = %d, want 5", remaining)
	}
	_, tail := loadTail(t, dir)
	if len(tail) != 5 {
		t.Fatalf("recovered %d records after rollback, want 5", len(tail))
	}
	// A negative drop is refused, not an index past the last record.
	if _, err := RollbackWAL(dir, -1); err == nil {
		t.Fatal("negative drop accepted")
	}
	// Dropping more records than exist empties the log without error.
	if remaining, err = RollbackWAL(dir, 99); err != nil || remaining != 0 {
		t.Fatalf("over-drop: remaining=%d err=%v", remaining, err)
	}
}

// TestGroupCommitBackendContract runs the generic Backend contract against
// the group-commit configuration: buffering must be invisible through the
// Append/Flush/Close/Load API.
func TestGroupCommitBackendContract(t *testing.T) {
	dir := t.TempDir()
	backendContract(t, func(t *testing.T) Backend {
		b, err := OpenFile(dir, FileOptions{Fsync: true, GroupCommit: true})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return b
	})
}

// TestGroupCommitCrashRecovery simulates a crash of a group-commit backend
// (no Close, so the segment keeps its preallocated zero padding) and
// checks that recovery keeps exactly the flushed records, drops the
// padding, and that RollbackWAL counts only real records on the padded
// file.
func TestGroupCommitCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenFile(dir, FileOptions{Fsync: true, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Load(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := b.Append(submitRecord(0, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	// Unflushed tail record: a crash must lose it (and only it).
	if err := b.Append(submitRecord(0, 99)); err != nil {
		t.Fatal(err)
	}

	path := walPath(t, dir)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != preallocChunk {
		t.Fatalf("flushed segment size = %d, want preallocated %d", info.Size(), preallocChunk)
	}
	if remaining, err := RollbackWAL(dir, 1); err != nil || remaining != 2 {
		t.Fatalf("RollbackWAL on padded segment: remaining=%d err=%v, want 2", remaining, err)
	}
	// Crash: abandon b without Close and recover from the directory.
	_, tail := loadTail(t, dir)
	if len(tail) != 2 {
		t.Fatalf("recovered %d records, want 2 (3 flushed - 1 rolled back; buffered record dropped)", len(tail))
	}
	for i, rec := range tail {
		if rec.Msg.(*wire.Submit).T != int64(i) {
			t.Fatalf("record %d has T=%d", i, rec.Msg.(*wire.Submit).T)
		}
	}
}

// TestGroupCommitBackgroundFlush checks that the interval flusher makes a
// lingering buffered record durable without any explicit Flush.
func TestGroupCommitBackgroundFlush(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenFile(dir, FileOptions{GroupCommit: true, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, _, err := b.Load(); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(submitRecord(0, 7)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		data, err := os.ReadFile(walPath(t, dir))
		if err == nil && len(data) >= len(walMagic) && string(data[:len(walMagic)]) == walMagic {
			if recs, _ := scanRecords(data, true); len(recs) == 1 && recs[0].Msg.(*wire.Submit).T == 7 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("background flusher did not persist the buffered record")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFsyncModeWorks smoke-tests the fsync path end to end.
func TestFsyncModeWorks(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenFile(dir, FileOptions{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Load(); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(submitRecord(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteSnapshot([]byte("s")); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(submitRecord(0, 2)); err != nil {
		t.Fatal(err)
	}
	_ = b.Close()
	snap, tail := loadTail(t, dir)
	if !bytes.Equal(snap, []byte("s")) || len(tail) != 1 {
		t.Fatalf("fsync recovery: snap=%q tail=%d", snap, len(tail))
	}
}
