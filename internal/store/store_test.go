package store

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"faust/internal/crypto"
	"faust/internal/transport"
	"faust/internal/ustor"
	"faust/internal/version"
	"faust/internal/wire"
)

// submitRecord builds a well-formed SUBMIT record for tests.
func submitRecord(from int, t int64) Record {
	return Record{From: from, Msg: &wire.Submit{
		T:       t,
		Inv:     wire.Invocation{Client: from, Op: wire.OpWrite, Reg: from, SubmitSig: []byte("sig")},
		Value:   []byte(fmt.Sprintf("v%d", t)),
		DataSig: []byte("data"),
	}}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	recs := []Record{
		submitRecord(2, 7),
		{From: 1, Msg: &wire.Commit{Ver: version.New(3), CommitSig: []byte("c"), ProofSig: []byte("p")}},
	}
	for i, rec := range recs {
		enc, err := appendFramed(nil, rec)
		if err != nil {
			t.Fatalf("record %d: encode: %v", i, err)
		}
		got, err := DecodeRecord(enc[frameHeader:])
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if got.From != rec.From {
			t.Fatalf("record %d: from = %d, want %d", i, got.From, rec.From)
		}
		if !bytes.Equal(wire.Encode(got.Msg), wire.Encode(rec.Msg)) {
			t.Fatalf("record %d: message did not round-trip", i)
		}
	}
}

func TestRecordCodecRejectsNonStateMessages(t *testing.T) {
	if _, err := appendFramed(nil, Record{From: 0, Msg: &wire.Probe{From: 0}}); err == nil {
		t.Fatal("PROBE accepted as a WAL record")
	}
	probe := append([]byte{0, 0, 0, 0}, wire.Encode(&wire.Probe{From: 0})...)
	if _, err := DecodeRecord(probe); err == nil {
		t.Fatal("encoded PROBE decoded as a WAL record")
	}
	if _, err := DecodeRecord([]byte{1, 2}); err == nil {
		t.Fatal("short record accepted")
	}
}

// backendContract runs the Backend semantics every implementation must
// satisfy: append/load round trip and snapshot truncation.
func backendContract(t *testing.T, reopen func(t *testing.T) Backend) {
	t.Helper()
	b := reopen(t)
	if snap, tail, err := b.Load(); err != nil || snap != nil || len(tail) != 0 {
		t.Fatalf("fresh backend: Load = (%v, %d records, %v)", snap, len(tail), err)
	}
	for i := 0; i < 5; i++ {
		if err := b.Append(submitRecord(i%2, int64(i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	b = reopen(t)
	snap, tail, err := b.Load()
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if snap != nil || len(tail) != 5 {
		t.Fatalf("after 5 appends: snap=%v, %d records", snap, len(tail))
	}
	for i, rec := range tail {
		if rec.Msg.(*wire.Submit).T != int64(i) {
			t.Fatalf("record %d out of order: T=%d", i, rec.Msg.(*wire.Submit).T)
		}
	}
	state := []byte("the-state")
	if err := b.WriteSnapshot(state); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := b.Append(submitRecord(0, 99)); err != nil {
		t.Fatalf("post-snapshot append: %v", err)
	}
	_ = b.Close()

	b = reopen(t)
	snap, tail, err = b.Load()
	if err != nil {
		t.Fatalf("reload after snapshot: %v", err)
	}
	if !bytes.Equal(snap, state) {
		t.Fatalf("snapshot = %q, want %q", snap, state)
	}
	if len(tail) != 1 || tail[0].Msg.(*wire.Submit).T != 99 {
		t.Fatalf("tail after snapshot: %d records", len(tail))
	}
	_ = b.Close()
}

// TestMemBackendContract runs the contract on a MemDisk: every reopen is a
// new FileBackend on the same disk.
func TestMemBackendContract(t *testing.T) {
	d := NewMemDisk()
	backendContract(t, func(t *testing.T) Backend {
		b, err := d.OpenFile("wal", FileOptions{})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return b
	})
}

func TestFileBackendContract(t *testing.T) {
	dir := t.TempDir()
	backendContract(t, func(t *testing.T) Backend {
		b, err := OpenFile(dir, FileOptions{})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return b
	})
}

// TestPersistentRecoversExactState drives a real USTOR cluster through a
// persistent server, simulates a restart by reopening its MemDisk under a
// fresh server, and requires bit-identical state.
func TestPersistentRecoversExactState(t *testing.T) {
	const n = 3
	ring, signers := crypto.NewTestKeyring(n, 51)
	disk := NewMemDisk()
	backend, err := disk.OpenFile("wal", FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Open(ustor.NewServer(n), backend, Options{SnapshotEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	nw := transport.NewNetwork(n, ps)
	clients := make([]*ustor.Client, n)
	for i := range clients {
		clients[i] = ustor.NewClient(i, ring, signers[i], nw.ClientLink(i))
	}
	for round := 0; round < 4; round++ {
		for i, c := range clients {
			if err := c.Write([]byte(fmt.Sprintf("r%d-c%d", round, i))); err != nil {
				t.Fatalf("write: %v", err)
			}
			if _, err := c.Read((i + 1) % n); err != nil {
				t.Fatalf("read: %v", err)
			}
		}
	}
	nw.Stop() // quiesce: all handler calls done
	want := ps.ExportState()

	backend2, err := disk.OpenFile("wal", FileOptions{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	ps2, err := Open(ustor.NewServer(n), backend2, Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if got := ps2.ExportState(); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs from pre-restart state")
	}
	fromSnap, replayed := ps2.Recovered()
	if !fromSnap {
		t.Fatal("expected recovery from a snapshot (SnapshotEvery=7, 24 ops)")
	}
	if replayed == 0 {
		t.Log("note: recovery replayed no WAL records (snapshot happened to be last)")
	}

	// The recovered server must also serve: clients rebind and continue.
	nw2 := transport.NewNetwork(n, ps2)
	defer nw2.Stop()
	for i, c := range clients {
		c.Rebind(nw2.ClientLink(i))
	}
	for i, c := range clients {
		if err := c.Write([]byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatalf("post-recovery write by %d: %v", i, err)
		}
	}
	for i, c := range clients {
		if failed, reason := c.Failed(); failed {
			t.Fatalf("client %d failed against recovered server: %v", i, reason)
		}
	}
}

// TestGroupCommitPersistentClusterRecovery drives a real cluster through a
// group-commit FileBackend, simulates a crash (no Close — the segment
// keeps its preallocated padding), recovers into a fresh server and
// requires bit-identical state plus failure-free continued operation by
// the rebound clients.
func TestGroupCommitPersistentClusterRecovery(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	ring, signers := crypto.NewTestKeyring(n, 52)
	backend, err := OpenFile(dir, FileOptions{Fsync: true, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Open(ustor.NewServer(n), backend, Options{SnapshotEvery: 9})
	if err != nil {
		t.Fatal(err)
	}
	nw := transport.NewNetwork(n, ps)
	clients := make([]*ustor.Client, n)
	for i := range clients {
		clients[i] = ustor.NewClient(i, ring, signers[i], nw.ClientLink(i))
	}
	for round := 0; round < 4; round++ {
		for i, c := range clients {
			if err := c.Write([]byte(fmt.Sprintf("r%d-c%d", round, i))); err != nil {
				t.Fatalf("write: %v", err)
			}
			if _, err := c.Read((i + 1) % n); err != nil {
				t.Fatalf("read: %v", err)
			}
		}
	}
	nw.Stop() // quiesce: all handler calls done
	// Flush the trailing COMMITs so the crash point is a flushed state and
	// recovery must be bit-exact (an unflushed trailing commit would be
	// lost fail-safely instead — see the Persistent docs).
	if err := backend.Flush(); err != nil {
		t.Fatal(err)
	}
	want := ps.ExportState()

	// Crash: abandon ps/backend without Close and recover from disk.
	backend2, err := OpenFile(dir, FileOptions{Fsync: true, GroupCommit: true})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	ps2, err := Open(ustor.NewServer(n), backend2, Options{SnapshotEvery: 9})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer ps2.Close()
	if got := ps2.ExportState(); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs from pre-crash state")
	}

	nw2 := transport.NewNetwork(n, ps2)
	defer nw2.Stop()
	for i, c := range clients {
		c.Rebind(nw2.ClientLink(i))
	}
	for i, c := range clients {
		if err := c.Write([]byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatalf("post-recovery write by %d: %v", i, err)
		}
	}
	for i, c := range clients {
		if failed, reason := c.Failed(); failed {
			t.Fatalf("client %d failed against recovered server: %v", i, reason)
		}
	}
}

// TestPersistentStopsServingOnAppendFailure checks the fail-stop contract:
// a server that cannot persist must fall silent, not serve.
func TestPersistentStopsServingOnAppendFailure(t *testing.T) {
	ps, err := Open(ustor.NewServer(2), faultyBackend(t, FileOptions{}, "write"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := ps.HandleSubmit(context.Background(), 0, submitRecord(0, 1).Msg.(*wire.Submit)); r != nil {
		t.Fatal("server replied to an operation it could not log")
	}
	if ps.Err() == nil {
		t.Fatal("append failure not recorded")
	}
}

// faultyBackend opens a FileBackend on a MemDisk on which every later op
// ("write" or "sync") fails before it takes effect.
func faultyBackend(t *testing.T, opts FileOptions, op string) *FileBackend {
	t.Helper()
	d := NewMemDisk()
	b, err := d.OpenFile("wal", opts)
	if err != nil {
		t.Fatal(err)
	}
	d.SetFault(func(o, _ string) (bool, error) {
		if o == op {
			return false, fmt.Errorf("%s: input/output error", op)
		}
		return false, nil
	})
	return b
}
