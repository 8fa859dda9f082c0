package store

import (
	"bytes"
	"context"
	"testing"

	"faust/internal/transport"
	"faust/internal/ustor"
	"faust/internal/wire"
)

// The transport's batched dispatcher discovers batch-capable cores
// structurally; Persistent must satisfy the extension.
var _ transport.BatchCore = (*Persistent)(nil)

// TestBufferedApplyMatchesUnbatched drives the same SUBMIT stream
// through HandleSubmit (the batch of one) and through batches of eight
// and requires identical applied state and a complete WAL (recovery
// reproduces the state).
func TestBufferedApplyMatchesUnbatched(t *testing.T) {
	const n, ops = 3, 24
	mkSubmits := func() []Record {
		recs := make([]Record, 0, ops)
		for i := 0; i < ops; i++ {
			recs = append(recs, submitRecord(i%n, int64(i+1)))
		}
		return recs
	}

	perOp, err := Open(ustor.NewServer(n), NewMemBackend(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range mkSubmits() {
		if r := perOp.HandleSubmit(context.Background(), rec.From, rec.Msg.(*wire.Submit)); r == nil {
			t.Fatal("per-op path returned nil reply")
		}
	}

	disk := NewMemDisk()
	backend, err := disk.OpenFile("wal", FileOptions{GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Open(ustor.NewServer(n), backend, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 8
	recs := mkSubmits()
	for start := 0; start < len(recs); start += batch {
		for _, rec := range recs[start : start+batch] {
			if r := batched.HandleSubmitBuffered(context.Background(), rec.From, rec.Msg.(*wire.Submit)); r == nil {
				t.Fatal("buffered path returned nil reply")
			}
		}
		if err := batched.FlushBatch(); err != nil {
			t.Fatalf("FlushBatch: %v", err)
		}
	}

	if !bytes.Equal(perOp.ExportState(), batched.ExportState()) {
		t.Fatal("buffered apply diverged from per-op apply")
	}

	// The buffered WAL must be complete: recovery reproduces the state.
	backend2, err := disk.OpenFile("wal", FileOptions{GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := Open(ustor.NewServer(n), backend2, Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if !bytes.Equal(recovered.ExportState(), batched.ExportState()) {
		t.Fatal("recovered state differs: buffered appends missing from the WAL")
	}
}

// flushFailOpts, with every sync failing, makes a faultyBackend model a
// device that buffers writes and dies at the sync.
var flushFailOpts = FileOptions{Fsync: true, GroupCommit: true}

// TestFlushBatchFailureSticky: a failed batch flush must poison the
// wrapper — the error surfaces to the dispatcher (which suppresses the
// batch's replies) and every later operation is refused.
func TestFlushBatchFailureSticky(t *testing.T) {
	ps, err := Open(ustor.NewServer(2), faultyBackend(t, flushFailOpts, "sync"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := submitRecord(0, 1)
	if r := ps.HandleSubmitBuffered(context.Background(), rec.From, rec.Msg.(*wire.Submit)); r == nil {
		t.Fatal("buffered apply refused before any failure")
	}
	if err := ps.FlushBatch(); err == nil {
		t.Fatal("FlushBatch succeeded over a failing backend")
	}
	if ps.Err() == nil {
		t.Fatal("flush failure did not stick")
	}
	rec2 := submitRecord(1, 2)
	if r := ps.HandleSubmitBuffered(context.Background(), rec2.From, rec2.Msg.(*wire.Submit)); r != nil {
		t.Fatal("buffered apply served after a sticky flush failure")
	}
	if r := ps.HandleSubmit(context.Background(), rec2.From, rec2.Msg.(*wire.Submit)); r != nil {
		t.Fatal("per-op apply served after a sticky flush failure")
	}
	if err := ps.FlushBatch(); err == nil {
		t.Fatal("FlushBatch cleared a sticky failure")
	}
}

// TestHandleSubmitWithholdsReplyOnFlushFailure: the batch-of-one adapter
// obeys the same contract as the dispatcher — no reply for an op whose
// flush failed, and the failure sticks.
func TestHandleSubmitWithholdsReplyOnFlushFailure(t *testing.T) {
	ps, err := Open(ustor.NewServer(2), faultyBackend(t, flushFailOpts, "sync"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := submitRecord(0, 1)
	if r := ps.HandleSubmit(context.Background(), rec.From, rec.Msg.(*wire.Submit)); r != nil {
		t.Fatal("HandleSubmit replied to an operation it could not flush")
	}
	if ps.Err() == nil {
		t.Fatal("flush failure did not stick")
	}
}
