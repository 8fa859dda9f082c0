package store

import (
	"bytes"
	"math/rand"
	"testing"

	"faust/internal/wire"
)

// distinctRecord derives record i's every byte from i.
func distinctRecord(i int) Record {
	rng := rand.New(rand.NewSource(int64(i)))
	blob := func(n int) []byte { b := make([]byte, n); rng.Read(b); return b }
	if i%3 == 2 {
		ver := wire.ZeroSignedVersion(4).Ver
		for k := range ver.V {
			ver.V[k] = int64(i + k)
			ver.M[k] = blob(32)
		}
		return Record{From: i % 4, Msg: &wire.Commit{Ver: ver, CommitSig: blob(64), ProofSig: blob(64)}}
	}
	return Record{From: i % 4, Msg: &wire.Submit{
		T:       int64(i),
		Inv:     wire.Invocation{Client: i % 4, Op: wire.OpWrite, Reg: i % 4, SubmitSig: blob(64)},
		Value:   blob(1 + i%400),
		DataSig: blob(64),
	}}
}

// TestReplayedRecordsOutliveTheLog is the WAL half of the buffer-reuse
// detector: DecodeRecord aliases its input, so records recovered from a
// segment must stay intact while the backend keeps appending, flushing
// (the group-commit buffers are recycled), rotating to the next segment
// and recovering again. Every replayed record of both segments is
// retained and compared with what was appended only at the very end.
func TestReplayedRecordsOutliveTheLog(t *testing.T) {
	const perSegment = 400
	dir := t.TempDir()
	opts := FileOptions{GroupCommit: true}
	var retained []Record

	reopen := func() *FileBackend {
		t.Helper()
		b, err := OpenFile(dir, opts)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		_, tail, err := b.Load()
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		retained = append(retained, tail...)
		return b
	}
	appendRange := func(b *FileBackend, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := b.Append(distinctRecord(i)); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			if i%7 == 0 {
				if err := b.Flush(); err != nil {
					t.Fatalf("flush: %v", err)
				}
			}
		}
	}

	b := reopen() // empty
	appendRange(b, 0, perSegment)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	b = reopen() // replays segment 0: records 0..perSegment-1
	if err := b.WriteSnapshot([]byte("state after segment 0")); err != nil {
		t.Fatal(err)
	}
	appendRange(b, perSegment, 2*perSegment) // segment 1
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	b = reopen() // replays segment 1
	appendRange(b, 2*perSegment, 2*perSegment+50)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	if len(retained) != 2*perSegment {
		t.Fatalf("replayed %d records over two segments, want %d", len(retained), 2*perSegment)
	}
	for i, rec := range retained {
		want := distinctRecord(i)
		if rec.From != want.From || !bytes.Equal(wire.Encode(rec.Msg), wire.Encode(want.Msg)) {
			t.Fatalf("replayed record %d changed after the log moved on", i)
		}
	}
}
