package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"faust/internal/store"
	"faust/internal/transport"
	"faust/internal/ustor"
	"faust/internal/wire"
)

// fakeGeneric is a core with server-push semantics, like the lock-step
// baseline's.
type fakeGeneric struct {
	*ustor.Server
	attached bool
	got      int
}

func (f *fakeGeneric) HandleMessage(int, wire.Message)            { f.got++ }
func (f *fakeGeneric) AttachPusher(func(int, wire.Message) error) { f.attached = true }

// fakeCtxBlobs is a blob store that wants the request context, like the
// replicated fleet.
type fakeCtxBlobs struct {
	*transport.MemBlobs
	ctxCalls int
}

func (f *fakeCtxBlobs) PutBlobCtx(_ context.Context, hash, data []byte) error {
	f.ctxCalls++
	return f.PutBlob(hash, data)
}

func (f *fakeCtxBlobs) GetBlobCtx(_ context.Context, hash []byte) ([]byte, error) {
	f.ctxCalls++
	return f.GetBlob(hash)
}

func openTestPersistent(t *testing.T, n int) *store.Persistent {
	t.Helper()
	ps, err := store.Open(ustor.NewServer(n), store.NewMemBackend(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestDecoratorsForwardOptionalInterfaces: a wrapper that hid BatchCore
// would turn batching and group flush off under measurement, one that hid
// N() would disable the handshake id check, and so on. Each wrapper must
// satisfy exactly what the wrapped value satisfies.
func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	kit := newSpyKit()

	persistent := kit.wrapCore(openTestPersistent(t, 3))
	if _, ok := persistent.(transport.BatchCore); !ok {
		t.Error("wrapper over store.Persistent lost transport.BatchCore")
	}
	if _, ok := persistent.(transport.GenericCore); ok {
		t.Error("wrapper over store.Persistent invented transport.GenericCore")
	}
	if sized, ok := persistent.(interface{ N() int }); !ok || sized.N() != 3 {
		t.Error("wrapper over store.Persistent lost N()")
	}

	volatile := kit.wrapCore(ustor.NewServer(2))
	if _, ok := volatile.(transport.BatchCore); ok {
		t.Error("wrapper over the volatile server invented transport.BatchCore")
	}
	if sized, ok := volatile.(interface{ N() int }); !ok || sized.N() != 2 {
		t.Error("wrapper over the volatile server lost N()")
	}

	fg := &fakeGeneric{Server: ustor.NewServer(2)}
	generic := kit.wrapCore(fg)
	gc, ok := generic.(transport.GenericCore)
	if !ok {
		t.Fatal("wrapper over a GenericCore lost transport.GenericCore")
	}
	gc.AttachPusher(nil)
	gc.HandleMessage(0, &wire.Probe{})
	if !fg.attached || fg.got != 1 {
		t.Error("GenericCore calls did not reach the wrapped core")
	}
	if _, ok := generic.(transport.BatchCore); ok {
		t.Error("wrapper over a GenericCore invented transport.BatchCore")
	}

	// The inner wrapper keeps store.Persistent.N() working.
	inner := kit.wrapApply(ustor.NewServer(5))
	ps, err := store.Open(inner, store.NewMemBackend(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ps.N() != 5 {
		t.Errorf("store.Persistent over the apply wrapper reports N() = %d, want 5", ps.N())
	}

	plain := kit.wrapBlobStore(transport.NewMemBlobs())
	if _, ok := plain.(transport.BlobStoreCtx); ok {
		t.Error("wrapper over MemBlobs invented transport.BlobStoreCtx")
	}
	fc := &fakeCtxBlobs{MemBlobs: transport.NewMemBlobs()}
	ctxStore, ok := kit.wrapBlobStore(fc).(transport.BlobStoreCtx)
	if !ok {
		t.Fatal("wrapper over a BlobStoreCtx lost transport.BlobStoreCtx")
	}
	hash := make([]byte, 32)
	if err := ctxStore.PutBlobCtx(context.Background(), hash, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := ctxStore.GetBlobCtx(context.Background(), hash); err != nil {
		t.Fatal(err)
	}
	if fc.ctxCalls != 2 || kit.cnt.blobBytes.Load() != 1 || len(kit.cnt.blobs) != 1 {
		t.Errorf("ctx calls %d, counted %d bytes, sampled %d blobs", fc.ctxCalls, kit.cnt.blobBytes.Load(), len(kit.cnt.blobs))
	}
}

// TestBatchingSurvivesTheWrapper runs the 16-client workload through the
// decorators: if batches of more than one still form, the dispatcher still
// sees a BatchCore.
func TestBatchingSurvivesTheWrapper(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 16-client workload for a second")
	}
	setProcs()
	kit := newSpyKit()
	e, err := buildRegSatWAL(1, t.TempDir(), kit, false)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	clk := kit.tr.clk
	load := runClosed(clk, e, stopAfter(clk, time.Second))
	if load.firstErr != nil {
		t.Fatal(load.firstErr)
	}
	kit.cnt.mu.Lock()
	sizes := append([]int(nil), kit.cnt.batchSizes...)
	kit.cnt.mu.Unlock()
	total, biggest := 0, 0
	for _, n := range sizes {
		total += n
		if n > biggest {
			biggest = n
		}
	}
	if len(sizes) == 0 {
		t.Fatal("the core wrapper saw no durability barrier")
	}
	meanSize := float64(total) / float64(len(sizes))
	t.Logf("%d ops, %d barriers, mean batch %.2f, largest %d", len(load.samples), len(sizes), meanSize, biggest)
	if meanSize <= 1 {
		t.Errorf("transport.batch_size_mean = %.2f through the wrapper: batching is off", meanSize)
	}
	if _, err := e.verify(load); err != nil {
		t.Errorf("correctness gate: %v", err)
	}
}

// TestWriteAmpCountsBytesNotPreallocation: a group-commit WAL segment is
// zero-filled 1 MiB ahead, so file sizes overstate what was written by
// orders of magnitude on a short run.
func TestWriteAmpCountsBytesNotPreallocation(t *testing.T) {
	dir := t.TempDir()
	fb, err := store.OpenFile(dir, walOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	kit := newSpyKit()
	b := kit.wrapBackend(fb)
	if _, _, err := b.Load(); err != nil {
		t.Fatal(err)
	}
	const records = 10
	wantBytes := int64(0)
	for i := 0; i < records; i++ {
		msg := &wire.Submit{T: int64(i + 1), Inv: wire.Invocation{Client: 0, Op: wire.OpWrite}, Value: make([]byte, 256)}
		if err := b.Append(store.Record{From: 0, Msg: msg}); err != nil {
			t.Fatal(err)
		}
		wantBytes += int64(walFrameOverhead + wire.EncodedSize(msg))
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil { // nothing buffered: not a disk flush
		t.Fatal(err)
	}
	var onDisk int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		info, err := os.Stat(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		onDisk += info.Size()
	}
	got := kit.cnt.walBytes.Load()
	if got != wantBytes {
		t.Errorf("counted %d WAL bytes, want %d", got, wantBytes)
	}
	if onDisk < 1<<20 {
		t.Errorf("expected a preallocated segment of at least 1 MiB on disk, found %d bytes", onDisk)
	}
	if got*100 > onDisk {
		t.Errorf("counted bytes (%d) should be far below the preallocated file size (%d)", got, onDisk)
	}
	if n := kit.cnt.flushes.Load(); n != 1 {
		t.Errorf("counted %d flushes, want 1: an empty flush is not a disk flush", n)
	}
	if n := kit.cnt.walRecords.Load(); n != records {
		t.Errorf("counted %d records, want %d", n, records)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}
