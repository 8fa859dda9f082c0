package main

import (
	"context"
	"sync"
	"sync/atomic"

	"faust/internal/kv"
	"faust/internal/store"
	"faust/internal/transport"
	"faust/internal/ustor"
	"faust/internal/version"
	"faust/internal/wire"
)

// Timing decorators around the layers' public interfaces. A decorator
// must not change the program: each forwards the optional interfaces of
// what it wraps (BatchCore, GenericCore, N(), BlobStoreCtx), or batching
// and group flush would silently turn off under measurement.

// counters are the counts taken at the same boundaries as the spans, so
// ratios are measured where the work happens.
type counters struct {
	submits    atomic.Int64 // SUBMITs sent by clients
	commits    atomic.Int64 // COMMITs sent by clients
	replies    atomic.Int64 // REPLYs received by clients
	wireBytes  atomic.Int64 // canonical encoded size of every message on a link
	replyBytes atomic.Int64
	walBytes   atomic.Int64 // framed record bytes appended
	walRecords atomic.Int64
	snapBytes  atomic.Int64
	flushes    atomic.Int64 // Backend.Flush calls that had records to write
	blobBytes  atomic.Int64 // bytes handed to the server-side BlobStore
	chanCalls  atomic.Int64 // client-side BlobChannel
	chanNs     atomic.Int64
	mu         sync.Mutex
	batchSizes []int // SUBMITs covered by each durability barrier
	captured   []wire.Message
	blobs      []blobSample
}

// blobSample is one uploaded blob, kept for the FileBlobs replay.
type blobSample struct{ hash, data []byte }

// capturedMax and capturedBlobsMax bound how many messages and blobs are
// kept for the replay.
const (
	capturedMax      = 768
	capturedBlobsMax = 256
)

func (c *counters) batch(n int) {
	c.mu.Lock()
	c.batchSizes = append(c.batchSizes, n)
	c.mu.Unlock()
}

// capture keeps the first few messages of each kind for the codec and
// signature replay in replay.go.
func (c *counters) capture(m wire.Message) {
	c.mu.Lock()
	if len(c.captured) < capturedMax {
		c.captured = append(c.captured, m)
	}
	c.mu.Unlock()
}

// captureBlob keeps the first few uploaded blobs for the replay.
func (c *counters) captureBlob(hash, data []byte) {
	c.mu.Lock()
	if len(c.blobs) < capturedBlobsMax {
		c.blobs = append(c.blobs, blobSample{append([]byte(nil), hash...), append([]byte(nil), data...)})
	}
	c.mu.Unlock()
}

type spyKit struct {
	tr  *tracer
	cnt *counters
}

func newSpyKit() *spyKit {
	return &spyKit{tr: newTracer(), cnt: &counters{}}
}

// ---- transport.Link ----

// linkSpy times the SUBMIT->REPLY round of one client. A ustor.Client has
// one operation in flight at a time and calls Send and Recv under its
// session lock, so the pending fields need no lock of their own.
type linkSpy struct {
	inner  transport.Link
	client int32
	kit    *spyKit
	log    *spanLog

	pendingT     int64
	pendingStart int64
}

var _ transport.Link = (*linkSpy)(nil)

func (k *spyKit) wrapLink(inner transport.Link, client int) transport.Link {
	return &linkSpy{inner: inner, client: int32(client), kit: k, log: k.tr.newLog()}
}

func (l *linkSpy) Send(m wire.Message) error {
	cnt := l.kit.cnt
	cnt.wireBytes.Add(int64(wire.EncodedSize(m)))
	switch msg := m.(type) {
	case *wire.Submit:
		cnt.submits.Add(1)
		cnt.capture(m)
		start := l.kit.tr.clk.now()
		err := l.inner.Send(m)
		end := l.kit.tr.clk.now()
		l.pendingT, l.pendingStart = msg.T, start
		l.log.add(span{kind: spSend, client: l.client, key: msg.T, start: start, end: end})
		return err
	case *wire.Commit:
		cnt.commits.Add(1)
		cnt.capture(m)
	}
	return l.inner.Send(m)
}

func (l *linkSpy) Recv() (wire.Message, error) {
	m, err := l.inner.Recv()
	if err != nil {
		return m, err
	}
	end := l.kit.tr.clk.now()
	cnt := l.kit.cnt
	size := int64(wire.EncodedSize(m))
	cnt.wireBytes.Add(size)
	if _, ok := m.(*wire.Reply); ok {
		cnt.replies.Add(1)
		cnt.replyBytes.Add(size)
		cnt.capture(m)
		l.log.add(span{kind: spRPC, client: l.client, key: l.pendingT, start: l.pendingStart, end: end})
	}
	return m, nil
}

func (l *linkSpy) Close() error { return l.inner.Close() }

// ---- transport.ServerCore and its optional extensions ----

// coreSpy times the handlers the dispatcher calls. The dispatcher runs
// them from one goroutine, so pending needs no lock.
type coreSpy struct {
	inner transport.ServerCore
	kit   *spyKit
	log   *spanLog
}

func (c *coreSpy) HandleSubmit(ctx context.Context, from int, s *wire.Submit) *wire.Reply {
	start := c.kit.tr.clk.now()
	r := c.inner.HandleSubmit(ctx, from, s)
	c.log.add(span{kind: spHandler, client: int32(from), key: s.T, start: start, end: c.kit.tr.clk.now()})
	c.kit.cnt.batch(1)
	return r
}

func (c *coreSpy) HandleCommit(ctx context.Context, from int, m *wire.Commit) {
	start := c.kit.tr.clk.now()
	c.inner.HandleCommit(ctx, from, m)
	c.log.add(span{kind: spCommit, client: int32(from), key: commitKey(from, m), start: start, end: c.kit.tr.clk.now()})
}

// N forwards the group size the TCP handshake checks client ids against;
// -1 (no check) when the wrapped core does not expose one.
func (c *coreSpy) N() int {
	if sized, ok := c.inner.(interface{ N() int }); ok {
		return sized.N()
	}
	return -1
}

func commitKey(from int, m *wire.Commit) int64 {
	if from >= 0 && from < len(m.Ver.V) {
		return m.Ver.V[from]
	}
	return -1
}

// batchPart adds transport.BatchCore to a coreSpy.
type batchPart struct {
	bc      transport.BatchCore
	spy     *coreSpy
	pending []opKey
}

func (b *batchPart) HandleSubmitBuffered(ctx context.Context, from int, s *wire.Submit) *wire.Reply {
	clk := b.spy.kit.tr.clk
	start := clk.now()
	r := b.bc.HandleSubmitBuffered(ctx, from, s)
	b.spy.log.add(span{kind: spHandler, client: int32(from), key: s.T, start: start, end: clk.now()})
	b.pending = append(b.pending, opKey{int32(from), s.T})
	return r
}

func (b *batchPart) FlushBatch() error {
	clk := b.spy.kit.tr.clk
	start := clk.now()
	err := b.bc.FlushBatch()
	end := clk.now()
	for _, k := range b.pending {
		b.spy.log.add(span{kind: spBatchFlush, client: k.client, key: k.key, start: start, end: end})
	}
	b.spy.kit.cnt.batch(len(b.pending))
	b.pending = b.pending[:0]
	return err
}

// genericPart adds transport.GenericCore to a coreSpy.
type genericPart struct{ gc transport.GenericCore }

func (g genericPart) HandleMessage(from int, m wire.Message) { g.gc.HandleMessage(from, m) }
func (g genericPart) AttachPusher(push func(to int, m wire.Message) error) {
	g.gc.AttachPusher(push)
}

type batchCoreSpy struct {
	*coreSpy
	*batchPart
}

type genericCoreSpy struct {
	*coreSpy
	genericPart
}

type batchGenericCoreSpy struct {
	*coreSpy
	*batchPart
	genericPart
}

var (
	_ transport.BatchCore   = batchCoreSpy{}
	_ transport.GenericCore = genericCoreSpy{}
	_ transport.BatchCore   = batchGenericCoreSpy{}
	_ transport.GenericCore = batchGenericCoreSpy{}
)

// wrapCore returns a timing core satisfying exactly the optional
// interfaces inner satisfies.
func (k *spyKit) wrapCore(inner transport.ServerCore) transport.ServerCore {
	base := &coreSpy{inner: inner, kit: k, log: k.tr.newLog()}
	bc, isBatch := inner.(transport.BatchCore)
	gc, isGeneric := inner.(transport.GenericCore)
	switch {
	case isBatch && isGeneric:
		return batchGenericCoreSpy{base, &batchPart{bc: bc, spy: base}, genericPart{gc}}
	case isBatch:
		return batchCoreSpy{base, &batchPart{bc: bc, spy: base}}
	case isGeneric:
		return genericCoreSpy{base, genericPart{gc}}
	}
	return base
}

// ---- store.Core (the volatile state machine under store.Persistent) ----

type applySpy struct {
	inner store.Core
	kit   *spyKit
	log   *spanLog
}

var _ store.Core = (*applySpy)(nil)

func (k *spyKit) wrapApply(inner store.Core) store.Core {
	return &applySpy{inner: inner, kit: k, log: k.tr.newLog()}
}

func (a *applySpy) HandleSubmit(ctx context.Context, from int, s *wire.Submit) *wire.Reply {
	start := a.kit.tr.clk.now()
	r := a.inner.HandleSubmit(ctx, from, s)
	a.log.add(span{kind: spApply, client: int32(from), key: s.T, start: start, end: a.kit.tr.clk.now()})
	return r
}

func (a *applySpy) HandleCommit(ctx context.Context, from int, c *wire.Commit) {
	a.inner.HandleCommit(ctx, from, c)
}

func (a *applySpy) ExportState() []byte             { return a.inner.ExportState() }
func (a *applySpy) RestoreState(state []byte) error { return a.inner.RestoreState(state) }

// N keeps store.Persistent.N (and through it the TCP handshake id check)
// working through the wrapper.
func (a *applySpy) N() int {
	if sized, ok := a.inner.(interface{ N() int }); ok {
		return sized.N()
	}
	return -1
}

// ---- store.Backend ----

// walFrameOverhead is what FileBackend adds to each record: u32 length,
// u32 CRC, u32 client index.
const walFrameOverhead = 12

type backendSpy struct {
	inner store.Backend
	kit   *spyKit
	log   *spanLog
	// unflushed counts appends since the last Flush, so that a Flush that
	// finds an empty buffer (the background flusher on an idle log, or a
	// caller whose records another flush already covered) is not counted
	// as a disk flush.
	unflushed atomic.Int64
}

var _ store.Backend = (*backendSpy)(nil)

func (k *spyKit) wrapBackend(inner store.Backend) store.Backend {
	return &backendSpy{inner: inner, kit: k, log: k.tr.newLog()}
}

func (b *backendSpy) Load() ([]byte, []store.Record, error) { return b.inner.Load() }

func (b *backendSpy) Append(rec store.Record) error {
	start := b.kit.tr.clk.now()
	err := b.inner.Append(rec)
	end := b.kit.tr.clk.now()
	b.unflushed.Add(1)
	b.kit.cnt.walRecords.Add(1)
	b.kit.cnt.walBytes.Add(int64(walFrameOverhead + wire.EncodedSize(rec.Msg)))
	if s, ok := rec.Msg.(*wire.Submit); ok {
		b.log.add(span{kind: spAppend, client: int32(rec.From), key: s.T, start: start, end: end})
	}
	return err
}

func (b *backendSpy) Flush() error {
	had := b.unflushed.Swap(0) > 0
	start := b.kit.tr.clk.now()
	err := b.inner.Flush()
	if had {
		b.kit.cnt.flushes.Add(1)
		b.log.add(span{kind: spFlush, client: -1, key: -1, start: start, end: b.kit.tr.clk.now()})
	}
	return err
}

func (b *backendSpy) WriteSnapshot(state []byte) error {
	b.unflushed.Store(0) // a snapshot flushes or supersedes the buffer
	start := b.kit.tr.clk.now()
	err := b.inner.WriteSnapshot(state)
	b.kit.cnt.snapBytes.Add(int64(len(state)))
	b.log.add(span{kind: spSnapshot, client: -1, key: -1, start: start, end: b.kit.tr.clk.now()})
	return err
}

func (b *backendSpy) Close() error { return b.inner.Close() }

// ---- transport.BlobStore (server side) ----

// blobStoreSpy counts what reaches the blob store behind the network and
// keeps a sample of it. It takes no times: kv-mix keeps blobs in memory
// (see kvEnv.mem), and what a file-backed store costs per blob is measured
// by replaying the sample against store.FileBlobs (replay.go).
type blobStoreSpy struct {
	transport.BlobStore
	kit *spyKit
}

func (s *blobStoreSpy) PutBlob(hash, data []byte) error {
	s.sample(hash, data)
	return s.BlobStore.PutBlob(hash, data)
}

func (s *blobStoreSpy) sample(hash, data []byte) {
	s.kit.cnt.blobBytes.Add(int64(len(data)))
	s.kit.cnt.captureBlob(hash, data)
}

// blobStoreCtxSpy is the variant for stores that take the request's
// tracing context (the replicated blob fleet).
type blobStoreCtxSpy struct {
	*blobStoreSpy
	ctxInner transport.BlobStoreCtx
}

var _ transport.BlobStoreCtx = blobStoreCtxSpy{}

func (s blobStoreCtxSpy) PutBlobCtx(ctx context.Context, hash, data []byte) error {
	s.sample(hash, data)
	return s.ctxInner.PutBlobCtx(ctx, hash, data)
}

func (s blobStoreCtxSpy) GetBlobCtx(ctx context.Context, hash []byte) ([]byte, error) {
	return s.ctxInner.GetBlobCtx(ctx, hash)
}

func (k *spyKit) wrapBlobStore(inner transport.BlobStore) transport.BlobStore {
	base := &blobStoreSpy{BlobStore: inner, kit: k}
	if ci, ok := inner.(transport.BlobStoreCtx); ok {
		return blobStoreCtxSpy{base, ci}
	}
	return base
}

// ---- transport.BlobChannel and kv.Register (client side, under kv.Store) ----

// kvOpCtxKey carries the KV operation's identity down through kv.Store to
// the register and blob-channel decorators.
type kvOpCtxKey struct{}

type kvOpID struct {
	client int32
	seq    int64
}

func withKVOp(ctx context.Context, id kvOpID) context.Context {
	return context.WithValue(ctx, kvOpCtxKey{}, id)
}

func kvOpFrom(ctx context.Context) kvOpID {
	if id, ok := ctx.Value(kvOpCtxKey{}).(kvOpID); ok {
		return id
	}
	return kvOpID{client: -1, seq: -1}
}

type blobChannelSpy struct {
	inner transport.BlobChannel
	kit   *spyKit
	log   *spanLog
}

var _ transport.BlobChannel = (*blobChannelSpy)(nil)

func (k *spyKit) wrapBlobChannel(inner transport.BlobChannel) transport.BlobChannel {
	return &blobChannelSpy{inner: inner, kit: k, log: k.tr.newLog()}
}

// record logs one blob call of a KV op; class says which way the blob
// went (classWrite a put, classRead a get), so that a Put's node fetches
// are not counted among its uploads.
func (c *blobChannelSpy) record(ctx context.Context, class opClass, start int64) {
	end := c.kit.tr.clk.now()
	c.kit.cnt.chanCalls.Add(1)
	c.kit.cnt.chanNs.Add(end - start)
	if id := kvOpFrom(ctx); id.seq >= 0 {
		c.log.add(span{kind: spKVBlob, class: class, client: id.client, key: id.seq, start: start, end: end})
	}
}

func (c *blobChannelSpy) PutBlob(ctx context.Context, hash, data []byte) error {
	start := c.kit.tr.clk.now()
	err := c.inner.PutBlob(ctx, hash, data)
	c.record(ctx, classWrite, start)
	return err
}

func (c *blobChannelSpy) GetBlob(ctx context.Context, hash []byte) ([]byte, error) {
	start := c.kit.tr.clk.now()
	data, err := c.inner.GetBlob(ctx, hash)
	c.record(ctx, classRead, start)
	return data, err
}

func (c *blobChannelSpy) Close() error { return c.inner.Close() }

// registerSpy times the register round trips a kv.Store issues. It emits
// the KV-level span keyed by the KV op and the ustor-level op span keyed
// by (client, T), so the register path under a KV op decomposes exactly
// like an op of the register workloads.
type registerSpy struct {
	inner kv.Register
	kit   *spyKit
	log   *spanLog
}

var _ kv.Register = (*registerSpy)(nil)

func (k *spyKit) wrapRegister(inner kv.Register) kv.Register {
	return &registerSpy{inner: inner, kit: k, log: k.tr.newLog()}
}

func (r *registerSpy) record(ctx context.Context, class opClass, ts, start int64) {
	end := r.kit.tr.clk.now()
	client := int32(r.inner.ID())
	r.log.add(span{kind: spOp, class: class, client: client, key: ts, start: start, end: end})
	if id := kvOpFrom(ctx); id.seq >= 0 {
		r.log.add(span{kind: spKVReg, client: id.client, key: id.seq, start: start, end: end})
	}
}

func (r *registerSpy) WriteX(ctx context.Context, x []byte) (ustor.OpResult, error) {
	start := r.kit.tr.clk.now()
	res, err := r.inner.WriteX(ctx, x)
	if err == nil {
		r.record(ctx, classWrite, res.Timestamp, start)
	}
	return res, err
}

func (r *registerSpy) ReadX(ctx context.Context, j int) (ustor.ReadResult, error) {
	start := r.kit.tr.clk.now()
	res, err := r.inner.ReadX(ctx, j)
	if err == nil {
		r.record(ctx, classRead, res.Timestamp, start)
	}
	return res, err
}

func (r *registerSpy) ID() int                       { return r.inner.ID() }
func (r *registerSpy) N() int                        { return r.inner.N() }
func (r *registerSpy) Version() version.Version      { return r.inner.Version() }
func (r *registerSpy) ObservedTimestamp(j int) int64 { return r.inner.ObservedTimestamp(j) }
