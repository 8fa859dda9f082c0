package kv_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"faust/internal/byzantine"
	"faust/internal/crypto"
	"faust/internal/kv"
	"faust/internal/transport"
	"faust/internal/ustor"
)

// cluster is the standard in-memory fixture: n ustor clients, a shared
// blob store, one kv.Store per client.
type cluster struct {
	net     *transport.Network
	blobs   *transport.MemBlobs
	clients []*ustor.Client
	stores  []*kv.Store
}

func newCluster(t *testing.T, n int, core transport.ServerCore, opts ...kv.Option) *cluster {
	t.Helper()
	ring, signers := crypto.NewTestKeyring(n, 77)
	blobs := transport.NewMemBlobs()
	if core == nil {
		core = ustor.NewServer(n)
	}
	nw := transport.NewNetwork(n, core, transport.WithBlobStore(blobs))
	t.Cleanup(nw.Stop)
	cl := &cluster{net: nw, blobs: blobs}
	for i := 0; i < n; i++ {
		c := ustor.NewClient(i, ring, signers[i], nw.ClientLink(i))
		ch, err := nw.BlobChannel()
		if err != nil {
			t.Fatal(err)
		}
		st, err := kv.Open(c, ch, opts...)
		if err != nil {
			t.Fatalf("open store %d: %v", i, err)
		}
		cl.clients = append(cl.clients, c)
		cl.stores = append(cl.stores, st)
	}
	return cl
}

func TestPutGetDeleteRoundTrip(t *testing.T) {
	cl := newCluster(t, 2, nil)
	s := cl.stores[0]

	if _, err := s.Get(context.Background(), "missing"); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("get missing = %v, want ErrNotFound", err)
	}
	pairs := map[string]string{
		"config":  "a small value",
		"empty":   "",
		"article": "some longer value that still fits one chunk",
	}
	for k, v := range pairs {
		if err := s.Put(context.Background(), k, []byte(v)); err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
	}
	for k, v := range pairs {
		got, err := s.Get(context.Background(), k)
		if err != nil || string(got) != v {
			t.Fatalf("get %q = %q, %v; want %q", k, got, err, v)
		}
	}
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != "article" || keys[1] != "config" || keys[2] != "empty" {
		t.Fatalf("keys = %v", keys)
	}
	// Overwrite.
	if err := s.Put(context.Background(), "config", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(context.Background(), "config"); string(got) != "v2" {
		t.Fatalf("overwrite lost: %q", got)
	}
	// Delete.
	if err := s.Delete(context.Background(), "config"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(context.Background(), "config"); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("get deleted = %v, want ErrNotFound", err)
	}
	if err := s.Delete(context.Background(), "config"); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("double delete = %v, want ErrNotFound", err)
	}
	// Key validation.
	if err := s.Put(context.Background(), "", []byte("x")); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := s.Put(context.Background(), string(make([]byte, kv.MaxKeyLen+1)), []byte("x")); err == nil {
		t.Fatal("oversized key accepted")
	}
}

// TestLargeValueChunking: a value far beyond the chunk size splits into
// content-addressed chunks and reassembles byte-identically, locally and
// cross-client.
func TestLargeValueChunking(t *testing.T) {
	const chunkSize = 1 << 10
	cl := newCluster(t, 2, nil, kv.WithChunkSize(chunkSize))
	owner, reader := cl.stores[0], cl.stores[1]

	value := make([]byte, 10*chunkSize+123) // 11 chunks
	for i := range value {
		// Period 251 is coprime with the chunk size, so no two chunks
		// have identical content (which would dedup and skew the count).
		value[i] = byte(i % 251)
	}
	before := owner.Stats()
	if err := owner.Put(context.Background(), "big", value); err != nil {
		t.Fatal(err)
	}
	after := owner.Stats()
	// 11 chunks + 1 directory blob.
	if puts := after.BlobPuts - before.BlobPuts; puts != 12 {
		t.Fatalf("puts = %d, want 12 (11 chunks + directory)", puts)
	}

	got, err := reader.GetFrom(context.Background(), 0, "big")
	if err != nil {
		t.Fatalf("cross-client get: %v", err)
	}
	if !bytes.Equal(got, value) {
		t.Fatal("cross-client reassembly corrupted the value")
	}

	// Chunk dedup: re-putting the same value under another key uploads
	// only the directory again.
	before = owner.Stats()
	if err := owner.Put(context.Background(), "big-copy", value); err != nil {
		t.Fatal(err)
	}
	after = owner.Stats()
	if puts := after.BlobPuts - before.BlobPuts; puts != 1 {
		t.Fatalf("dedup failed: %d uploads for identical content, want 1", puts)
	}
}

// TestPutCapacityLimits: a value whose chunk count would exceed the
// directory codec's per-entry bound is refused up front — before a
// single chunk is uploaded — because committing it would brick the
// namespace for every reader.
func TestPutCapacityLimits(t *testing.T) {
	cl := newCluster(t, 1, nil, kv.WithChunkSize(1))
	s := cl.stores[0]
	before := s.Stats()
	err := s.Put(context.Background(), "huge", make([]byte, 1<<16+1)) // 65537 one-byte chunks
	if err == nil || !strings.Contains(err.Error(), "chunks, limit") {
		t.Fatalf("oversized chunk count accepted: %v", err)
	}
	if after := s.Stats(); after.BlobPuts != before.BlobPuts {
		t.Fatalf("doomed put uploaded %d blobs", after.BlobPuts-before.BlobPuts)
	}
	if s.Len() != 0 {
		t.Fatal("failed put left an entry behind")
	}
}

// TestTamperedChunkRejected plants corrupted bytes under a chunk's hash
// in the server's blob store; the reader's digest verification must
// reject the value — acceptance criterion (a), first half.
func TestTamperedChunkRejected(t *testing.T) {
	cl := newCluster(t, 2, nil, kv.WithChunkSize(256))
	owner, reader := cl.stores[0], cl.stores[1]

	value := bytes.Repeat([]byte("sensitive "), 100) // multiple chunks
	if err := owner.Put(context.Background(), "doc", value); err != nil {
		t.Fatal(err)
	}
	// The attacker (the server owns its blob store) swaps the bytes of
	// the second chunk, keeping the hash key.
	secondChunk := value[256:512]
	h := crypto.Hash(secondChunk)
	if err := cl.blobs.PutBlob(h, []byte("tampered bytes of the wrong content")); err != nil {
		t.Fatal(err)
	}
	_, err := reader.GetFrom(context.Background(), 0, "doc")
	if err == nil || !strings.Contains(err.Error(), "tampered chunk") {
		t.Fatalf("tampered chunk not rejected: %v", err)
	}
	// The register client did NOT halt: blob tampering is an integrity
	// error on unauthenticated bulk data, not protocol evidence.
	if failed, _ := cl.clients[1].Failed(); failed {
		t.Fatal("blob tampering must not halt the protocol client")
	}
}

// TestForgedDirectoryRejected covers acceptance criterion (a), second
// half, against the tree encoding: a tree node swapped under its hash
// (content check), a root record naming a hash the blob store cannot
// honestly answer, and a root record whose totals disagree with the tree
// it names (metadata check) — each rejected before any value byte is
// returned.
func TestForgedDirectoryRejected(t *testing.T) {
	cl := newCluster(t, 2, nil)
	owner, reader := cl.stores[0], cl.stores[1]

	if err := owner.Put(context.Background(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Learn the current directory honestly first.
	if _, err := reader.GetFrom(context.Background(), 0, "k"); err != nil {
		t.Fatal(err)
	}

	// (1) Forged root record: correct counts but a root hash nothing
	// valid lives under. The owner itself writes it (only its signatures
	// validate), modeling a compromised owner binary the reader must
	// still not trust blindly. Planting arbitrary bytes at the forged
	// hash must not help: the node digest check catches the swap.
	honest, err := cl.clients[1].ReadX(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	forged := append([]byte(nil), honest.Value...)
	forged[len(forged)-1] ^= 0xFF // flip a bit of the root hash
	forgedHash := forged[len(forged)-32:]
	if err := cl.blobs.PutBlob(forgedHash, []byte("attacker-chosen bytes")); err != nil {
		t.Fatal(err)
	}
	if err := cl.clients[0].Write(forged); err != nil {
		t.Fatal(err)
	}
	// The WARM reader (nodes cached from the honest read) must reject
	// exactly like a cold one — the forged hash names a different node,
	// so the cache cannot satisfy it.
	_, err = reader.GetFrom(context.Background(), 0, "k")
	if err == nil || !strings.Contains(err.Error(), "tampered tree node") {
		t.Fatalf("warm-cache reader accepted forged root hash: %v", err)
	}
	freshReader := freshStore(t, cl, 1)
	_, err = freshReader.GetFrom(context.Background(), 0, "k")
	if err == nil || !strings.Contains(err.Error(), "tampered tree node") {
		t.Fatalf("forged root hash not rejected: %v", err)
	}

	// (2) Forged metadata: the record names the real, consistent root
	// node but claims the wrong entry count. Warm and cold readers must
	// reject identically — the totals are re-checked on every read.
	miscounted := append([]byte(nil), honest.Value...)
	miscounted[13]++ // NumEntries lives at offset 5(magic)+8(gen)
	if err := cl.clients[0].Write(miscounted); err != nil {
		t.Fatal(err)
	}
	_, err = reader.GetFrom(context.Background(), 0, "k")
	if err == nil || !strings.Contains(err.Error(), "metadata mismatch") {
		t.Fatalf("warm-cache reader accepted forged metadata: %v", err)
	}
	_, err = freshStore(t, cl, 1).GetFrom(context.Background(), 0, "k")
	if err == nil || !strings.Contains(err.Error(), "metadata mismatch") {
		t.Fatalf("forged metadata not rejected: %v", err)
	}

	// Restore a correct root record (and fresh tree nodes).
	if err := owner.Put(context.Background(), "k2", []byte("w")); err != nil {
		t.Fatal(err)
	}

	// (3) Tamper the root tree node under its content hash — the
	// attacker controls the blob store. A fresh reader (empty caches)
	// must reject the swap before returning anything.
	rootHash := rootHashOfRegister(t, cl, 0)
	if err := cl.blobs.PutBlob(rootHash, []byte("not the tree node")); err != nil {
		t.Fatal(err)
	}
	freshReader2 := freshStore(t, cl, 1)
	_, err = freshReader2.GetFrom(context.Background(), 0, "k")
	if err == nil || !strings.Contains(err.Error(), "tampered tree node") {
		t.Fatalf("tampered tree node not rejected: %v", err)
	}
}

// TestForkingServerDetectedThroughKV is acceptance criterion (b): the
// Figure 3 forking attack, mounted while the clients only ever use the
// KV API. The replayed-but-never-committed operation trips the reader's
// PROOF-signature check and the client halts with the usual fail-aware
// error — surfaced by GetFrom.
func TestForkingServerDetectedThroughKV(t *testing.T) {
	const n = 2
	server, err := byzantine.NewForkingServer(n, [][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	cl := newCluster(t, n, server)
	owner, reader := cl.stores[0], cl.stores[1]

	// The attacker makes the owner's hidden operations selectively
	// visible in the reader's branch by replaying the captured SUBMITs
	// (never the COMMITs) — the Figure 3 mechanism. The first replayed
	// operation passes the reader's checks (the attack is momentarily
	// invisible: weak fork-linearizability permits it)...
	if err := server.Replay(0, 0, 1); err != nil { // owner's bootstrap read
		t.Fatal(err)
	}
	if _, err := reader.GetFrom(context.Background(), 0, "k"); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("pre-detection read = %v, want ErrNotFound (empty namespace, no failure)", err)
	}
	if failed, reason := cl.clients[1].Failed(); failed {
		t.Fatalf("premature detection: %v", reason)
	}

	// ...but once the reader has the owner in its digest chain, the next
	// replayed-but-never-committed operation has no PROOF-signature in
	// this branch, and detection fires through the KV read.
	if err := owner.Put(context.Background(), "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := server.Replay(0, server.CapturedOps(0)-1, 1); err != nil {
		t.Fatal(err)
	}
	_, err = reader.GetFrom(context.Background(), 0, "k")
	var det *ustor.DetectionError
	if !errors.As(err, &det) {
		t.Fatalf("forking server not detected through KV API: %v", err)
	}
	if failed, reason := cl.clients[1].Failed(); !failed {
		t.Fatalf("client did not halt (reason=%v)", reason)
	}
	// Every subsequent KV operation fails: the client halted.
	if _, err := reader.GetFrom(context.Background(), 0, "k"); !errors.Is(err, ustor.ErrHalted) {
		t.Fatalf("post-detection read = %v, want ErrHalted", err)
	}
}

// TestValidatingCache is acceptance criterion (c): repeat reads are
// served from the cache — GetFrom without bulk transfers, CachedGetFrom
// without any server round trip — and the cache invalidates when the
// client's observed version of the owner's register changes.
func TestValidatingCache(t *testing.T) {
	cl := newCluster(t, 2, nil)
	owner, reader := cl.stores[0], cl.stores[1]

	if err := owner.Put(context.Background(), "hot", []byte("value-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.GetFrom(context.Background(), 0, "hot"); err != nil {
		t.Fatal(err)
	}

	// Repeat GetFrom: register round trip only, zero blob traffic
	// (directory unchanged, chunks cached).
	before := reader.Stats()
	if v, err := reader.GetFrom(context.Background(), 0, "hot"); err != nil || string(v) != "value-1" {
		t.Fatalf("repeat GetFrom = %q, %v", v, err)
	}
	after := reader.Stats()
	if after.BlobGets != before.BlobGets {
		t.Fatalf("repeat GetFrom fetched %d blobs, want 0", after.BlobGets-before.BlobGets)
	}
	if after.RegisterReads != before.RegisterReads+1 {
		t.Fatalf("repeat GetFrom made %d register reads, want 1", after.RegisterReads-before.RegisterReads)
	}

	// CachedGetFrom: no server round trip at all.
	before = reader.Stats()
	if v, err := reader.CachedGetFrom(context.Background(), 0, "hot"); err != nil || string(v) != "value-1" {
		t.Fatalf("CachedGetFrom = %q, %v", v, err)
	}
	after = reader.Stats()
	if after.RegisterReads != before.RegisterReads || after.BlobGets != before.BlobGets {
		t.Fatalf("CachedGetFrom hit the server: %+v -> %+v", before, after)
	}
	if after.ValueCacheHits != before.ValueCacheHits+1 {
		t.Fatal("CachedGetFrom did not count a cache hit")
	}

	// Invalidation: the owner writes; the reader observes the version
	// change through a fresh read of ANOTHER key; the cached entry for
	// "hot" is then stale and CachedGetFrom refetches the new value.
	if err := owner.Put(context.Background(), "other", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := owner.Put(context.Background(), "hot", []byte("value-2")); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.GetFrom(context.Background(), 0, "other"); err != nil {
		t.Fatal(err) // advances the reader's observed version of owner
	}
	v, err := reader.CachedGetFrom(context.Background(), 0, "hot")
	if err != nil || string(v) != "value-2" {
		t.Fatalf("post-invalidation CachedGetFrom = %q, %v; want value-2", v, err)
	}
}

// gatedRegister parks ObservedTimestamp on a gate while armed, standing
// in for a register client whose session lock an in-flight round trip
// holds.
type gatedRegister struct {
	*ustor.Client
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func (g *gatedRegister) ObservedTimestamp(j int) int64 {
	if g.armed.Load() {
		g.parked <- struct{}{}
		<-g.release
	}
	return g.Client.ObservedTimestamp(j)
}

// TestCachedGetFromConsultsRegisterUnlocked: a CachedGetFrom hit waiting
// on the register for the owner's observed version must not hold the
// store's lock, or every other lookup of the store (here an own-namespace
// Get) stalls behind the register client's round trip.
func TestCachedGetFromConsultsRegisterUnlocked(t *testing.T) {
	ctx := context.Background()
	cl := newCluster(t, 2, nil)
	if err := cl.stores[0].Put(ctx, "hot", []byte("peer value")); err != nil {
		t.Fatal(err)
	}
	reg := &gatedRegister{Client: cl.clients[1], parked: make(chan struct{}), release: make(chan struct{})}
	ch, err := cl.net.BlobChannel()
	if err != nil {
		t.Fatal(err)
	}
	reader, err := kv.Open(reg, ch)
	if err != nil {
		t.Fatal(err)
	}
	if err := reader.Put(ctx, "mine", []byte("own value")); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.GetFrom(ctx, 0, "hot"); err != nil { // fills the value cache
		t.Fatal(err)
	}

	reg.armed.Store(true)
	cached := make(chan error, 1)
	go func() {
		v, err := reader.CachedGetFrom(ctx, 0, "hot")
		if err == nil && string(v) != "peer value" {
			err = fmt.Errorf("CachedGetFrom = %q, want %q", v, "peer value")
		}
		cached <- err
	}()
	<-reg.parked
	own := make(chan error, 1)
	go func() {
		_, err := reader.Get(ctx, "mine")
		own <- err
	}()
	select {
	case err := <-own:
		if err != nil {
			t.Errorf("own Get: %v", err)
		}
	case <-time.After(time.Second):
		t.Error("own-namespace Get blocked behind a CachedGetFrom waiting on the register")
	}
	close(reg.release)
	if err := <-cached; err != nil {
		t.Fatal(err)
	}
	if hits := reader.Stats().ValueCacheHits; hits != 1 {
		t.Fatalf("ValueCacheHits = %d, want 1 (the parked lookup was a cache hit)", hits)
	}
}

// TestEmptyNamespaceBootstrap: reading a namespace whose owner never
// wrote anything — the satellite-defined nil register semantics — yields
// ErrNotFound / empty listings, not errors.
func TestEmptyNamespaceBootstrap(t *testing.T) {
	cl := newCluster(t, 2, nil)
	reader := cl.stores[1]
	if _, err := reader.GetFrom(context.Background(), 0, "anything"); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("get from empty namespace = %v, want ErrNotFound", err)
	}
	keys, err := reader.ListFrom(context.Background(), 0)
	if err != nil || len(keys) != 0 {
		t.Fatalf("list of empty namespace = %v, %v", keys, err)
	}
}

// TestReopenResumesNamespace: a second kv.Open over the same register
// client recovers the directory from the root record + blob store (the
// in-process resume path; cross-restart recovery is covered by the shard
// integration test).
func TestReopenResumesNamespace(t *testing.T) {
	cl := newCluster(t, 1, nil)
	s := cl.stores[0]
	if err := s.Put(context.Background(), "persisted", []byte("survives")); err != nil {
		t.Fatal(err)
	}
	reopened := freshStore(t, cl, 0)
	if got, err := reopened.Get(context.Background(), "persisted"); err != nil || string(got) != "survives" {
		t.Fatalf("reopened get = %q, %v", got, err)
	}
	if reopened.Len() != 1 {
		t.Fatalf("reopened len = %d", reopened.Len())
	}
}

func TestListFrom(t *testing.T) {
	cl := newCluster(t, 2, nil)
	owner, reader := cl.stores[0], cl.stores[1]
	for _, k := range []string{"b", "a", "c"} {
		if err := owner.Put(context.Background(), k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := reader.ListFrom(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(keys) != "[a b c]" {
		t.Fatalf("ListFrom = %v", keys)
	}
}

// freshStore opens a new kv.Store over cluster client i's existing
// register client (empty caches, state recovered from the root record).
func freshStore(t *testing.T, cl *cluster, i int) *kv.Store {
	t.Helper()
	ch, err := cl.net.BlobChannel()
	if err != nil {
		t.Fatal(err)
	}
	st, err := kv.Open(cl.clients[i], ch)
	if err != nil {
		t.Fatalf("fresh store: %v", err)
	}
	return st
}

// rootHashOfRegister extracts the tree root hash from client j's current
// root record (read via reader client 1).
func rootHashOfRegister(t *testing.T, cl *cluster, j int) []byte {
	t.Helper()
	res, err := cl.clients[1].ReadX(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	// Root record layout: magic(5) gen(8) entries(4) bytes(8) height(4) roothash(32).
	if len(res.Value) != 5+8+4+8+4+32 {
		t.Fatalf("unexpected root record size %d", len(res.Value))
	}
	return res.Value[29:61]
}
