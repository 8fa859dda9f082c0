package faust

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"

	"faust/internal/crypto"
	"faust/internal/kv"
	"faust/internal/shard"
	"faust/internal/store"
	"faust/internal/transport"
	"faust/internal/ustor"
)

// TestTCPMultiShardKV runs the full KV stack against a multi-tenant TCP
// server: two persistent shards, each with its own KV namespaces, blob
// directory and WAL. It proves (1) the namespaces are isolated even for
// identical client identities and keys, (2) each shard's KV root AND its
// chunked values recover across a server restart (registers from the
// WAL, chunks from the per-shard blob directory), and (3) reconnected
// clients resume the KV protocol without a fail signal — while a
// rolled-back shard WOULD be flagged (covered by the existing rollback
// tests; here recovery is honest).
func TestTCPMultiShardKV(t *testing.T) {
	const n, batchKeys = 2, 4200
	base := t.TempDir()
	ring, signers := crypto.NewTestKeyring(n, 91)

	newRouter := func() *shard.Router {
		r, err := shard.NewRouter([]shard.Spec{
			{Name: "alpha", N: n, Persist: true},
			{Name: "beta", N: n, Persist: true},
		}, shard.Options{BaseDir: base, StoreOptions: store.Options{SnapshotEvery: 8}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	serve := func(r *shard.Router) (*transport.TCPServer, string) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return transport.ServeTCPSharded(ln, r), ln.Addr().String()
	}

	router := newRouter()
	srv, addr := serve(router)

	dial := func(shardName string, id int) (*ustor.Client, transport.BlobChannel) {
		link, err := transport.DialTCPShard(addr, shardName, id)
		if err != nil {
			t.Fatalf("dial %s/%d: %v", shardName, id, err)
		}
		ch, err := transport.DialTCPBlob(addr, shardName)
		if err != nil {
			t.Fatalf("blob dial %s: %v", shardName, err)
		}
		return ustor.NewClient(id, ring, signers[id], link), ch
	}

	// Client 0 of each shard owns a namespace; the same key holds
	// different values per shard, including a multi-chunk one. Alpha
	// holds enough keys that its directory spans many tree-node blobs
	// across three levels — all of which must persist in the shard's
	// blob directory and recover across the restart.
	bigAlpha := bytes.Repeat([]byte("alpha-bulk "), 2000) // ~22 KB, >1 chunk at 8 KiB
	alpha0c, alpha0ch := dial("alpha", 0)
	beta0c, beta0ch := dial("beta", 0)
	alpha0, err := kv.Open(alpha0c, alpha0ch, kv.WithChunkSize(8<<10))
	if err != nil {
		t.Fatal(err)
	}
	beta0, err := kv.Open(beta0c, beta0ch, kv.WithChunkSize(8<<10))
	if err != nil {
		t.Fatal(err)
	}
	if err := alpha0.Put(context.Background(), "shared-key", []byte("alpha-value")); err != nil {
		t.Fatal(err)
	}
	if err := alpha0.Put(context.Background(), "bulk", bigAlpha); err != nil {
		t.Fatal(err)
	}
	// Past 64×64 keys the default fanout needs a third level. Only the
	// first 40 carry values; the rest are empty and upload no chunks.
	batch := make([]kv.Item, batchKeys)
	for i := range batch {
		batch[i].Key = fmt.Sprintf("batch-%03d", i)
		if i < 40 {
			batch[i].Value = []byte(fmt.Sprintf("payload-%03d", i))
		}
	}
	if err := alpha0.PutBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if h := alpha0.Height(); h < 3 {
		t.Fatalf("alpha tree height = %d, want >= 3 (the restart must recover a real multi-level tree)", h)
	}
	if err := beta0.Put(context.Background(), "shared-key", []byte("beta-value")); err != nil {
		t.Fatal(err)
	}
	if err := beta0.Put(context.Background(), "beta-only", []byte("exists only here")); err != nil {
		t.Fatal(err)
	}

	// Isolation, observed through reader clients (id 1) of each shard.
	alpha1c, alpha1ch := dial("alpha", 1)
	beta1c, beta1ch := dial("beta", 1)
	alpha1, err := kv.Open(alpha1c, alpha1ch, kv.WithChunkSize(8<<10))
	if err != nil {
		t.Fatal(err)
	}
	beta1, err := kv.Open(beta1c, beta1ch, kv.WithChunkSize(8<<10))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := alpha1.GetFrom(context.Background(), 0, "shared-key"); err != nil || string(v) != "alpha-value" {
		t.Fatalf("alpha read = %q, %v", v, err)
	}
	if v, err := beta1.GetFrom(context.Background(), 0, "shared-key"); err != nil || string(v) != "beta-value" {
		t.Fatalf("beta read = %q, %v", v, err)
	}
	if _, err := alpha1.GetFrom(context.Background(), 0, "beta-only"); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("cross-shard leak: alpha sees beta-only (%v)", err)
	}
	if v, err := alpha1.GetFrom(context.Background(), 0, "bulk"); err != nil || !bytes.Equal(v, bigAlpha) {
		t.Fatalf("alpha bulk read failed: %d bytes, %v", len(v), err)
	}

	// Each shard keeps its own blob directory on disk.
	for _, name := range []string{"alpha", "beta"} {
		dir := filepath.Join(base, "shards", name, "blobs")
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			t.Fatalf("missing per-shard blob dir %s: %v", dir, err)
		}
	}

	// Full server restart: registers recover from each shard's WAL,
	// chunks from each shard's blob directory.
	srv.Stop()
	if err := router.Close(); err != nil {
		t.Fatal(err)
	}
	router2 := newRouter()
	srv2, addr2 := serve(router2)
	defer func() {
		srv2.Stop()
		_ = router2.Close()
	}()
	addr = addr2

	// The readers resume their protocol state (Rebind) with fresh KV
	// stores (empty caches) — everything must be refetched and verified
	// from recovered server state.
	redial := func(c *ustor.Client, shardName string, id int) transport.BlobChannel {
		link, err := transport.DialTCPShard(addr, shardName, id)
		if err != nil {
			t.Fatalf("redial %s/%d: %v", shardName, id, err)
		}
		c.Rebind(link)
		ch, err := transport.DialTCPBlob(addr, shardName)
		if err != nil {
			t.Fatalf("blob redial %s: %v", shardName, err)
		}
		return ch
	}
	alpha1r, err := kv.Open(alpha1c, redial(alpha1c, "alpha", 1), kv.WithChunkSize(8<<10))
	if err != nil {
		t.Fatalf("alpha reader reopen: %v", err)
	}
	beta1r, err := kv.Open(beta1c, redial(beta1c, "beta", 1), kv.WithChunkSize(8<<10))
	if err != nil {
		t.Fatalf("beta reader reopen: %v", err)
	}
	if v, err := alpha1r.GetFrom(context.Background(), 0, "shared-key"); err != nil || string(v) != "alpha-value" {
		t.Fatalf("alpha read after restart = %q, %v", v, err)
	}
	if v, err := alpha1r.GetFrom(context.Background(), 0, "bulk"); err != nil || !bytes.Equal(v, bigAlpha) {
		t.Fatalf("alpha bulk after restart: %d bytes, %v", len(v), err)
	}
	// Every level of alpha's multi-node tree recovered from the shard's
	// blob directory: a full authenticated listing touches all of it.
	if keys, err := alpha1r.ListFrom(context.Background(), 0); err != nil || len(keys) != batchKeys+2 {
		t.Fatalf("alpha ListFrom after restart = %d keys, %v; want %d", len(keys), err, batchKeys+2)
	}
	if v, err := alpha1r.GetFrom(context.Background(), 0, "batch-025"); err != nil || string(v) != "payload-025" {
		t.Fatalf("alpha batch key after restart = %q, %v", v, err)
	}
	if v, err := beta1r.GetFrom(context.Background(), 0, "shared-key"); err != nil || string(v) != "beta-value" {
		t.Fatalf("beta read after restart = %q, %v", v, err)
	}
	if keys, err := beta1r.ListFrom(context.Background(), 0); err != nil || len(keys) != 2 {
		t.Fatalf("beta ListFrom after restart = %v, %v", keys, err)
	}

	// The owners resume too and keep writing into their recovered
	// namespaces.
	alpha0r, err := kv.Open(alpha0c, redial(alpha0c, "alpha", 0), kv.WithChunkSize(8<<10))
	if err != nil {
		t.Fatalf("alpha owner reopen: %v", err)
	}
	if alpha0r.Len() != batchKeys+2 {
		t.Fatalf("alpha owner recovered %d keys, want %d", alpha0r.Len(), batchKeys+2)
	}
	if err := alpha0r.Put(context.Background(), "post-restart", []byte("written after recovery")); err != nil {
		t.Fatal(err)
	}
	if v, err := alpha1r.GetFrom(context.Background(), 0, "post-restart"); err != nil || string(v) != "written after recovery" {
		t.Fatalf("post-restart read = %q, %v", v, err)
	}

	for name, c := range map[string]*ustor.Client{
		"alpha0": alpha0c, "alpha1": alpha1c, "beta0": beta0c, "beta1": beta1c,
	} {
		if failed, reason := c.Failed(); failed {
			t.Fatalf("client %s reported failure after honest recovery: %v", name, reason)
		}
	}
}
