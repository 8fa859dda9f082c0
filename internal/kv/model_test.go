package kv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"faust/internal/crypto"
	"faust/internal/transport"
	"faust/internal/ustor"
)

// Model-based property tests: random operation sequences through the
// full Store API, checked against a plain map[string][]byte model per
// namespace — the flat-directory era's semantics, which the tree must
// reproduce exactly — plus a tamper sweep proving that corrupting ANY
// tree node blob is detected before a value byte is returned.

// modelCluster is the fixture: n stores over one in-memory network and a
// shared blob store. Its tests shrink the fanouts (setFanout) and the
// chunks so the sequences exercise splits, merges and multi-chunk values.
type modelCluster struct {
	blobs   *transport.MemBlobs
	net     *transport.Network
	clients []*ustor.Client
	stores  []*Store
}

func newModelCluster(t *testing.T, n int, opts ...Option) *modelCluster {
	t.Helper()
	ring, signers := crypto.NewTestKeyring(n, 1234)
	blobs := transport.NewMemBlobs()
	nw := transport.NewNetwork(n, ustor.NewServer(n), transport.WithBlobStore(blobs))
	t.Cleanup(nw.Stop)
	mc := &modelCluster{blobs: blobs, net: nw}
	for i := 0; i < n; i++ {
		c := ustor.NewClient(i, ring, signers[i], nw.ClientLink(i))
		ch, err := nw.BlobChannel()
		if err != nil {
			t.Fatal(err)
		}
		st, err := Open(c, ch, opts...)
		if err != nil {
			t.Fatal(err)
		}
		mc.clients = append(mc.clients, c)
		mc.stores = append(mc.stores, st)
	}
	return mc
}

// TestModelRandomOps drives random put/get/delete/cross-get/list
// sequences and asserts every result agrees with the map model.
func TestModelRandomOps(t *testing.T) {
	const n = 2
	setFanout(t, 4, 4)
	for seed := int64(1); seed <= 3; seed++ {
		mc := newModelCluster(t, n, WithChunkSize(64))
		rng := rand.New(rand.NewSource(seed))
		models := make([]map[string][]byte, n)
		for i := range models {
			models[i] = map[string][]byte{}
		}
		value := func() []byte {
			v := make([]byte, rng.Intn(300)) // 0..4 chunks at 64 B
			rng.Read(v)
			return v
		}
		for step := 0; step < 400; step++ {
			c := rng.Intn(n)
			key := fmt.Sprintf("key-%02d", rng.Intn(40))
			switch rng.Intn(5) {
			case 0, 1: // put
				v := value()
				if err := mc.stores[c].Put(context.Background(), key, v); err != nil {
					t.Fatalf("seed %d step %d: put: %v", seed, step, err)
				}
				models[c][key] = v
			case 2: // own get
				got, err := mc.stores[c].Get(context.Background(), key)
				want, ok := models[c][key]
				checkModelRead(t, seed, step, "get", got, err, want, ok)
			case 3: // delete
				err := mc.stores[c].Delete(context.Background(), key)
				if _, ok := models[c][key]; ok {
					if err != nil {
						t.Fatalf("seed %d step %d: delete: %v", seed, step, err)
					}
					delete(models[c], key)
				} else if !errors.Is(err, ErrNotFound) {
					t.Fatalf("seed %d step %d: delete absent = %v, want ErrNotFound", seed, step, err)
				}
			case 4: // cross-get (authenticated read of the other namespace)
				owner := (c + 1) % n
				got, err := mc.stores[c].GetFrom(context.Background(), owner, key)
				want, ok := models[owner][key]
				checkModelRead(t, seed, step, "cross-get", got, err, want, ok)
			}
		}
		// Full-listing and full-content comparison, own and cross.
		for c := 0; c < n; c++ {
			wantKeys := make([]string, 0, len(models[c]))
			for k := range models[c] {
				wantKeys = append(wantKeys, k)
			}
			sort.Strings(wantKeys)
			gotKeys := mc.stores[c].Keys()
			if fmt.Sprint(gotKeys) != fmt.Sprint(wantKeys) {
				t.Fatalf("seed %d: keys(%d) = %v, want %v", seed, c, gotKeys, wantKeys)
			}
			crossKeys, err := mc.stores[(c+1)%n].ListFrom(context.Background(), c)
			if err != nil || fmt.Sprint(crossKeys) != fmt.Sprint(wantKeys) {
				t.Fatalf("seed %d: ListFrom(%d) = %v, %v", seed, c, crossKeys, err)
			}
			for _, k := range wantKeys {
				if got, err := mc.stores[(c+1)%n].GetFrom(context.Background(), c, k); err != nil || !bytes.Equal(got, models[c][k]) {
					t.Fatalf("seed %d: final cross-get %d/%q: %v", seed, c, k, err)
				}
			}
		}
		// A reopened store recovers the exact namespace from the root
		// record and blobs.
		reopened, err := Open(mc.clients[0], mustChannel(t, mc.net), WithChunkSize(64))
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		for k, v := range models[0] {
			if got, err := reopened.Get(context.Background(), k); err != nil || !bytes.Equal(got, v) {
				t.Fatalf("seed %d: reopened get %q: %v", seed, k, err)
			}
		}
		if reopened.Len() != len(models[0]) {
			t.Fatalf("seed %d: reopened len = %d, want %d", seed, reopened.Len(), len(models[0]))
		}
	}
}

func checkModelRead(t *testing.T, seed int64, step int, op string, got []byte, err error, want []byte, ok bool) {
	t.Helper()
	if !ok {
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("seed %d step %d: %s absent = %v, want ErrNotFound", seed, step, op, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("seed %d step %d: %s: %v", seed, step, op, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("seed %d step %d: %s returned wrong bytes (%d vs %d)", seed, step, op, len(got), len(want))
	}
}

func mustChannel(t *testing.T, nw *transport.Network) transport.BlobChannel {
	t.Helper()
	ch, err := nw.BlobChannel()
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// TestModelEveryNodeTamperDetected builds a multi-level namespace, then
// corrupts every tree node blob in turn (substituting a DIFFERENT valid
// node, not just garbage) and asserts a fresh reader rejects every read
// that traverses the corrupted node — and returns correct values once
// the node is restored.
func TestModelEveryNodeTamperDetected(t *testing.T) {
	setFanout(t, 4, 4)
	mc := newModelCluster(t, 2, WithChunkSize(64))
	owner := mc.stores[0]
	model := map[string][]byte{}
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v := bytes.Repeat([]byte{byte(i)}, 100+i)
		if err := owner.Put(context.Background(), k, v); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	if owner.Height() < 3 {
		t.Fatalf("fixture too shallow: height %d, want >= 3", owner.Height())
	}

	// Walk the committed tree from the register's root record and
	// collect every node hash with one key each node is responsible for.
	res, err := mc.clients[1].ReadX(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := decodeRoot(res.Value)
	if err != nil {
		t.Fatal(err)
	}
	type target struct {
		hash []byte
		key  string // a key whose lookup path crosses this node
	}
	var targets []target
	var walk func(hash []byte)
	walk = func(hash []byte) {
		blob, err := mc.blobs.GetBlob(hash)
		if err != nil {
			t.Fatal(err)
		}
		n, err := decodeNode(blob)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, target{hash: hash, key: n.minKey()})
		for i := range n.children {
			walk(n.children[i].hash)
		}
	}
	walk(rr.RootHash)
	if len(targets) < 10 {
		t.Fatalf("fixture produced only %d nodes", len(targets))
	}

	// A convincing substitute: a syntactically valid leaf holding an
	// attacker-chosen value — not random garbage, so only the hash check
	// can catch it.
	forged := encodeNode(&node{leaf: true, entries: []entry{
		{Key: "key-000", Size: 4, Chunks: [][]byte{crypto.Hash([]byte("evil"))}},
	}})

	for i, tgt := range targets {
		orig, err := mc.blobs.GetBlob(tgt.hash)
		if err != nil {
			t.Fatal(err)
		}
		if err := mc.blobs.PutBlob(tgt.hash, forged); err != nil {
			t.Fatal(err)
		}
		// Fresh reader: cold caches, so the lookup must traverse the
		// corrupted node and reject it.
		reader, err := Open(mc.clients[1], mustChannel(t, mc.net), WithChunkSize(64))
		if err != nil {
			t.Fatal(err)
		}
		_, err = reader.GetFrom(context.Background(), 0, tgt.key)
		if err == nil {
			t.Fatalf("node %d/%d: read through a corrupted node succeeded", i, len(targets))
		}
		if !strings.Contains(err.Error(), "tampered tree node") && !strings.Contains(err.Error(), "mismatch") {
			t.Fatalf("node %d/%d: unexpected rejection reason: %v", i, len(targets), err)
		}
		if errors.Is(err, ErrNotFound) {
			t.Fatalf("node %d/%d: corruption misread as absence", i, len(targets))
		}
		// Restore; the same reader now gets the true value.
		if err := mc.blobs.PutBlob(tgt.hash, orig); err != nil {
			t.Fatal(err)
		}
		got, err := reader.GetFrom(context.Background(), 0, tgt.key)
		if err != nil || !bytes.Equal(got, model[tgt.key]) {
			t.Fatalf("node %d/%d: post-restore read: %v", i, len(targets), err)
		}
	}

	// The protocol client never halted: blob tampering is an integrity
	// error on unauthenticated bulk data, not fail-aware evidence.
	if failed, reason := mc.clients[1].Failed(); failed {
		t.Fatalf("blob tampering halted the protocol client: %v", reason)
	}
}
