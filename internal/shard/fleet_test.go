package shard

import (
	"bytes"
	"path/filepath"
	"testing"

	"faust/internal/blobfleet"
	"faust/internal/crypto"
	"faust/internal/store"
	"faust/internal/transport"
)

// TestRouterBlobFleet wires a failover fleet through the router: each
// shard's bulk blob channel must be a Failover built from the spec, with
// dir backends under the shard's data directory and writes replicated.
func TestRouterBlobFleet(t *testing.T) {
	base := t.TempDir()
	spec, err := blobfleet.ParseFleetSpec("dir,mem,w=2")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter([]Spec{
		{Name: "p", N: 2, Persist: true},
		{Name: "m", N: 2},
	}, Options{BaseDir: base, BlobFleet: spec})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	sh, err := r.ResolveShard("p", -1)
	if err != nil {
		t.Fatal(err)
	}
	blobs := sh.Blobs
	if _, ok := blobs.(*blobfleet.Failover); !ok {
		t.Fatalf("shard blob store is %T, want *blobfleet.Failover", blobs)
	}
	data := []byte("fleet-backed chunk")
	hash := crypto.Hash(data)
	if err := blobs.PutBlob(hash, data); err != nil {
		t.Fatal(err)
	}
	// The dir backend must live under the shard's own data directory.
	fb, err := store.OpenFileBlobs(filepath.Join(base, "shards", "p", "blobs"), false)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fb.GetBlob(hash); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("dir backend missing replica: %q, %v", got, err)
	}

	st := r.FleetStatus("p")
	if len(st) != 2 || !st[0].Alive || !st[1].Alive {
		t.Fatalf("FleetStatus = %+v", st)
	}
	if r.FleetStatus("not-open") != nil {
		t.Fatal("FleetStatus for unknown shard should be nil")
	}

	// An in-memory shard still gets a fleet (dir entries degraded to mem).
	sh, err = r.ResolveShard("m", -1)
	if err != nil {
		t.Fatal(err)
	}
	mblobs := sh.Blobs
	if _, ok := mblobs.(*blobfleet.Failover); !ok {
		t.Fatalf("memory shard blob store is %T, want *blobfleet.Failover", mblobs)
	}
	if err := mblobs.PutBlob(hash, data); err != nil {
		t.Fatal(err)
	}
	if got, err := mblobs.GetBlob(hash); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("memory shard fleet get: %q, %v", got, err)
	}
}

// TestRouterWithoutFleetKeepsLegacyStores pins the default path: no
// BlobFleet option, no Failover anywhere.
func TestRouterWithoutFleetKeepsLegacyStores(t *testing.T) {
	r, err := NewRouter([]Spec{{Name: "a", N: 2}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sh, err := r.ResolveShard("a", -1)
	if err != nil {
		t.Fatal(err)
	}
	blobs := sh.Blobs
	if _, ok := blobs.(*transport.MemBlobs); !ok {
		t.Fatalf("legacy in-memory shard blob store is %T, want *transport.MemBlobs", blobs)
	}
}
