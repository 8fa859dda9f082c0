package blobfleet

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"faust/internal/clock"
	"faust/internal/crypto"
	"faust/internal/store"
)

func TestParseFleetSpec(t *testing.T) {
	spec, err := ParseFleetSpec(" dir, dir=mirror ,mem, w=2 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []FleetEntry{{"dir", "dir0"}, {"dir", "mirror"}, {"mem", "mem2"}}
	if len(spec.Entries) != len(want) {
		t.Fatalf("entries = %+v", spec.Entries)
	}
	for i, e := range want {
		if spec.Entries[i] != e {
			t.Fatalf("entry %d = %+v, want %+v", i, spec.Entries[i], e)
		}
	}
	if spec.WriteReplicas != 2 {
		t.Fatalf("w = %d", spec.WriteReplicas)
	}

	if s, err := ParseFleetSpec(""); s != nil || err != nil {
		t.Fatalf("empty spec: %+v, %v", s, err)
	}
	for _, bad := range []string{"disk", "w=0", "w=x", "w", ","} {
		if _, err := ParseFleetSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

func TestParseFaultPlan(t *testing.T) {
	plan, err := ParseFaultPlan("backend=1,errs=0.3,latency=2ms,jitter=1ms,hang=0.01,hangfor=100ms,short=0.1,flip=1,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	cfg := plan.Config
	if plan.Backend != 1 || cfg.ErrRate != 0.3 || cfg.Latency != 2*time.Millisecond ||
		cfg.Jitter != time.Millisecond || cfg.HangRate != 0.01 || cfg.HangFor != 100*time.Millisecond ||
		cfg.ShortReadRate != 0.1 || cfg.FlipRate != 1 || cfg.Seed != 7 {
		t.Fatalf("plan = %+v", plan)
	}
	if p, err := ParseFaultPlan(""); p != nil || err != nil {
		t.Fatalf("empty plan: %+v, %v", p, err)
	}
	for _, bad := range []string{"errs=2", "errs=x", "latency=-1ms", "backend=-1", "bogus=1", "errs"} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Fatalf("plan %q accepted", bad)
		}
	}
}

func TestSpecBuild(t *testing.T) {
	dir := t.TempDir()
	spec, err := ParseFleetSpec("dir,dir=mirror,mem")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseFaultPlan("backend=2,errs=1,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	f, err := spec.Build(dir, false, Options{Shard: "t", Clock: clock.NewFake()}, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	data := []byte("spec-built fleet")
	hash := crypto.Hash(data)
	if err := f.PutBlob(hash, data); err != nil {
		t.Fatal(err)
	}
	// The first dir backend uses the legacy <dir>/blobs layout; the
	// second gets an indexed directory.
	fb, err := store.OpenFileBlobs(filepath.Join(dir, "blobs"), false)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fb.GetBlob(hash); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("primary dir backend: %q, %v", got, err)
	}
	mirror, err := store.OpenFileBlobs(filepath.Join(dir, "blobs1"), false)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := mirror.GetBlob(hash); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("mirror dir backend: %q, %v", got, err)
	}
	// The fault plan wrapped backend 2.
	if _, ok := f.backends[2].Store.(*FaultyBlobs); !ok {
		t.Fatalf("backend 2 is %T, want *FaultyBlobs", f.backends[2].Store)
	}

	// A plan targeting a backend the fleet doesn't have is rejected.
	if _, err := spec.Build(dir, false, Options{Clock: clock.NewFake()}, &FaultPlan{Backend: 9}); err == nil {
		t.Fatal("out-of-range fault plan accepted")
	}
}

func TestSpecBuildMemoryShardDegradesDirEntries(t *testing.T) {
	spec, err := ParseFleetSpec("dir,mem")
	if err != nil {
		t.Fatal(err)
	}
	f, err := spec.Build("", false, Options{Clock: clock.NewFake()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := []byte("memory shard")
	hash := crypto.Hash(data)
	if err := f.PutBlob(hash, data); err != nil {
		t.Fatal(err)
	}
	if got, err := f.GetBlob(hash); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get: %q, %v", got, err)
	}
}
