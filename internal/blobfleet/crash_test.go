package blobfleet

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"faust/internal/clock"
	"faust/internal/crypto"
	"faust/internal/store"
	"faust/internal/transport"
)

// auditBlobDir fails the test if the published namespace holds anything
// torn: every non-temp file must be a complete blob whose content hashes
// to its own name. This is the crash-consistency invariant of the
// tmp+rename publication protocol.
func auditBlobDir(t *testing.T, dir string) (published int) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("published blob unreadable: %v", err)
		}
		want, err := hex.DecodeString(e.Name())
		if err != nil {
			t.Fatalf("published blob with non-hash name %q", e.Name())
		}
		if !bytes.Equal(crypto.Hash(data), want) {
			t.Fatalf("TORN BLOB published: %s (%d bytes, wrong content hash)", e.Name(), len(data))
		}
		published++
	}
	return published
}

// TestCrashConsistencyUnderInjectedFaults drives a FaultyBlobs-wrapped
// FileBlobs while the file layer's sync and rename stages are made to
// fail on a schedule. Whatever combination of faults hits a put, the
// published namespace must never contain a torn blob, and an
// acknowledged put must stay readable.
func TestCrashConsistencyUnderInjectedFaults(t *testing.T) {
	dir := t.TempDir()
	fb, err := store.OpenFileBlobs(dir, true) // fsync on: exercise the sync stage too
	if err != nil {
		t.Fatal(err)
	}
	syncN, renameN := 0, 0
	fb.InjectFaults(store.BlobFaultHooks{
		BeforeSync: func() error {
			syncN++
			if syncN%3 == 0 {
				return fmt.Errorf("injected: disk full during sync")
			}
			return nil
		},
		BeforeRename: func() error {
			renameN++
			if renameN%4 == 0 {
				return fmt.Errorf("injected: crash before rename")
			}
			return nil
		},
	})
	faulty := NewFaultyBlobs("disk", fb, FaultConfig{Seed: 11, ErrRate: 0.2})

	type blob struct{ hash, data []byte }
	var acked []blob
	for i := 0; i < 200; i++ {
		data := []byte(fmt.Sprintf("crash-consistency blob %d", i))
		hash := crypto.Hash(data)
		if err := faulty.PutBlob(hash, data); err == nil {
			acked = append(acked, blob{hash, data})
		}
		if i%20 == 0 {
			auditBlobDir(t, dir)
		}
	}
	if len(acked) == 0 {
		t.Fatal("every put failed — fault schedule too aggressive to test anything")
	}
	published := auditBlobDir(t, dir)
	if published < len(acked) {
		t.Fatalf("%d puts acknowledged but only %d blobs published", len(acked), published)
	}
	faulty.SetConfig(FaultConfig{}) // chaos over; verify the surviving state
	for _, b := range acked {
		got, err := faulty.GetBlob(b.hash)
		if err != nil || !bytes.Equal(got, b.data) {
			t.Fatalf("acknowledged blob lost or corrupt: %v", err)
		}
	}
	// Failed puts must clean up their temp files (no .tmp litter).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("leaked temp file %s", e.Name())
		}
	}
	if syncN == 0 || renameN == 0 {
		t.Fatal("hooks never fired")
	}
}

// TestFailoverMasksInjectedDiskFaults puts a flaky disk primary behind a
// Failover with a healthy memory secondary: callers see no errors even
// while the disk's sync/rename stages fail, and the disk never publishes
// a torn blob.
func TestFailoverMasksInjectedDiskFaults(t *testing.T) {
	dir := t.TempDir()
	fb, err := store.OpenFileBlobs(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	fb.InjectFaults(store.BlobFaultHooks{BeforeRename: func() error {
		n++
		if n%2 == 0 {
			return fmt.Errorf("injected: crash before rename")
		}
		return nil
	}})
	f, err := New([]Backend{
		{Name: "disk", Store: NewFaultyBlobs("disk", fb, FaultConfig{Seed: 5})},
		{Name: "mem", Store: transport.NewMemBlobs()},
	}, Options{WriteReplicas: 2, RetryAttempts: 1, Clock: clock.NewFake()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for i := 0; i < 60; i++ {
		data := []byte(fmt.Sprintf("masked blob %d", i))
		hash := crypto.Hash(data)
		if err := f.PutBlob(hash, data); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if got, err := f.GetBlob(hash); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("get %d: %q, %v", i, got, err)
		}
	}
	auditBlobDir(t, dir)
}
