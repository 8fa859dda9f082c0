package blobfleet

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"faust/internal/clock"
	"faust/internal/crypto"
	"faust/internal/store"
	"faust/internal/transport"
)

// diskFiles reads every file off the disk, by path, from its image.
func diskFiles(t *testing.T, disk *store.MemDisk) map[string][]byte {
	t.Helper()
	var image bytes.Buffer
	if _, err := disk.WriteTo(&image); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for image.Len() > 0 {
		var path string
		var size int
		if _, err := fmt.Fscanf(&image, "%s %d\n", &path, &size); err != nil {
			t.Fatal(err)
		}
		files[path] = image.Next(size)
	}
	return files
}

// auditBlobs fails the test if the published namespace holds anything
// torn: every non-temp file must be a complete blob whose content hashes
// to its own name. This is the crash-consistency invariant of the
// tmp+rename publication protocol.
func auditBlobs(t *testing.T, disk *store.MemDisk) (published int) {
	t.Helper()
	for path, data := range diskFiles(t, disk) {
		if strings.HasSuffix(path, ".tmp") {
			continue
		}
		want, err := hex.DecodeString(filepath.Base(path))
		if err != nil {
			t.Fatalf("published blob with non-hash name %q", path)
		}
		if !bytes.Equal(crypto.Hash(data), want) {
			t.Fatalf("TORN BLOB published: %s (%d bytes, wrong content hash)", path, len(data))
		}
		published++
	}
	return published
}

// TestCrashConsistencyUnderInjectedFaults drives a FaultyBlobs-wrapped
// FileBlobs while the disk's syncs and renames fail on a schedule, some
// before and some after they take effect. Whatever combination of faults
// hits a put, the published namespace must never contain a torn blob, and
// an acknowledged put must stay readable.
func TestCrashConsistencyUnderInjectedFaults(t *testing.T) {
	disk := store.NewMemDisk()
	fb, err := disk.OpenFileBlobs("blobs", true) // fsync on: exercise the sync stage too
	if err != nil {
		t.Fatal(err)
	}
	syncN, renameN := 0, 0
	disk.SetFault(func(op, _ string) (bool, error) {
		switch {
		case op == "sync":
			if syncN++; syncN%3 == 0 {
				return syncN%2 == 0, errors.New("injected: disk full during sync")
			}
		case op == "rename":
			if renameN++; renameN%4 == 0 {
				return renameN%8 == 0, errors.New("injected: crash at the rename")
			}
		}
		return false, nil
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
			auditBlobs(t, disk)
		}
	}
	if len(acked) == 0 {
		t.Fatal("every put failed — fault schedule too aggressive to test anything")
	}
	published := auditBlobs(t, disk)
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
	for path := range diskFiles(t, disk) {
		if strings.HasSuffix(path, ".tmp") {
			t.Fatalf("leaked temp file %s", path)
		}
	}
	if syncN == 0 || renameN == 0 {
		t.Fatal("hooks never fired")
	}
}

// TestFailoverMasksInjectedDiskFaults puts a flaky disk primary behind a
// Failover with a healthy memory secondary: callers see no errors even
// while the disk's renames fail, and the disk never publishes a torn
// blob.
func TestFailoverMasksInjectedDiskFaults(t *testing.T) {
	disk := store.NewMemDisk()
	fb, err := disk.OpenFileBlobs("blobs", true)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	disk.SetFault(func(op, _ string) (bool, error) {
		if op != "rename" {
			return false, nil
		}
		if n++; n%2 == 0 {
			return false, errors.New("injected: crash before rename")
		}
		return false, nil
	})
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
	auditBlobs(t, disk)
}

// TestFailoverBadHashKeepsDiskAlive: a GET for a hash no put accepts —
// empty, or too long for a file name — finds nothing on a file-backed
// backend, so a client sending such GETs cannot push a healthy disk out
// of the rotation.
func TestFailoverBadHashKeepsDiskAlive(t *testing.T) {
	fb, err := store.OpenFileBlobs(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New([]Backend{
		{Name: "disk", Store: fb},
		{Name: "mem", Store: transport.NewMemBlobs()},
	}, Options{RetryAttempts: 1, Clock: clock.NewFake()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 50; i++ {
		for _, bad := range [][]byte{nil, bytes.Repeat([]byte{1}, 200)} {
			if _, err := f.GetBlob(bad); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("GetBlob(%d-byte hash) = %v, want not found", len(bad), err)
			}
		}
	}
	if st := f.Status(); !st[0].Alive || f.Stats().BackendsDied != 0 {
		t.Fatalf("the disk left the rotation over bad-hash GETs: %+v, %+v", st, f.Stats())
	}
}
