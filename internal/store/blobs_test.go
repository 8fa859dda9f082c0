package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"faust/internal/crypto"
)

func TestFileBlobsRoundTrip(t *testing.T) {
	b, err := OpenFileBlobs(filepath.Join(t.TempDir(), "blobs"), false)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("blob"), 1000)
	hash := crypto.Hash(data)
	if err := b.PutBlob(hash, data); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-put of the same content is a no-op, not an error.
	if err := b.PutBlob(hash, data); err != nil {
		t.Fatalf("re-put: %v", err)
	}
	got, err := b.GetBlob(hash)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get = %d bytes, %v", len(got), err)
	}
	if _, err := b.GetBlob(crypto.Hash([]byte("missing"))); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing blob error = %v, want fs.ErrNotExist", err)
	}
	if names, err := b.disk.readDir(b.dir); err != nil || len(names) != 1 {
		t.Fatalf("blob directory holds %v, %v; want one blob", names, err)
	}
	if err := b.PutBlob(nil, data); err == nil {
		t.Fatal("empty hash accepted")
	}
	// A hash no put accepts is simply absent: the directory itself and an
	// over-long file name are not the disk failing.
	for _, bad := range [][]byte{nil, bytes.Repeat([]byte{7}, 200)} {
		_, err := b.GetBlob(bad)
		if !errors.Is(err, fs.ErrNotExist) || strings.Contains(err.Error(), b.dir) {
			t.Fatalf("GetBlob(%d-byte hash) = %v, want a not-found naming no path", len(bad), err)
		}
	}
}

// TestFileBlobsSurviveReopen is the property the KV recovery path needs:
// a fresh FileBlobs over the same directory serves everything the old one
// stored — chunks are as durable as the WAL next to them.
func TestFileBlobsSurviveReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "blobs")
	b1, err := OpenFileBlobs(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("persisted chunk")
	hash := crypto.Hash(data)
	if err := b1.PutBlob(hash, data); err != nil {
		t.Fatal(err)
	}
	b2, err := OpenFileBlobs(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b2.GetBlob(hash)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("after reopen: %d bytes, %v", len(got), err)
	}
}

// TestFileBlobsConcurrentSameHash: concurrent puts of one hash must all
// succeed and leave exactly one valid blob (atomic publish via rename),
// on the OS and on a MemDisk.
func TestFileBlobsConcurrentSameHash(t *testing.T) {
	osBlobs, err := OpenFileBlobs(filepath.Join(t.TempDir(), "blobs"), false)
	if err != nil {
		t.Fatal(err)
	}
	memBlobs, err := NewMemDisk().OpenFileBlobs("blobs", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*FileBlobs{osBlobs, memBlobs} {
		concurrentSameHash(t, b)
	}
}

func concurrentSameHash(t *testing.T, b *FileBlobs) {
	data := bytes.Repeat([]byte("c"), 1<<16)
	hash := crypto.Hash(data)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- b.PutBlob(hash, data)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent put: %v", err)
		}
	}
	got, err := b.GetBlob(hash)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get after concurrent puts: %d bytes, %v", len(got), err)
	}
	// No temp litter left behind.
	names, err := b.disk.readDir(b.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("blob directory holds %v, want one blob", names)
	}
}

// TestMemDiskFaults pins the fault hook: a fault fails its call either
// before or after the call takes effect, and only the calls it names.
func TestMemDiskFaults(t *testing.T) {
	for _, after := range []bool{false, true} {
		d := NewMemDisk()
		if err := d.mkdirAll("d"); err != nil {
			t.Fatal(err)
		}
		f, err := d.openFile("d/f")
		if err != nil {
			t.Fatal(err)
		}
		injected := errors.New("injected")
		var seen []string
		d.SetFault(func(op, path string) (bool, error) {
			seen = append(seen, op+" "+path)
			return after, injected
		})
		_, werr := f.WriteAt([]byte("data"), 2)
		serr := f.Sync()
		rerr := d.rename("d/f", "d/g")
		d.SetFault(nil)
		for _, err := range []error{werr, serr, rerr, d.syncDir("d")} {
			if err != nil && !errors.Is(err, injected) {
				t.Fatalf("after=%v: %v", after, err)
			}
		}
		if werr == nil || serr == nil || rerr == nil {
			t.Fatalf("after=%v: a faulted call succeeded: %v, %v, %v", after, werr, serr, rerr)
		}
		if want := []string{"write d/f", "sync d/f", "rename d/g"}; fmt.Sprint(seen) != fmt.Sprint(want) {
			t.Fatalf("hook saw %v, want %v", seen, want)
		}
		got, err := d.readFile("d/g")
		if after != (err == nil) || after && !bytes.Equal(got, []byte("\x00\x00data")) {
			t.Fatalf("after=%v: d/g = %q, %v", after, got, err)
		}
		var image bytes.Buffer
		if _, err := d.WriteTo(&image); err != nil {
			t.Fatal(err)
		}
		if want := map[bool]string{false: "d/f 0\n", true: "d/g 6\n\x00\x00data"}[after]; image.String() != want {
			t.Fatalf("after=%v: image %q, want %q", after, image.String(), want)
		}
	}
}
