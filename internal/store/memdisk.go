package store

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// MemDisk is an in-memory filesystem for FileBackend and FileBlobs. It
// models a process crash — a backend abandoned without Close leaves every
// byte it wrote — and one fault hook can fail any write, sync or rename.
// Safe for concurrent use.
type MemDisk struct {
	mu    sync.Mutex
	files map[string]*memFile // by cleaned path; directories are implicit
	temps int
	fault func(op, path string) (after bool, err error)
}

// memFile is an open file and its contents: data, then zeros up to size,
// so a preallocated WAL segment costs no memory. Names and handles share
// it, so a handle outlives a rename of its name, as an inode does.
type memFile struct {
	d    *MemDisk
	name string
	data []byte
	size int64
}

// NewMemDisk returns an empty disk.
func NewMemDisk() *MemDisk { return &MemDisk{files: map[string]*memFile{}} }

// NewMemBackend returns a FileBackend on a fresh MemDisk.
func NewMemBackend() *FileBackend {
	b, err := NewMemDisk().OpenFile("wal", FileOptions{})
	if err != nil {
		panic(err) // an empty MemDisk fails no call
	}
	return b
}

// OpenFile is the package's OpenFile on this disk.
func (d *MemDisk) OpenFile(dir string, opts FileOptions) (*FileBackend, error) {
	return openFile(d, dir, opts)
}

// OpenFileBlobs is the package's OpenFileBlobs on this disk.
func (d *MemDisk) OpenFileBlobs(dir string, fsync bool) (*FileBlobs, error) {
	return openFileBlobs(d, dir, fsync)
}

// SetFault installs hook, which sees every write, sync and rename before
// it runs: op is "write", "sync" or "rename", and path names the file,
// the synced directory or the rename's target. A nil error lets the call
// run. Otherwise the call returns err, after taking effect when after is
// true. A nil hook removes the fault.
func (d *MemDisk) SetFault(hook func(op, path string) (after bool, err error)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fault = hook
}

// WriteTo writes the disk image to w: every file's path, size and bytes,
// in path order.
func (d *MemDisk) WriteTo(w io.Writer) (int64, error) {
	var image bytes.Buffer
	d.mu.Lock()
	paths := make([]string, 0, len(d.files))
	for p := range d.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		fmt.Fprintf(&image, "%s %d\n%s", p, d.files[p].size, d.files[p].contents())
	}
	d.mu.Unlock()
	return image.WriteTo(w)
}

// do runs apply, one write, sync or rename, past the fault hook.
func (d *MemDisk) do(op, path string, apply func() error) error {
	d.mu.Lock()
	hook := d.fault
	d.mu.Unlock()
	var after bool
	var err error
	if hook != nil {
		after, err = hook(op, path)
	}
	if err == nil || after {
		d.mu.Lock()
		defer d.mu.Unlock()
		if aerr := apply(); aerr != nil {
			return aerr
		}
	}
	return err
}

// lookup returns the file at path; d.mu is held.
func (d *MemDisk) lookup(op, path string) (*memFile, error) {
	if f := d.files[filepath.Clean(path)]; f != nil {
		return f, nil
	}
	return nil, &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

func (d *MemDisk) mkdirAll(string) error { return nil }

func (d *MemDisk) readDir(dir string) ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var names []string
	for p := range d.files {
		if filepath.Dir(p) == filepath.Clean(dir) {
			names = append(names, filepath.Base(p))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (d *MemDisk) readFile(path string) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, err := d.lookup("open", path)
	if err != nil {
		return nil, err
	}
	return f.contents(), nil
}

func (d *MemDisk) stat(path string) error {
	_, err := d.readFile(path)
	return err
}

func (d *MemDisk) openFile(path string) (file, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, err := d.lookup("open", path)
	if err != nil {
		f = &memFile{d: d, name: filepath.Clean(path)}
		d.files[f.name] = f
	}
	return f, nil
}

func (d *MemDisk) createTemp(dir, pattern string) (file, error) {
	d.mu.Lock()
	d.temps++
	name := strings.Replace(pattern, "*", strconv.Itoa(d.temps), 1)
	d.mu.Unlock()
	return d.openFile(filepath.Join(dir, name))
}

func (d *MemDisk) rename(oldpath, newpath string) error {
	return d.do("rename", newpath, func() error {
		f, err := d.lookup("rename", oldpath)
		if err == nil {
			delete(d.files, filepath.Clean(oldpath))
			d.files[filepath.Clean(newpath)] = f
		}
		return err
	})
}

func (d *MemDisk) remove(path string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, err := d.lookup("remove", path)
	delete(d.files, filepath.Clean(path))
	return err
}

func (d *MemDisk) syncDir(dir string) error { return d.do("sync", dir, func() error { return nil }) }

func (f *memFile) Name() string { return f.name }

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	err := f.d.do("write", f.name, func() error {
		f.size = max(f.size, off+int64(len(p)))
		if off >= int64(len(f.data)) && bytes.Count(p, []byte{0}) == len(p) {
			return nil // zeros past the data: the tail holds them
		}
		if gap := off - int64(len(f.data)); gap > 0 {
			f.data = append(f.data, make([]byte, gap)...)
		}
		n := copy(f.data[off:], p)
		f.data = append(f.data, p[n:]...)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

func (f *memFile) Truncate(size int64) error {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	f.size = size
	f.data = f.data[:min(int64(len(f.data)), size)]
	return nil
}

func (f *memFile) Sync() error { return f.d.do("sync", f.name, func() error { return nil }) }

func (f *memFile) Close() error { return nil }

// contents returns a copy of the file's bytes; d.mu is held.
func (f *memFile) contents() []byte {
	out := make([]byte, f.size)
	copy(out, f.data)
	return out
}
