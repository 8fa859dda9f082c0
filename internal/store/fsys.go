package store

import (
	"os"
	"path/filepath"
)

// fsys is every filesystem call FileBackend and FileBlobs make: osFS in
// production, a MemDisk under tests and the simulator.
type fsys interface {
	mkdirAll(dir string) error
	readDir(dir string) ([]string, error) // the files in dir, sorted by name
	readFile(path string) ([]byte, error)
	stat(path string) error
	openFile(path string) (file, error) // read-write, created if absent
	createTemp(dir, pattern string) (file, error)
	rename(oldpath, newpath string) error
	remove(path string) error
	syncDir(dir string) error
}

// file is an open file of an fsys. Every write is positional.
type file interface {
	Name() string
	WriteAt(p []byte, off int64) (int, error)
	Truncate(size int64) error
	// Sync makes the file's data and size durable. Its name in the
	// directory becomes durable only with the directory's syncDir.
	Sync() error
	Close() error
}

// writeAtomic publishes data under path: written to a fresh temp file in
// the same directory, synced (with fsync), closed and renamed into place,
// so a reader or a recovery sees the whole file or none of it. A failed
// publish removes its temp file.
func writeAtomic(disk fsys, path string, data []byte, fsync bool) error {
	f, err := disk.createTemp(filepath.Dir(path), filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	_, err = f.WriteAt(data, 0)
	if err == nil && fsync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = disk.rename(f.Name(), path)
	}
	if err != nil {
		_ = disk.remove(f.Name()) // already gone if the rename took effect
	}
	return err
}

// osFS is the operating system's filesystem.
type osFS struct{}

func (osFS) mkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) readDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, err
}

func (osFS) readFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) stat(path string) error {
	_, err := os.Stat(path)
	return err
}

func (osFS) openFile(path string) (file, error) {
	return osOpened(os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644))
}

func (osFS) createTemp(dir, pattern string) (file, error) {
	return osOpened(os.CreateTemp(dir, pattern))
}

func (osFS) rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) remove(path string) error { return os.Remove(path) }

func (osFS) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// osFile is an open OS file whose Sync is a data sync (sync_*.go).
type osFile struct{ *os.File }

func osOpened(f *os.File, err error) (file, error) {
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}
