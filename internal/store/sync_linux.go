//go:build linux

package store

import (
	"errors"
	"syscall"
)

// Sync flushes the file's data (and only the metadata needed to read it
// back, e.g. size changes) with fdatasync. Combined with segment
// preallocation this skips the inode timestamp writes a full fsync pays on
// every group-commit flush.
func (f osFile) Sync() error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if !errors.Is(err, syscall.EINTR) {
			return err
		}
	}
}
