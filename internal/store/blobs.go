package store

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
)

// maxBlobHash bounds a blob hash in bytes, as the blob channel does: its
// hex encoding must stay a valid file name.
const maxBlobHash = 64

// FileBlobs is a file-backed content-addressed blob store: one file per
// blob, named by the hex of its hash, written atomically (tmp + rename).
// It backs the bulk blob channel of persistent shards so that chunked KV
// values survive a server restart alongside the WAL-recovered registers.
//
// Like every store in this system it authenticates nothing: the bytes on
// disk are served verbatim, and a tampered chunk is caught by the
// reader's content-hash check — the same trust model as the WAL (see the
// package comment in file.go).
type FileBlobs struct {
	disk  fsys
	dir   string
	fsync bool
}

// OpenFileBlobs opens (creating if needed) a blob directory. With fsync,
// blob files are synced before the rename that publishes them, making
// them durable against power loss like an fsync'd WAL record.
func OpenFileBlobs(dir string, fsync bool) (*FileBlobs, error) {
	return openFileBlobs(osFS{}, dir, fsync)
}

func openFileBlobs(disk fsys, dir string, fsync bool) (*FileBlobs, error) {
	if err := disk.mkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: creating blob dir: %w", err)
	}
	return &FileBlobs{disk: disk, dir: dir, fsync: fsync}, nil
}

// path maps a hash to its blob file. Hex encoding keeps arbitrary hash
// bytes path-safe.
func (b *FileBlobs) path(hash []byte) string {
	return filepath.Join(b.dir, hex.EncodeToString(hash))
}

// PutBlob stores data under hash. An existing blob with the same hash is
// left untouched (content addressing makes overwrites meaningless), so
// re-uploads of shared chunks cost one stat. Concurrent puts of the same
// hash are safe: each writes its own temp file and the rename is atomic.
// A failed put never publishes a torn blob.
func (b *FileBlobs) PutBlob(hash, data []byte) error {
	if len(hash) == 0 || len(hash) > maxBlobHash {
		return fmt.Errorf("store: blob hash of %d bytes out of range", len(hash))
	}
	dst := b.path(hash)
	if err := b.disk.stat(dst); err == nil {
		return nil
	} else if !errors.Is(err, fs.ErrNotExist) {
		// A stat failure that is NOT "absent" (permissions, I/O error)
		// must not fall through into the write path as if the blob were
		// simply new — surface it so the caller (and any failover layer
		// above) can treat the backend as faulty.
		return fmt.Errorf("store: stat blob: %w", err)
	}
	if err := writeAtomic(b.disk, dst, data, b.fsync); err != nil {
		return fmt.Errorf("store: writing blob: %w", err)
	}
	if b.fsync {
		// The rename's directory entry must reach the disk before the
		// caller commits a root record referencing this blob; without
		// the directory sync a power loss could recover a WAL-durable
		// root whose chunks vanished.
		if err := b.disk.syncDir(b.dir); err != nil {
			return fmt.Errorf("store: syncing blob dir: %w", err)
		}
	}
	return nil
}

// GetBlob reads the blob stored under hash. A missing blob returns an
// error wrapping fs.ErrNotExist, matching the transport.BlobStore
// contract. So does a hash no put accepts, without touching the disk:
// an empty one would name the directory itself, an over-long one an
// invalid file, and either error would look like a failing disk.
func (b *FileBlobs) GetBlob(hash []byte) ([]byte, error) {
	if len(hash) == 0 || len(hash) > maxBlobHash {
		return nil, fmt.Errorf("store: blob hash of %d bytes: %w", len(hash), fs.ErrNotExist)
	}
	data, err := b.disk.readFile(b.path(hash))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("store: blob %x: %w", hash, fs.ErrNotExist)
		}
		return nil, fmt.Errorf("store: reading blob: %w", err)
	}
	return data, nil
}
