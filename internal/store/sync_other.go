//go:build !linux

package store

// Sync falls back to a full fsync on platforms without fdatasync.
func (f osFile) Sync() error { return f.File.Sync() }
