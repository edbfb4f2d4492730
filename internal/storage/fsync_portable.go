//go:build !linux

package storage

import "os"

// datasync falls back to a full fsync where fdatasync is unavailable;
// Sync is the portable durability baseline (on darwin, Go's
// File.Sync already issues F_FULLFSYNC).
func datasync(f *os.File) error { return f.Sync() }

// preallocate is a no-op off linux: the log grows by appending, the
// pre-preallocation behavior, and replay never sees zero tails.
func preallocate(f *os.File, size int64) error { return nil }
