//go:build linux

package storage

import (
	"os"
	"syscall"
)

// datasync flushes f's appended bytes plus the minimum metadata needed
// to read them back (notably the file size), skipping the full inode
// journal commit an fsync pays for timestamps and the block map. With
// the log preallocated the block map never changes between writes, so
// the durable-write hot path is reduced to the data flush alone.
func datasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err != syscall.EINTR {
			return err
		}
	}
}

// preallocate extends f to size bytes up front, so appends inside the
// region change neither the block map nor the file size, the metadata
// that would otherwise hit the journal on every fdatasync. Nothing reads
// the zeros past the log's acknowledged length; Close trims them, and
// after a crash tail repair does (zeros never decode as a record).
func preallocate(f *os.File, size int64) error {
	if size <= 0 {
		return nil
	}
	for {
		err := syscall.Fallocate(int(f.Fd()), 0, 0, size)
		switch err {
		case syscall.EINTR:
			continue
		case syscall.EOPNOTSUPP, syscall.ENOSYS, syscall.EINVAL, syscall.ENOSPC, syscall.EDQUOT:
			// No fallocate here, or no room for the whole chunk: the
			// appends may still fit, and extend the file as they go.
			return nil
		}
		return err
	}
}
