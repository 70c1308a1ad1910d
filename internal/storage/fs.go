package storage

import (
	"os"
)

// FS is the storage layer's filesystem seam: every file operation the
// WAL and checkpoint code perform goes through this interface instead of
// calling os.* directly, so tests can fail any Write/Sync/Rename/Close
// at any call index (NewFaultFS) while production uses the passthrough
// OSFS. The surface is exactly what the durability protocol needs — no
// more — so a reviewer can audit the whole I/O footprint here.
type FS interface {
	// OpenFile opens a file for the WAL's segment writer (the only
	// consumer; flags are O_CREATE|O_EXCL|O_WRONLY).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp creates the temp file a base or result checkpoint is
	// written to (os.CreateTemp semantics).
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically publishes that temp file.
	Rename(oldpath, newpath string) error
	// Remove deletes superseded result checkpoints, partial segments of a
	// failed reopen attempt, and orphan temp files.
	Remove(name string) error
	// Truncate cuts a quarantined segment back to its last durable byte.
	Truncate(name string, size int64) error
	// ReadDir lists a data directory (segment, base and result discovery).
	ReadDir(name string) ([]os.DirEntry, error)
	// ReadFile slurps one segment, base or result for recovery.
	ReadFile(name string) ([]byte, error)
	// Stat sizes live segments and checkpoint files for Stats reporting.
	Stat(name string) (os.FileInfo, error)
	// MkdirAll creates the data directory on first open.
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory so entry creations/renames/removals in
	// it are durable.
	SyncDir(dir string) error
}

// File is the writable-file subset the WAL and checkpoint writers use.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	// Name returns the path the file was opened with (checkpoint temp
	// files learn their generated name through it).
	Name() string
}

// createFlags is how the WAL opens segment files: exclusive creation,
// write-only. O_EXCL makes accidentally reopening (and clobbering) an
// existing segment a hard error.
const createFlags = os.O_CREATE | os.O_EXCL | os.O_WRONLY

// OSFS is the production FS: direct passthrough to the os package.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
