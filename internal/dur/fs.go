// Package dur is the durable checkpoint store: it persists opaque
// payloads to disk as versioned, resumable generations, each recorded
// under its caller's wave and wave count. The store never interprets a
// payload: a caller encodes it, and decodes it through the function it
// hands to Load, so a payload that does not decode is treated like one
// that failed its checksum. internal/core commits a streaming job's wave
// snapshot this way, so a process killed mid-wave — `kill -9`, no
// shutdown hook — restarts and continues bit-identically to a run that
// was never killed; internal/bt commits the refresher's state once per
// ingested day.
//
// Three layers:
//
//   - FS/File (this file): the I/O seam. Every byte the store reads or
//     writes goes through this interface, so the deterministic
//     fault-injecting implementation (faultfs.go) can exercise torn
//     writes, short reads, bit flips, ENOSPC, and failed rename/fsync
//     against the exact production code paths.
//   - Store (store.go): the atomic commit protocol. Each generation is
//     one file, written as temp file → one CRC32-checksummed,
//     length-prefixed frame (internal/temporal frame.go) → fsync →
//     rename → directory fsync; a generation exists once its rename is
//     done, and survives power loss once its directory is synced. Loads
//     walk generations newest-first, quarantine anything that fails
//     validation or the caller's decode, and fall back to the previous
//     intact one.
//   - The retry supervisor (store.go retry): transient I/O faults are
//     retried a bounded number of times before the store either skips a
//     commit (the previous generation stays the recovery line) or
//     declares a generation corrupt.
package dur

import (
	"io"
	"os"
	"sort"
)

// FS is the file-system seam the store writes through. Implementations
// must make Rename atomic with respect to Open (the POSIX rename
// contract) — that is the property the commit protocol rides on.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// CreateTemp creates a new unique file in dir with a name built from
	// pattern (os.CreateTemp semantics).
	CreateTemp(dir, pattern string) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// ReadDir lists the file names in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// Size returns the byte size of a file.
	Size(name string) (int64, error)
	// SyncDir flushes dir's entries to stable storage (fsync of the
	// directory), so a rename inside it survives power loss.
	SyncDir(dir string) error
}

// File is one open file of an FS: sequential writes while building,
// random-access reads after sealing, plus the fsync and close that the
// commit protocol orders explicitly.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	// Sync flushes the file's contents to stable storage (fsync).
	Sync() error
	// Name returns the path the file was opened with.
	Name() string
}

// OS is the real file system. The zero value is ready to use.
type OS struct{}

var _ FS = OS{}

// MkdirAll implements FS.
func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Create implements FS.
func (OS) Create(name string) (File, error) { return os.Create(name) }

// CreateTemp implements FS.
func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

// Open implements FS.
func (OS) Open(name string) (File, error) { return os.Open(name) }

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// ReadDir implements FS.
func (OS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// Size implements FS.
func (OS) Size(name string) (int64, error) {
	st, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// SyncDir implements FS.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}
