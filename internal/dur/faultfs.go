package dur

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"syscall"

	"timr/internal/temporal"
)

// Deterministic I/O fault injection. FaultFS wraps another FS and makes
// each primitive operation — write, fsync, rename, read, open — draw its
// fate from a pure function of (seed, operation ordinal), mirroring the
// hash-chain draw of mapreduce's Cluster.injectedFailure: the same seed
// over the same operation sequence injects exactly the same faults, so a
// faulty durability run is exactly reproducible.
//
// The menu is the classic storage fault model:
//
//   - torn write: a prefix of the buffer reaches the file, then the
//     write errors — what a crash mid-write leaves behind;
//   - ENOSPC: the write errors having written nothing (the error wraps
//     syscall.ENOSPC, so errors.Is sees a full disk);
//   - failed fsync (of a file or a directory) / failed rename: the
//     commit protocol's ordering points break individually;
//   - short read: ReadAt returns a prefix and an error;
//   - bit flip: ReadAt succeeds but one bit of the returned buffer is
//     inverted — silent corruption only checksums can catch.
//
// Every injected error wraps ErrInjected. Errors are transient in the
// retry sense: a retried operation draws a fresh ordinal and usually
// succeeds, which is exactly the behavior the store's retry supervisor
// is built against. Bit flips return no error at all; they surface (if
// ever) as frame checksum failures downstream.

// ErrInjected marks every error produced by FaultFS, so tests and the
// retry supervisor can tell injected faults from real I/O failures.
var ErrInjected = errors.New("dur: injected fault")

// Fault kinds, selectable via FaultConfig.Kinds.
const (
	FaultTornWrite = "torn-write"
	FaultENOSPC    = "enospc"
	FaultSync      = "sync"
	FaultRename    = "rename"
	FaultShortRead = "short-read"
	FaultBitFlip   = "bit-flip"
	FaultOpen      = "open"
)

// AllFaults lists every fault kind, the default injection menu.
var AllFaults = []string{
	FaultTornWrite, FaultENOSPC, FaultSync, FaultRename,
	FaultShortRead, FaultBitFlip, FaultOpen,
}

// FaultConfig tunes a FaultFS.
type FaultConfig struct {
	// Rate is the per-operation fault probability (0 disables).
	Rate float64
	// Seed makes the injection sequence reproducible.
	Seed int64
	// Kinds restricts the faults injected; nil means AllFaults.
	Kinds []string
}

// FaultFS wraps an FS with deterministic fault injection. It is safe for
// concurrent use (the operation ordinal is mutex-protected), though the
// injection sequence is only reproducible when the operation order is.
type FaultFS struct {
	inner FS
	cfg   FaultConfig
	kinds map[string]bool

	mu       sync.Mutex
	op       int64 // operation ordinal, the draw input
	injected int64 // faults injected so far
}

var _ FS = (*FaultFS)(nil)

// NewFaultFS wraps inner with deterministic fault injection.
func NewFaultFS(inner FS, cfg FaultConfig) *FaultFS {
	kinds := cfg.Kinds
	if kinds == nil {
		kinds = AllFaults
	}
	set := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		set[k] = true
	}
	return &FaultFS{inner: inner, cfg: cfg, kinds: set}
}

// Injected returns the number of faults injected so far.
func (f *FaultFS) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// draw decides the fate of one operation: among the candidate kinds that
// the config enables, either none (no fault) or one chosen uniformly.
// The draw is a pure function of (Seed, ordinal).
func (f *FaultFS) draw(candidates ...string) string {
	if f.cfg.Rate <= 0 {
		return ""
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	op := f.op
	f.op++
	enabled := candidates[:0:0]
	for _, k := range candidates {
		if f.kinds[k] {
			enabled = append(enabled, k)
		}
	}
	if len(enabled) == 0 {
		return ""
	}
	h := temporal.HashSeed
	h = temporal.Int(f.cfg.Seed).Hash(h)
	h = temporal.Int(op).Hash(h)
	r := rand.New(rand.NewSource(int64(h)))
	if r.Float64() >= f.cfg.Rate {
		return ""
	}
	f.injected++
	return enabled[r.Intn(len(enabled))]
}

func injected(kind string) error {
	if kind == FaultENOSPC {
		return fmt.Errorf("%w: %s: %w", ErrInjected, kind, syscall.ENOSPC)
	}
	return fmt.Errorf("%w: %s", ErrInjected, kind)
}

// MkdirAll implements FS (never fault-injected: directory creation
// happens once at open, not on the commit path).
func (f *FaultFS) MkdirAll(dir string) error { return f.inner.MkdirAll(dir) }

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) {
	if kind := f.draw(FaultOpen, FaultENOSPC); kind != "" {
		return nil, injected(kind)
	}
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

// CreateTemp implements FS.
func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if kind := f.draw(FaultOpen, FaultENOSPC); kind != "" {
		return nil, injected(kind)
	}
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

// Open implements FS.
func (f *FaultFS) Open(name string) (File, error) {
	if kind := f.draw(FaultOpen); kind != "" {
		return nil, injected(kind)
	}
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

// Rename implements FS.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	if kind := f.draw(FaultRename); kind != "" {
		return injected(kind)
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements FS (never fault-injected: cleanup failing would only
// mask the interesting faults with leftover-file noise).
func (f *FaultFS) Remove(name string) error { return f.inner.Remove(name) }

// ReadDir implements FS.
func (f *FaultFS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }

// Size implements FS.
func (f *FaultFS) Size(name string) (int64, error) { return f.inner.Size(name) }

// SyncDir implements FS.
func (f *FaultFS) SyncDir(dir string) error {
	if kind := f.draw(FaultSync); kind != "" {
		return injected(kind)
	}
	return f.inner.SyncDir(dir)
}

// faultFile threads per-call fault draws through a File's data plane.
type faultFile struct {
	File
	fs *FaultFS
}

func (ff *faultFile) Write(p []byte) (int, error) {
	switch kind := ff.fs.draw(FaultTornWrite, FaultENOSPC); kind {
	case FaultTornWrite:
		n := len(p) / 2
		if n > 0 {
			if wn, err := ff.File.Write(p[:n]); err != nil {
				return wn, err
			}
		}
		return n, injected(kind)
	case FaultENOSPC:
		return 0, injected(kind)
	}
	return ff.File.Write(p)
}

func (ff *faultFile) Sync() error {
	if kind := ff.fs.draw(FaultSync); kind != "" {
		return injected(kind)
	}
	return ff.File.Sync()
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	switch kind := ff.fs.draw(FaultShortRead, FaultBitFlip); kind {
	case FaultShortRead:
		n := len(p) / 2
		if n > 0 {
			if rn, err := ff.File.ReadAt(p[:n], off); err != nil {
				return rn, err
			}
		}
		return n, injected(kind)
	case FaultBitFlip:
		n, err := ff.File.ReadAt(p, off)
		if n > 0 {
			// Flip one deterministic bit of the returned buffer: silent
			// corruption that only the frame checksum can catch.
			h := temporal.Int(off).Hash(temporal.HashSeed)
			p[int(h%uint64(n))] ^= 1 << (h % 8)
		}
		return n, err
	}
	return ff.File.ReadAt(p, off)
}
