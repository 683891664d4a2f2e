package dur

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"timr/internal/obs"
	"timr/internal/temporal"
)

// Store is the durable checkpoint store: a directory of committed
// generations, each one opaque payload that its caller encodes and
// decodes (a streaming job's wave snapshot, or a refresher's state),
// recorded under the caller's wave and wave count.
//
// Commit protocol, per generation g:
//
//  1. gen-g.ckpt.tmp is written as one CRC32-checksummed, length-prefixed
//     frame (temporal.AppendFrame) holding g, the wave, the wave count
//     and the payload, fsynced, closed, and renamed to gen-g.ckpt;
//  2. gen-g.manifest.tmp — one frame recording g, the wave, the ckpt
//     file name and its exact byte size — is written, fsynced, and
//     renamed to gen-g.manifest.
//
// The manifest rename is the commit point: a generation exists iff its
// manifest does, so a `kill -9` at any instant leaves either the
// previous committed generation (plus ignorable *.tmp debris) or the new
// one — never a half state. Load walks generations newest-first,
// validates every frame against its checksum and the manifest's recorded
// size, hands the payload to the caller's decoder, quarantines anything
// that fails either (renamed to corrupt-*, counted as corrupt_detected)
// and falls back to the previous intact generation;
// the caller then replays forward from that older wave (extended
// replay).
//
// Every I/O bundle runs under the retry supervisor: transient faults
// (FaultFS's torn writes, short reads, failed fsync/rename, ENOSPC) are
// retried at once, a bounded number of times. A commit that still fails
// is skipped — counted as commit_failures — leaving the previous
// generation as the recovery line, so durability degrades to a longer
// replay rather than an outage.
type Store struct {
	dir     string
	fs      FS
	keep    int
	retries int

	mu      sync.Mutex
	nextGen uint64

	bytes    *obs.Counter // dur_bytes: bytes committed (ckpt + manifest)
	gens     *obs.Counter // generations: successful commits
	corrupt  *obs.Counter // corrupt_detected: generations quarantined
	retriesC *obs.Counter // retries: I/O bundles re-attempted
	skips    *obs.Counter // commit_failures: commits abandoned after retries
}

// Options tunes OpenStore. Zero fields take defaults.
type Options struct {
	// FS is the I/O implementation (default: the real OS file system).
	// Tests substitute a FaultFS.
	FS FS
	// Keep bounds how many committed generations are retained (default
	// 3, floor 2 — fallback needs a predecessor).
	Keep int
	// Retries bounds attempts per I/O bundle (default 12).
	Retries int
	// Obs receives the store's counters (dur_bytes, generations,
	// corrupt_detected, retries, commit_failures). Nil disables
	// instrumentation.
	Obs *obs.Scope
}

// Generation is one committed generation: its number, the wave and
// wave count the caller committed it under, and the caller's payload,
// which the store never interprets.
type Generation struct {
	Gen     uint64
	Wave    temporal.Time
	Waves   int
	Payload []byte
}

// Record tags inside the store's frames.
const (
	recManifest byte = 0xD3
	recGen      byte = 0xD4
)

// OpenStore opens (creating if needed) a durable store rooted at dir.
// Leftover temp files from a killed commit are swept; quarantined
// generations are left in place for inspection but never reused.
func OpenStore(dir string, o Options) (*Store, error) {
	if o.FS == nil {
		o.FS = OS{}
	}
	if o.Keep <= 0 {
		o.Keep = 3
	}
	if o.Keep < 2 {
		o.Keep = 2
	}
	if o.Retries <= 0 {
		o.Retries = 12
	}
	s := &Store{
		dir: dir, fs: o.FS, keep: o.Keep, retries: o.Retries,
		bytes:    o.Obs.Counter("dur_bytes"),
		gens:     o.Obs.Counter("generations"),
		corrupt:  o.Obs.Counter("corrupt_detected"),
		retriesC: o.Obs.Counter("retries"),
		skips:    o.Obs.Counter("commit_failures"),
	}
	if err := s.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("dur: open store: %w", err)
	}
	names, err := s.fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("dur: open store: %w", err)
	}
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") {
			// A torn commit from a killed process; safe to sweep — the
			// commit point is the manifest rename, which never happened.
			_ = s.fs.Remove(filepath.Join(dir, n))
			continue
		}
		if g, ok := parseGen(n); ok && g >= s.nextGen {
			s.nextGen = g + 1
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// parseGen extracts the generation number from gen-*/corrupt-* file
// names (quarantined generations still reserve their number).
func parseGen(name string) (uint64, bool) {
	var g uint64
	for _, pat := range []string{"gen-%08d.manifest", "gen-%08d.ckpt", "corrupt-%08d.manifest", "corrupt-%08d.ckpt"} {
		if _, err := fmt.Sscanf(name, pat, &g); err == nil {
			return g, true
		}
	}
	return 0, false
}

// retry runs one I/O bundle under the supervisor: up to s.retries
// attempts with no delay between them, counting the re-attempts.
func (s *Store) retry(op func() error) error {
	var err error
	for attempt := 0; attempt < s.retries; attempt++ {
		if err = op(); err == nil {
			return nil
		}
		if attempt < s.retries-1 {
			s.retriesC.Inc()
		}
	}
	return err
}

// writeFileAtomic writes data as path via temp file → fsync → rename,
// retrying the whole bundle on any fault (a retry restarts from a fresh
// temp file, so torn writes never leave a partial committed file).
func (s *Store) writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	return s.retry(func() error {
		err := func() error {
			f, err := s.fs.Create(tmp)
			if err != nil {
				return err
			}
			_, werr := f.Write(data)
			var serr error
			if werr == nil {
				serr = f.Sync()
			}
			cerr := f.Close()
			switch {
			case werr != nil:
				return werr
			case serr != nil:
				return serr
			case cerr != nil:
				return cerr
			}
			return s.fs.Rename(tmp, path)
		}()
		if err != nil {
			_ = s.fs.Remove(tmp)
		}
		return err
	})
}

// readFile reads a whole file through the FS seam (single ReadAt of the
// stat'ed size, so short reads and bit flips surface to the caller).
func (s *Store) readFile(path string) ([]byte, error) {
	size, err := s.fs.Size(path)
	if err != nil {
		return nil, err
	}
	f, err := s.fs.Open(path)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	var rerr error
	if size > 0 {
		_, rerr = f.ReadAt(buf, 0)
	}
	cerr := f.Close()
	if rerr != nil {
		return nil, rerr
	}
	if cerr != nil {
		return nil, cerr
	}
	return buf, nil
}

func (s *Store) ckptName(gen uint64) string     { return fmt.Sprintf("gen-%08d.ckpt", gen) }
func (s *Store) manifestName(gen uint64) string { return fmt.Sprintf("gen-%08d.manifest", gen) }

// Commit writes payload as the next generation, recorded under wave and
// waves. The checkpoint file is one frame holding the record (gen, wave,
// waves, payload); the manifest, written after it, is the commit point.
// On failure the store is unchanged (the previous generation remains the
// recovery line), the skip is counted, and the error is returned for the
// caller to surface or tolerate.
func (s *Store) Commit(wave temporal.Time, waves int, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.nextGen
	s.nextGen++ // never reuse a number, even for a failed commit
	var w temporal.Encoder
	w.Byte(recGen)
	w.Uvarint(gen)
	w.Varint(int64(wave))
	w.Uvarint(uint64(waves))
	w.BytesField(payload)
	data := temporal.AppendFrame(nil, w.Bytes())

	ckpt := s.ckptName(gen)
	if err := s.writeFileAtomic(filepath.Join(s.dir, ckpt), data); err != nil {
		s.skips.Inc()
		return fmt.Errorf("dur: commit gen %d: %w", gen, err)
	}

	var mw temporal.Encoder
	mw.Byte(recManifest)
	mw.Uvarint(gen)
	mw.Varint(int64(wave))
	mw.Uvarint(uint64(waves))
	mw.String(ckpt)
	mw.Uvarint(uint64(len(data)))
	manData := temporal.AppendFrame(nil, mw.Bytes())
	if err := s.writeFileAtomic(filepath.Join(s.dir, s.manifestName(gen)), manData); err != nil {
		s.skips.Inc()
		_ = s.fs.Remove(filepath.Join(s.dir, ckpt)) // orphan without a manifest
		return fmt.Errorf("dur: commit gen %d manifest: %w", gen, err)
	}
	s.bytes.Add(int64(len(data) + len(manData)))
	s.gens.Inc()
	s.prune(gen)
	return nil
}

// prune removes committed generations older than the keep window (and
// any orphaned ckpt files below it). Quarantined corrupt-* files are
// kept for inspection.
func (s *Store) prune(latest uint64) {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	var committed []uint64
	for _, n := range names {
		var g uint64
		if _, err := fmt.Sscanf(n, "gen-%08d.manifest", &g); err == nil {
			committed = append(committed, g)
		}
	}
	sort.Slice(committed, func(i, j int) bool { return committed[i] > committed[j] })
	if len(committed) <= s.keep {
		return
	}
	floor := committed[s.keep-1]
	for _, n := range names {
		var g uint64
		isMan, isCkpt := false, false
		if _, err := fmt.Sscanf(n, "gen-%08d.manifest", &g); err == nil {
			isMan = true
		} else if _, err := fmt.Sscanf(n, "gen-%08d.ckpt", &g); err == nil {
			isCkpt = true
		}
		if (isMan || isCkpt) && g < floor && g != latest {
			_ = s.fs.Remove(filepath.Join(s.dir, n))
		}
	}
}

// Load returns the newest intact generation that decode accepts, or
// (nil, nil) when the store holds none (fresh directory, or every
// generation corrupt — the caller then starts clean and replays
// everything). decode parses the payload into the caller's own form;
// its error means the generation is corrupt. A generation that fails
// validation or decode after retries is quarantined, and the walk falls
// back to the next-newest one.
func (s *Store) Load(decode func(*Generation) error) (*Generation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	if err := s.retry(func() error {
		var err error
		names, err = s.fs.ReadDir(s.dir)
		return err
	}); err != nil {
		return nil, fmt.Errorf("dur: load: %w", err)
	}
	var gens []uint64
	for _, n := range names {
		var g uint64
		if _, err := fmt.Sscanf(n, "gen-%08d.manifest", &g); err == nil {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	for _, g := range gens {
		var rec *Generation
		err := s.retry(func() error {
			var err error
			if rec, err = s.readGen(g); err == nil {
				err = decode(rec)
			}
			return err
		})
		if err == nil {
			return rec, nil
		}
		// Persistent failure across retries: the generation is corrupt on
		// disk, not transiently unreadable. Quarantine it and fall back.
		s.corrupt.Inc()
		s.quarantine(g)
	}
	return nil, nil
}

// readGen reads one generation: its manifest, then its checkpoint file,
// whose size, frame checksum and record (gen, wave, waves) must all
// agree with the manifest.
func (s *Store) readGen(gen uint64) (*Generation, error) {
	manData, err := s.readFile(filepath.Join(s.dir, s.manifestName(gen)))
	if err != nil {
		return nil, err
	}
	payload, rest, err := temporal.DecodeFrame(manData)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("manifest: %d trailing bytes", len(rest))
	}
	mr := temporal.NewDecoder(payload)
	if err := mr.Expect(recManifest, "manifest"); err != nil {
		return nil, err
	}
	mgen := mr.Uvarint()
	wave := temporal.Time(mr.Varint())
	waves := int(mr.Uvarint())
	ckptName := mr.String()
	ckptSize := mr.Uvarint()
	if err := mr.Done(); err != nil {
		return nil, err
	}
	if mgen != gen {
		return nil, fmt.Errorf("manifest records gen %d, file named %d", mgen, gen)
	}

	data, err := s.readFile(filepath.Join(s.dir, ckptName))
	if err != nil {
		return nil, err
	}
	if uint64(len(data)) != ckptSize {
		return nil, fmt.Errorf("checkpoint file is %d bytes, manifest records %d", len(data), ckptSize)
	}
	payload, rest, err = temporal.DecodeFrame(data)
	if err != nil {
		return nil, fmt.Errorf("generation frame: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("generation frame: %d trailing bytes", len(rest))
	}
	r := temporal.NewDecoder(payload)
	if err := r.Expect(recGen, "generation record"); err != nil {
		return nil, err
	}
	g := &Generation{Gen: r.Uvarint(), Wave: temporal.Time(r.Varint()), Waves: int(r.Uvarint()), Payload: r.BytesField()}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if g.Gen != gen || g.Wave != wave || g.Waves != waves {
		return nil, fmt.Errorf("generation record (gen %d wave %d waves %d) disagrees with manifest (gen %d wave %d waves %d)",
			g.Gen, g.Wave, g.Waves, gen, wave, waves)
	}
	return g, nil
}

// quarantine renames a corrupt generation's files to corrupt-* so they
// are never loaded again but stay inspectable. Best effort: a rename
// that fails falls back to removal.
func (s *Store) quarantine(gen uint64) {
	for _, pair := range [][2]string{
		{s.manifestName(gen), fmt.Sprintf("corrupt-%08d.manifest", gen)},
		{s.ckptName(gen), fmt.Sprintf("corrupt-%08d.ckpt", gen)},
	} {
		from := filepath.Join(s.dir, pair[0])
		to := filepath.Join(s.dir, pair[1])
		if err := s.retry(func() error { return s.fs.Rename(from, to) }); err != nil {
			_ = s.fs.Remove(from)
		}
	}
}
