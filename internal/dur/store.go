package dur

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
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
// A generation g is one file, gen-g.ckpt: one CRC32-checksummed,
// length-prefixed frame (temporal.AppendFrame) holding the record (g,
// wave, waves, payload). Commit writes it as gen-g.ckpt.tmp, fsyncs and
// closes it, renames it to gen-g.ckpt and fsyncs the directory (without
// which a power loss could undo the rename). That rename is the commit
// point: a generation exists iff its ckpt does, so a `kill -9` at any
// instant leaves either the previous committed generation (plus
// ignorable *.tmp debris) or the new one — never a half state. A torn
// or flipped byte fails the frame's length or checksum, and a file
// renamed by hand fails the check that its record names its own
// generation. Load walks generations newest-first, hands each payload
// that validates to the caller's decoder, quarantines anything that
// fails either (renamed to corrupt-*, counted as corrupt_detected) and
// falls back to the previous intact generation; the caller then replays
// forward from that older wave (extended replay).
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

	bytes    *obs.Counter // dur_bytes: bytes committed
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

// recGen tags a generation record inside its frame.
const recGen byte = 0xD4

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
			// commit point is the rename, which never happened.
			_ = s.fs.Remove(filepath.Join(dir, n))
			continue
		}
		if _, g, _, ok := parseName(n); ok && g >= s.nextGen {
			s.nextGen = g + 1
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// parseName splits a store file name, <prefix>-%08d.<ext>, into its
// prefix ("gen", or "corrupt" for a quarantined generation), generation
// number and extension ("ckpt"; an older build also wrote "manifest").
// Every such name reserves its number, so none is ever reused.
func parseName(name string) (prefix string, gen uint64, ext string, ok bool) {
	prefix, rest, ok1 := strings.Cut(name, "-")
	digits, ext, ok2 := strings.Cut(rest, ".")
	if !ok1 || !ok2 || (prefix != "gen" && prefix != "corrupt") {
		return "", 0, "", false
	}
	gen, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return "", 0, "", false
	}
	return prefix, gen, ext, true
}

// committed returns the numbers of the committed generations among
// names, newest first.
func committed(names []string) []uint64 {
	var gens []uint64
	for _, n := range names {
		if prefix, g, ext, ok := parseName(n); ok && prefix == "gen" && ext == "ckpt" {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	return gens
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

// writeFileAtomic writes data as path via temp file → fsync → rename →
// directory fsync, retrying the whole bundle on any fault (a retry
// restarts from a fresh temp file, so torn writes never leave a partial
// committed file).
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
			if err := s.fs.Rename(tmp, path); err != nil {
				return err
			}
			if err := s.fs.SyncDir(filepath.Dir(path)); err != nil {
				// Not durable: undo the rename, so that a commit that fails
				// leaves the store as it was.
				_ = s.fs.Remove(path)
				return err
			}
			return nil
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

func ckptName(gen uint64) string { return fmt.Sprintf("gen-%08d.ckpt", gen) }

// encodeGeneration is a generation's file: one frame holding the record
// recGen | gen | wave | waves | payload.
func encodeGeneration(g *Generation) []byte {
	var w temporal.Encoder
	w.Byte(recGen)
	w.Uvarint(g.Gen)
	w.Varint(int64(g.Wave))
	w.Uvarint(uint64(g.Waves))
	w.BytesField(g.Payload)
	return temporal.AppendFrame(nil, w.Bytes())
}

// decodeGeneration parses the file of generation gen: exactly one frame
// whose checksum holds, holding one record that names gen itself. The
// payload aliases data.
func decodeGeneration(gen uint64, data []byte) (*Generation, error) {
	payload, rest, err := temporal.DecodeFrame(data)
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
	if g.Gen != gen {
		return nil, fmt.Errorf("generation record names gen %d, file named %d", g.Gen, gen)
	}
	return g, nil
}

// Commit writes payload as the next generation, recorded under wave and
// waves: one file whose rename is the commit point. On failure the
// store is unchanged (the previous generation remains the recovery
// line), the skip is counted, and the error is returned for the caller
// to surface or tolerate.
func (s *Store) Commit(wave temporal.Time, waves int, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.nextGen
	s.nextGen++ // never reuse a number, even for a failed commit
	data := encodeGeneration(&Generation{Gen: gen, Wave: wave, Waves: waves, Payload: payload})
	if err := s.writeFileAtomic(filepath.Join(s.dir, ckptName(gen)), data); err != nil {
		s.skips.Inc()
		return fmt.Errorf("dur: commit gen %d: %w", gen, err)
	}
	s.bytes.Add(int64(len(data)))
	s.gens.Inc()
	s.prune()
	return nil
}

// prune removes every gen-* file older than the keep window: the
// generations it drops, and an older build's manifests beside them.
// Quarantined corrupt-* files are kept for inspection.
func (s *Store) prune() {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	gens := committed(names)
	if len(gens) <= s.keep {
		return
	}
	floor := gens[s.keep-1]
	for _, n := range names {
		if prefix, g, _, ok := parseName(n); ok && prefix == "gen" && g < floor {
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
	for _, g := range committed(names) {
		var rec *Generation
		err := s.retry(func() error {
			data, err := s.readFile(filepath.Join(s.dir, ckptName(g)))
			if err != nil {
				return err
			}
			if rec, err = decodeGeneration(g, data); err != nil {
				return err
			}
			return decode(rec)
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

// quarantine renames a corrupt generation's file to corrupt-* so it is
// never loaded again but stays inspectable. Best effort: a rename that
// fails falls back to removal.
func (s *Store) quarantine(gen uint64) {
	from := filepath.Join(s.dir, ckptName(gen))
	to := filepath.Join(s.dir, fmt.Sprintf("corrupt-%08d.ckpt", gen))
	if err := s.retry(func() error { return s.fs.Rename(from, to) }); err != nil {
		_ = s.fs.Remove(from)
	}
}
