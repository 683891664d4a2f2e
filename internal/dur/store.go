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
// generations, each one wave's full recovery state (every partition's
// engine checkpoint + replay log, plus the delivered-output record).
//
// Commit protocol, per generation g:
//
//  1. gen-g.ckpt.tmp is written as a sequence of CRC32-checksummed,
//     length-prefixed frames (temporal.AppendFrame), fsynced, closed,
//     and renamed to gen-g.ckpt;
//  2. gen-g.manifest.tmp — one frame recording g, the wave, the ckpt
//     file name and its exact byte size — is written, fsynced, and
//     renamed to gen-g.manifest.
//
// The manifest rename is the commit point: a generation exists iff its
// manifest does, so a `kill -9` at any instant leaves either the
// previous committed generation (plus ignorable *.tmp debris) or the new
// one — never a half state. Load walks generations newest-first,
// validates every frame against its checksum and the manifest's recorded
// size, quarantines anything that fails (renamed to corrupt-*, counted
// as corrupt_detected) and falls back to the previous intact generation;
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

// PartitionState is one streaming partition's recovery record: the
// engine checkpoint taken at the wave, and the replay log of events
// admitted but not yet consumed.
type PartitionState struct {
	Frag string
	Part int
	Ckpt []byte
	Log  []temporal.Event
}

// SourceOffset records one ingest source's schedule position at the
// committed wave: how many schedule entries the driver had consumed when
// the wave was committed. Recovery seeks the input to Pos instead of
// re-walking the schedule from the start.
type SourceOffset struct {
	Name string
	Pos  int64
}

// Snapshot is one wave's full recovery state — exactly what the
// in-memory crash path reconstructs from, plus the job-level output
// record a process restart additionally needs.
type Snapshot struct {
	Wave  temporal.Time // punctuation time of the committed wave
	Waves int           // completed waves (the crash-draw clock)
	// Machines is the job's hash fan-out, against which Parts' ids were
	// assigned. Zero in a generation written before counts were recorded.
	Machines int
	Parts    []PartitionState
	// Results are the output events delivered so far; Pending are output
	// events buffered behind the final barrier (LE at or beyond Wave).
	Results []temporal.Event
	Pending []temporal.Event
	// Offsets are the durable input positions of every source whose
	// driver published one (Feeder.SetPosition), sorted by name.
	Offsets []SourceOffset
}

// Recovery is the outcome of a successful Load.
type Recovery struct {
	Gen  uint64
	Snap *Snapshot
}

// Record tags inside checkpoint-file frames. recHeaderV1 is the snapshot
// header written before the machine count was recorded; it still decodes,
// with Machines zero, so a restore can refuse it by name.
const (
	recHeaderV1  byte = 0xD0
	recPartition byte = 0xD1
	recOut       byte = 0xD2
	recManifest  byte = 0xD3
	recState     byte = 0xD4
	recHeader    byte = 0xD5
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

// Commit writes snap as the next generation. On failure the store is
// unchanged (the previous generation remains the recovery line), the
// skip is counted, and the error is returned for the caller to surface
// or tolerate.
func (s *Store) Commit(snap *Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.nextGen
	s.nextGen++ // never reuse a number, even for a failed commit
	return s.commitFiles(gen, snap.Wave, snap.Waves, encodeSnapshot(gen, snap))
}

// CommitState commits an opaque state payload as the next generation,
// under the same atomic protocol (ckpt write+fsync+rename, then manifest
// rename as the commit point) and the same retry supervisor. The
// incremental BT refresh persists one ingested day per generation this
// way: wave carries the refresh watermark and waves the ingested-day
// count. A store directory holds either streaming snapshots or state
// generations, never both — a mismatched load treats the generation as
// corrupt.
func (s *Store) CommitState(wave temporal.Time, waves int, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.nextGen
	s.nextGen++
	var w temporal.Encoder
	w.Byte(recState)
	w.Uvarint(gen)
	w.Varint(int64(wave))
	w.Uvarint(uint64(waves))
	w.BytesField(payload)
	return s.commitFiles(gen, wave, waves, temporal.AppendFrame(nil, w.Bytes()))
}

// commitFiles is the shared tail of Commit/CommitState: the atomic
// ckpt-then-manifest write of one already-encoded generation. Callers
// hold s.mu.
func (s *Store) commitFiles(gen uint64, wave temporal.Time, waves int, data []byte) error {
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

// Load returns the newest intact generation, or (nil, nil) when the
// store holds none (fresh directory, or every generation corrupt —
// the caller then starts clean and replays everything). Generations
// that fail validation after retries are quarantined and skipped.
func (s *Store) Load() (*Recovery, error) {
	var rec *Recovery
	err := s.loadNewest(func(gen uint64, wave temporal.Time, waves int, data []byte) error {
		snap, err := decodeSnapshot(gen, wave, waves, data)
		if err != nil {
			return err
		}
		rec = &Recovery{Gen: gen, Snap: snap}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// StateRecovery is the outcome of a successful LoadState.
type StateRecovery struct {
	Gen     uint64
	Wave    temporal.Time
	Waves   int
	Payload []byte
}

// LoadState returns the newest intact state generation (CommitState),
// or (nil, nil) when the store holds none. Corrupt generations are
// quarantined with fallback, exactly like Load.
func (s *Store) LoadState() (*StateRecovery, error) {
	var rec *StateRecovery
	err := s.loadNewest(func(gen uint64, wave temporal.Time, waves int, data []byte) error {
		payload, err := decodeState(gen, wave, waves, data)
		if err != nil {
			return err
		}
		rec = &StateRecovery{Gen: gen, Wave: wave, Waves: waves, Payload: payload}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// loadNewest walks committed generations newest-first, fully validating
// each through decode until one succeeds; failed generations are
// quarantined. decode receives the manifest-verified checkpoint bytes.
func (s *Store) loadNewest(decode func(gen uint64, wave temporal.Time, waves int, data []byte) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	if err := s.retry(func() error {
		var err error
		names, err = s.fs.ReadDir(s.dir)
		return err
	}); err != nil {
		return fmt.Errorf("dur: load: %w", err)
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
		err := s.retry(func() error {
			wave, waves, data, err := s.readGen(g)
			if err != nil {
				return err
			}
			return decode(g, wave, waves, data)
		})
		if err == nil {
			return nil
		}
		// Persistent failure across retries: the generation is corrupt on
		// disk, not transiently unreadable. Quarantine it and fall back.
		s.corrupt.Inc()
		s.quarantine(g)
	}
	return nil
}

// readGen reads one generation's checkpoint bytes after validating them
// against its manifest.
func (s *Store) readGen(gen uint64) (temporal.Time, int, []byte, error) {
	manData, err := s.readFile(filepath.Join(s.dir, s.manifestName(gen)))
	if err != nil {
		return 0, 0, nil, err
	}
	payload, rest, err := temporal.DecodeFrame(manData)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("manifest: %w", err)
	}
	if len(rest) != 0 {
		return 0, 0, nil, fmt.Errorf("manifest: %d trailing bytes", len(rest))
	}
	mr := temporal.NewDecoder(payload)
	if err := mr.Expect(recManifest, "manifest"); err != nil {
		return 0, 0, nil, err
	}
	mgen := mr.Uvarint()
	wave := temporal.Time(mr.Varint())
	waves := int(mr.Uvarint())
	ckptName := mr.String()
	ckptSize := mr.Uvarint()
	if err := mr.Done(); err != nil {
		return 0, 0, nil, err
	}
	if mgen != gen {
		return 0, 0, nil, fmt.Errorf("manifest records gen %d, file named %d", mgen, gen)
	}

	data, err := s.readFile(filepath.Join(s.dir, ckptName))
	if err != nil {
		return 0, 0, nil, err
	}
	if uint64(len(data)) != ckptSize {
		return 0, 0, nil, fmt.Errorf("checkpoint file is %d bytes, manifest records %d", len(data), ckptSize)
	}
	return wave, waves, data, nil
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

// ---- snapshot encoding ----

// encodeSnapshot lays snap out as frames: a header record, one record
// per partition, and the output record. Everything inside a frame uses
// the shared checkpoint codec, so the file form is the checkpoint codec
// plus framing — one encoding, two persistence layers.
func encodeSnapshot(gen uint64, snap *Snapshot) []byte {
	var buf []byte
	var w temporal.Encoder
	w.Byte(recHeader)
	w.Uvarint(gen)
	w.Varint(int64(snap.Wave))
	w.Uvarint(uint64(snap.Waves))
	w.Uvarint(uint64(snap.Machines))
	w.Uvarint(uint64(len(snap.Parts)))
	w.Uvarint(uint64(len(snap.Offsets)))
	for _, o := range snap.Offsets {
		w.String(o.Name)
		w.Varint(o.Pos)
	}
	buf = temporal.AppendFrame(buf, w.Bytes())
	for _, p := range snap.Parts {
		w.Reset()
		w.Byte(recPartition)
		w.String(p.Frag)
		w.Varint(int64(p.Part))
		w.BytesField(p.Ckpt)
		w.Events(p.Log)
		buf = temporal.AppendFrame(buf, w.Bytes())
	}
	w.Reset()
	w.Byte(recOut)
	w.Events(snap.Results)
	w.Events(snap.Pending)
	return temporal.AppendFrame(buf, w.Bytes())
}

// decodeSnapshot validates and decodes a checkpoint file. Every frame's
// checksum, every count and length, and the cross-checks against the
// manifest (gen, wave, waves, partition count) must agree.
func decodeSnapshot(gen uint64, wave temporal.Time, waves int, data []byte) (*Snapshot, error) {
	payload, rest, err := temporal.DecodeFrame(data)
	if err != nil {
		return nil, fmt.Errorf("header frame: %w", err)
	}
	hr := temporal.NewDecoder(payload)
	tag := hr.Byte()
	if tag != recHeader && tag != recHeaderV1 {
		return nil, hr.Failf("expected snapshot header tag 0x%02x, found 0x%02x", recHeader, tag)
	}
	hgen := hr.Uvarint()
	hwave := temporal.Time(hr.Varint())
	hwaves := int(hr.Uvarint())
	snap := &Snapshot{Wave: wave, Waves: waves}
	if tag == recHeader {
		snap.Machines = int(hr.Uvarint())
	}
	nparts := int(hr.Uvarint())
	noffs := hr.Count("source offsets")
	for i := 0; i < noffs; i++ {
		snap.Offsets = append(snap.Offsets, SourceOffset{Name: hr.String(), Pos: hr.Varint()})
	}
	if err := hr.Done(); err != nil {
		return nil, err
	}
	if hgen != gen || hwave != wave || hwaves != waves {
		return nil, fmt.Errorf("header (gen %d wave %d waves %d) disagrees with manifest (gen %d wave %d waves %d)",
			hgen, hwave, hwaves, gen, wave, waves)
	}
	for i := 0; i < nparts; i++ {
		payload, rest, err = temporal.DecodeFrame(rest)
		if err != nil {
			return nil, fmt.Errorf("partition frame %d: %w", i, err)
		}
		pr := temporal.NewDecoder(payload)
		if err := pr.Expect(recPartition, "partition record"); err != nil {
			return nil, err
		}
		ps := PartitionState{
			Frag: pr.String(),
			Part: int(pr.Varint()),
			Ckpt: pr.BytesField(),
			Log:  pr.Events(),
		}
		if err := pr.Done(); err != nil {
			return nil, err
		}
		snap.Parts = append(snap.Parts, ps)
	}
	payload, rest, err = temporal.DecodeFrame(rest)
	if err != nil {
		return nil, fmt.Errorf("output frame: %w", err)
	}
	or := temporal.NewDecoder(payload)
	if err := or.Expect(recOut, "output record"); err != nil {
		return nil, err
	}
	snap.Results = or.Events()
	snap.Pending = or.Events()
	if err := or.Done(); err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after output frame", len(rest))
	}
	return snap, nil
}

// decodeState validates a state generation (CommitState) and returns its
// payload. The frame checksum, record tag, and manifest cross-checks must
// all agree — a streaming snapshot in the same slot fails here and is
// quarantined, enforcing the one-kind-per-directory contract.
func decodeState(gen uint64, wave temporal.Time, waves int, data []byte) ([]byte, error) {
	payload, rest, err := temporal.DecodeFrame(data)
	if err != nil {
		return nil, fmt.Errorf("state frame: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("state frame: %d trailing bytes", len(rest))
	}
	r := temporal.NewDecoder(payload)
	if err := r.Expect(recState, "state record"); err != nil {
		return nil, err
	}
	hgen := r.Uvarint()
	hwave := temporal.Time(r.Varint())
	hwaves := int(r.Uvarint())
	body := r.BytesField()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if hgen != gen || hwave != wave || hwaves != waves {
		return nil, fmt.Errorf("state record (gen %d wave %d waves %d) disagrees with manifest (gen %d wave %d waves %d)",
			hgen, hwave, hwaves, gen, wave, waves)
	}
	return body, nil
}
