package dur

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"timr/internal/obs"
	"timr/internal/temporal"
)

// testPayload stands for a caller's encoded state at a wave.
func testPayload(wave temporal.Time, waves int) []byte {
	return []byte(fmt.Sprintf("payload wave=%d waves=%d", wave, waves))
}

// accept is a decoder that takes every payload.
func accept(*Generation) error { return nil }

// loadAll loads the newest intact generation, whatever its payload.
func loadAll(t *testing.T, st *Store) *Generation {
	t.Helper()
	g, err := st.Load(accept)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// gen0Ckpt is the file of generation 0 committed as (wave -100, waves 3,
// payload "state"), pinned: a store directory written by an earlier
// build must still load.
const gen0Ckpt = "fa0bd400c701030573746174650f04320a"

func TestDurableStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	sc := obs.New("dur")
	st, err := OpenStore(dir, Options{Obs: sc})
	if err != nil {
		t.Fatal(err)
	}
	if g := loadAll(t, st); g != nil {
		t.Fatalf("empty store: Load = %v; want nil", g)
	}
	if err := st.Commit(-100, 3, []byte("state")); err != nil {
		t.Fatal(err)
	}
	// The commit is one file, and its bytes are pinned.
	names, err := OS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "gen-00000000.ckpt" {
		t.Fatalf("commit left %v, want exactly gen-00000000.ckpt", names)
	}
	got, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != gen0Ckpt {
		t.Fatalf("%s = %x, want %s", names[0], got, gen0Ckpt)
	}
	// Reopen cold, as a restarted process would.
	st2, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := loadAll(t, st2)
	if g == nil {
		t.Fatal("Load found no generation after a successful commit")
	}
	if g.Gen != 0 || g.Wave != -100 || g.Waves != 3 || string(g.Payload) != "state" {
		t.Fatalf("recovered %+v, want gen 0, wave -100, waves 3, payload %q", g, "state")
	}
	if got := sc.Counter("generations").Value(); got != 1 {
		t.Fatalf("generations counter = %d, want 1", got)
	}
	if got := sc.Counter("dur_bytes").Value(); got <= 0 {
		t.Fatalf("dur_bytes counter = %d, want > 0", got)
	}
}

// TestDurableStoreLoadsManifestDirectory: an earlier build committed a
// generation as a ckpt plus a manifest. Such a directory still loads from
// its ckpt, and sheds the manifests as newer generations push theirs out
// of the keep window.
func TestDurableStoreLoadsManifestDirectory(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string]string{
		"gen-00000000.ckpt":     gen0Ckpt,
		"gen-00000000.manifest": "fa18d300c701031167656e2d30303030303030302e636b70741155556931",
	} {
		b, err := hex.DecodeString(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := loadAll(t, st)
	if g == nil || g.Gen != 0 || g.Wave != -100 || g.Waves != 3 || string(g.Payload) != "state" {
		t.Fatalf("recovered %+v, want gen 0, wave -100, waves 3, payload %q", g, "state")
	}
	for w := 1; w <= st.keep+1; w++ {
		if err := st.Commit(temporal.Time(w), 3+w, testPayload(temporal.Time(w), 3+w)); err != nil {
			t.Fatal(err)
		}
	}
	names, err := OS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasSuffix(n, ".manifest") {
			t.Fatalf("%s survived %d further commits (files: %v)", n, st.keep+1, names)
		}
	}
	if g := loadAll(t, st); g == nil || g.Gen != uint64(st.keep+1) {
		t.Fatalf("Load after the upgrade = %+v; want gen %d", g, st.keep+1)
	}
}

func TestDurableStoreStateRoundtrip(t *testing.T) {
	dir := t.TempDir()
	sc := obs.New("dur")
	st, err := OpenStore(dir, Options{Obs: sc})
	if err != nil {
		t.Fatal(err)
	}
	for day := 1; day <= 3; day++ {
		payload := []byte(fmt.Sprintf("refresh-state-day-%d", day))
		if err := st.Commit(temporal.Time(day*1000), day, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen cold, as a restarted process would.
	st2, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := loadAll(t, st2)
	if g == nil {
		t.Fatal("Load found no generation after successful commits")
	}
	if g.Wave != 3000 || g.Waves != 3 || string(g.Payload) != "refresh-state-day-3" {
		t.Fatalf("recovered (wave %d, waves %d, %q); want newest day", g.Wave, g.Waves, g.Payload)
	}
}

// quarantined reports whether dir holds corrupt-* files.
func quarantined(t *testing.T, dir string) bool {
	t.Helper()
	names, err := OS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasPrefix(n, "corrupt-") {
			return true
		}
	}
	return false
}

func TestDurableStoreStateQuarantineFallback(t *testing.T) {
	dir := t.TempDir()
	sc := obs.New("dur")
	st, err := OpenStore(dir, Options{Obs: sc})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(10, 1, []byte("day-1")); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(20, 2, []byte("day-2")); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the newest generation's checkpoint file.
	names, _ := OS{}.ReadDir(dir)
	var newest string
	for _, n := range names {
		if strings.HasSuffix(n, ".ckpt") && n > newest {
			newest = n
		}
	}
	path := filepath.Join(dir, newest)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if g := loadAll(t, st); g == nil || string(g.Payload) != "day-1" {
		t.Fatalf("Load after corruption = %v; want fallback to day-1", g)
	}
	if got := sc.Counter("corrupt_detected").Value(); got != 1 {
		t.Fatalf("corrupt_detected = %d, want 1", got)
	}
	if !quarantined(t, dir) {
		t.Fatalf("corrupt generation not quarantined (files: %v)", names)
	}
}

// TestDurableStoreQuarantinesUndecodableGeneration: a generation whose
// payload the caller's decoder rejects is treated as corrupt — retried,
// quarantined — and Load falls back to the older one the decoder takes.
func TestDurableStoreQuarantinesUndecodableGeneration(t *testing.T) {
	dir := t.TempDir()
	sc := obs.New("dur")
	st, err := OpenStore(dir, Options{Obs: sc, Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(10, 1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(20, 2, []byte("bad")); err != nil {
		t.Fatal(err)
	}
	calls := 0
	g, err := st.Load(func(g *Generation) error {
		calls++
		if string(g.Payload) != "good" {
			return fmt.Errorf("payload %q is not good", g.Payload)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if g == nil || g.Gen != 0 || g.Wave != 10 || string(g.Payload) != "good" {
		t.Fatalf("Load = %+v; want fallback to gen 0", g)
	}
	if calls != 3+1 {
		t.Fatalf("decode ran %d times, want 3 attempts on gen 1 and 1 on gen 0", calls)
	}
	if got := sc.Counter("corrupt_detected").Value(); got != 1 {
		t.Fatalf("corrupt_detected = %d, want 1", got)
	}
	if !quarantined(t, dir) {
		t.Fatal("undecodable generation not quarantined")
	}
	// The quarantined generation is gone for good: a plain Load finds gen 0.
	if g := loadAll(t, st); g == nil || g.Gen != 0 {
		t.Fatalf("Load after quarantine = %+v; want gen 0", g)
	}
}

func TestDurableStoreLoadsNewestAndPrunes(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, Options{Keep: 3})
	if err != nil {
		t.Fatal(err)
	}
	for w := 1; w <= 6; w++ {
		if err := st.Commit(temporal.Time(w*10), w, testPayload(temporal.Time(w*10), w)); err != nil {
			t.Fatal(err)
		}
	}
	if g := loadAll(t, st); g == nil || g.Wave != 60 {
		t.Fatalf("Load returned %v, want newest (wave 60)", g)
	}
	names, _ := OS{}.ReadDir(dir)
	ckpts := 0
	for _, n := range names {
		if strings.HasSuffix(n, ".ckpt") {
			ckpts++
		}
	}
	if ckpts != 3 {
		t.Fatalf("%d ckpts on disk after prune, want Keep=3 (files: %v)", ckpts, names)
	}
}

func TestDurableStoreQuarantinesCorruptGeneration(t *testing.T) {
	dir := t.TempDir()
	sc := obs.New("dur")
	st, err := OpenStore(dir, Options{Obs: sc})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(10, 1, testPayload(10, 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(20, 2, testPayload(20, 2)); err != nil {
		t.Fatal(err)
	}
	// Rot one byte in the newest generation's checkpoint file, inside a
	// frame payload.
	path := filepath.Join(dir, ckptName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	g := loadAll(t, st)
	if g == nil {
		t.Fatal("Load found nothing despite an intact older generation")
	}
	if g.Gen != 0 || g.Wave != 10 {
		t.Fatalf("Load returned gen %d wave %d, want fallback to gen 0 wave 10", g.Gen, g.Wave)
	}
	if !bytes.Equal(g.Payload, testPayload(10, 1)) {
		t.Fatal("fallback payload differs from the older commit")
	}
	if got := sc.Counter("corrupt_detected").Value(); got != 1 {
		t.Fatalf("corrupt_detected = %d, want 1", got)
	}
	names, _ := OS{}.ReadDir(dir)
	quarantined := false
	for _, n := range names {
		if strings.HasPrefix(n, "corrupt-") {
			quarantined = true
		}
		if n == ckptName(1) {
			t.Fatalf("corrupt generation's ckpt still live: %v", names)
		}
	}
	if !quarantined {
		t.Fatalf("no corrupt-* files after quarantine: %v", names)
	}

	// A store reopened over the quarantined dir must never reuse gen 1.
	st2, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Commit(30, 3, testPayload(30, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptName(2))); err != nil {
		t.Fatalf("post-quarantine commit did not use gen 2: %v", err)
	}
}

func TestDurableStoreSweepsTempDebris(t *testing.T) {
	dir := t.TempDir()
	// Simulate a kill -9 mid-commit: a temp file exists, never renamed.
	if err := os.WriteFile(filepath.Join(dir, "gen-00000000.ckpt.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gen-00000000.ckpt.tmp")); !os.IsNotExist(err) {
		t.Fatal("temp debris survived OpenStore")
	}
	if g := loadAll(t, st); g != nil {
		t.Fatalf("Load over debris-only dir = %v; want nil", g)
	}
}

// recordingFS logs every call the store makes at the FS seam.
type recordingFS struct {
	OS
	calls []string
}

func (r *recordingFS) log(call string) { r.calls = append(r.calls, call) }

func (r *recordingFS) Create(name string) (File, error) {
	r.log("create " + filepath.Base(name))
	f, err := r.OS.Create(name)
	if err != nil {
		return nil, err
	}
	return &recordingFile{File: f, fs: r}, nil
}

func (r *recordingFS) Rename(oldpath, newpath string) error {
	r.log("rename " + filepath.Base(oldpath) + " " + filepath.Base(newpath))
	return r.OS.Rename(oldpath, newpath)
}

func (r *recordingFS) Remove(name string) error {
	r.log("remove " + filepath.Base(name))
	return r.OS.Remove(name)
}

func (r *recordingFS) ReadDir(dir string) ([]string, error) {
	r.log("readdir")
	return r.OS.ReadDir(dir)
}

func (r *recordingFS) SyncDir(dir string) error {
	r.log("syncdir")
	return r.OS.SyncDir(dir)
}

type recordingFile struct {
	File
	fs *recordingFS
}

func (f *recordingFile) Write(p []byte) (int, error) { f.fs.log("write"); return f.File.Write(p) }
func (f *recordingFile) Sync() error                 { f.fs.log("sync"); return f.File.Sync() }
func (f *recordingFile) Close() error                { f.fs.log("close"); return f.File.Close() }

// TestDurableStoreCommitSyncsDirectory: every commit writes and fsyncs
// its temp file, renames it into place and then fsyncs the directory —
// the rename is durable only once the directory is — before it prunes.
func TestDurableStoreCommitSyncsDirectory(t *testing.T) {
	rec := &recordingFS{}
	st, err := OpenStore(t.TempDir(), Options{FS: rec, Keep: 3})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 4; g++ {
		rec.calls = nil
		if err := st.Commit(temporal.Time(g), g, testPayload(temporal.Time(g), g)); err != nil {
			t.Fatal(err)
		}
		ckpt := ckptName(uint64(g))
		want := []string{"create " + ckpt + ".tmp", "write", "sync", "close", "rename " + ckpt + ".tmp " + ckpt, "syncdir", "readdir"}
		if g == 3 {
			want = append(want, "remove "+ckptName(0))
		}
		if got := strings.Join(rec.calls, ", "); got != strings.Join(want, ", ") {
			t.Errorf("commit of gen %d: FS calls %s, want %s", g, got, strings.Join(want, ", "))
		}
	}
}

// dirSyncFails is the real file system whose directory fsync fails.
type dirSyncFails struct{ OS }

func (dirSyncFails) SyncDir(string) error { return ErrInjected }

// TestDurableStoreDirSyncFailureUndoesCommit: a commit whose directory
// fsync keeps failing is not durable, so it fails and leaves the store
// as it was, with no generation file behind it.
func TestDurableStoreDirSyncFailureUndoesCommit(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, Options{FS: dirSyncFails{}, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(10, 1, testPayload(10, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("commit with a failing directory fsync: err = %v", err)
	}
	if names, _ := (OS{}).ReadDir(dir); len(names) != 0 {
		t.Fatalf("a failed commit left %v", names)
	}
}

func TestDurableStoreSurvivesInjectedFaults(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			sc := obs.New("dur")
			ffs := NewFaultFS(OS{}, FaultConfig{Rate: 0.3, Seed: seed})
			st, err := OpenStore(dir, Options{FS: ffs, Obs: sc, Retries: 16})
			if err != nil {
				t.Fatal(err)
			}
			last := temporal.Time(0)
			committed := 0
			for w := 1; w <= 8; w++ {
				wave := temporal.Time(w * 10)
				if err := st.Commit(wave, w, testPayload(wave, w)); err == nil {
					last = wave
					committed++
				}
			}
			if committed == 0 {
				t.Fatal("no commit succeeded at 30% fault rate with 16 retries")
			}
			g, err := st.Load(accept)
			if err != nil {
				t.Fatalf("Load under faults: %v", err)
			}
			if g == nil {
				t.Fatal("Load found nothing despite successful commits")
			}
			// The recovery line must be the last successful commit, or an
			// earlier committed wave if later generations rotted — never a
			// wave that was not committed, never corrupt bytes.
			if g.Wave > last {
				t.Fatalf("recovered wave %d beyond last committed %d", g.Wave, last)
			}
			if !bytes.Equal(g.Payload, testPayload(g.Wave, g.Waves)) {
				t.Fatal("recovered payload differs from the committed one")
			}
			if ffs.Injected() == 0 {
				t.Fatal("fault injector never fired; test exercised nothing")
			}
			if sc.Counter("retries").Value() == 0 {
				t.Fatal("retry supervisor never engaged despite injected faults")
			}
		})
	}
}

func TestDurableStoreENOSPCSurfaces(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS{}, FaultConfig{Rate: 1, Seed: 42, Kinds: []string{FaultENOSPC}})
	st, err := OpenStore(dir, Options{FS: ffs, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = st.Commit(10, 1, testPayload(10, 1))
	if err == nil {
		t.Fatal("commit succeeded on a permanently full disk")
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("full-disk commit error not errors.Is ENOSPC: %v", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("injected fault lost its ErrInjected mark: %v", err)
	}
}

func TestFaultFSDeterministic(t *testing.T) {
	run := func(seed int64) []string {
		dir := t.TempDir()
		ffs := NewFaultFS(OS{}, FaultConfig{Rate: 0.5, Seed: seed})
		var outcomes []string
		for i := 0; i < 20; i++ {
			f, err := ffs.Create(filepath.Join(dir, fmt.Sprintf("f%d", i)))
			if err != nil {
				outcomes = append(outcomes, "create:"+err.Error())
				continue
			}
			if _, err := f.Write([]byte("payload payload payload")); err != nil {
				outcomes = append(outcomes, "write:"+err.Error())
			} else if err := f.Sync(); err != nil {
				outcomes = append(outcomes, "sync:"+err.Error())
			} else {
				outcomes = append(outcomes, "ok")
			}
			f.Close()
		}
		return outcomes
	}
	a, b := run(9), run(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: same seed diverged: %q vs %q", i, a[i], b[i])
		}
	}
	c := run(10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

func TestFaultFSBitFlipIsSilent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "frame.bin")
	payload := bytes.Repeat([]byte{0x5A}, 128)
	if err := os.WriteFile(path, temporal.AppendFrame(nil, payload), 0o644); err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(OS{}, FaultConfig{Rate: 1, Seed: 3, Kinds: []string{FaultBitFlip}})
	f, err := ffs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, _ := ffs.Size(path)
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("bit flip must be silent, got error %v", err)
	}
	if _, _, err := temporal.DecodeFrame(buf); err == nil {
		t.Fatal("flipped frame passed checksum validation")
	}
}

// FuzzGenerationDecode: a generation's file arrives from disk, so
// arbitrary bytes must error — never panic, never yield a payload longer
// than the input — and every truncation of a real commit must error. A
// committed file decodes to what was committed, and re-encodes to its
// own bytes.
func FuzzGenerationDecode(f *testing.F) {
	dir := f.TempDir()
	st, err := OpenStore(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := st.Commit(-100, 3, []byte("state")); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, ckptName(0)))
	if err != nil {
		f.Fatal(err)
	}
	g, err := decodeGeneration(0, data)
	if err != nil {
		f.Fatalf("a committed file does not decode: %v", err)
	}
	if g.Gen != 0 || g.Wave != -100 || g.Waves != 3 || string(g.Payload) != "state" {
		f.Fatalf("decoded %+v, want gen 0, wave -100, waves 3, payload %q", g, "state")
	}
	if re := encodeGeneration(g); !bytes.Equal(re, data) {
		f.Fatalf("re-encoded %x, committed %x", re, data)
	}
	if _, err := decodeGeneration(1, data); err == nil {
		f.Fatal("gen 0's file decodes as gen 1")
	}
	for n := range data {
		if _, err := decodeGeneration(0, data[:n]); err == nil {
			f.Fatalf("file truncated to %d of %d bytes decodes", n, len(data))
		}
	}
	f.Add(uint64(0), data)
	f.Add(uint64(7), encodeGeneration(&Generation{Gen: 7, Wave: 1 << 40, Waves: 1 << 20, Payload: bytes.Repeat([]byte{0xD4}, 300)}))
	f.Add(uint64(0), []byte{})
	f.Add(uint64(0), temporal.AppendFrame(nil, []byte{recGen}))
	f.Add(uint64(0), temporal.AppendFrame(nil, []byte("a manifest, or any other frame")))
	f.Fuzz(func(t *testing.T, gen uint64, data []byte) {
		g, err := decodeGeneration(gen, data)
		if err != nil {
			return
		}
		if g.Gen != gen || len(g.Payload) > len(data) {
			t.Fatalf("%d bytes named gen %d decoded to gen %d with a %d-byte payload", len(data), gen, g.Gen, len(g.Payload))
		}
		back, err := decodeGeneration(gen, encodeGeneration(g))
		if err != nil {
			t.Fatalf("re-encoded generation fails decode: %v", err)
		}
		if back.Wave != g.Wave || back.Waves != g.Waves || !bytes.Equal(back.Payload, g.Payload) {
			t.Fatalf("re-encode roundtrip mismatch: %+v vs %+v", back, g)
		}
	})
}
