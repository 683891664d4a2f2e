package dur

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"timr/internal/obs"
	"timr/internal/temporal"
)

func testSnapshot(wave temporal.Time, waves int) *Snapshot {
	return &Snapshot{
		Wave:     wave,
		Waves:    waves,
		Machines: 3,
		Parts: []PartitionState{
			{
				Frag: "counts", Part: 0,
				Ckpt: []byte{0xE7, 0x01, 0x02, byte(wave)},
				Log: []temporal.Event{
					temporal.PointEvent(wave+1, temporal.Row{temporal.Int(int64(wave)), temporal.String("k")}),
				},
			},
			{Frag: "counts", Part: 1, Ckpt: []byte{0xE7, byte(waves)}},
			{Frag: "joins", Part: 0, Ckpt: nil, Log: nil},
		},
		Results: []temporal.Event{
			temporal.PointEvent(wave-1, temporal.Row{temporal.String("out"), temporal.Float(1.5)}),
		},
		Pending: []temporal.Event{
			temporal.PointEvent(wave+2, temporal.Row{temporal.Bool(true)}),
		},
		Offsets: []SourceOffset{
			{Name: "clicks", Pos: int64(wave) * 3},
			{Name: "reduced", Pos: int64(waves)},
		},
	}
}

// eqSnapshot compares snapshots by their canonical encoding, which is
// the equality the restart drill actually depends on.
func eqSnapshot(a, b *Snapshot) bool {
	return bytes.Equal(encodeSnapshot(0, a), encodeSnapshot(0, b))
}

func TestDurableStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	sc := obs.New("dur")
	st, err := OpenStore(dir, Options{Obs: sc})
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := st.Load(); err != nil || rec != nil {
		t.Fatalf("empty store: Load = %v, %v; want nil, nil", rec, err)
	}
	want := testSnapshot(100, 3)
	if err := st.Commit(want); err != nil {
		t.Fatal(err)
	}
	// Reopen cold, as a restarted process would.
	st2, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatal("Load found no generation after a successful commit")
	}
	if rec.Snap.Wave != 100 || rec.Snap.Waves != 3 {
		t.Fatalf("recovered wave %d/waves %d, want 100/3", rec.Snap.Wave, rec.Snap.Waves)
	}
	if !eqSnapshot(rec.Snap, want) {
		t.Fatal("recovered snapshot differs from committed one")
	}
	if got := sc.Counter("generations").Value(); got != 1 {
		t.Fatalf("generations counter = %d, want 1", got)
	}
	if got := sc.Counter("dur_bytes").Value(); got <= 0 {
		t.Fatalf("dur_bytes counter = %d, want > 0", got)
	}
}

// TestDurableStoreHeaderWithoutMachines: a generation whose header was
// written before the machine count was recorded still decodes, with
// Machines zero, so a restore can refuse it by name instead of
// quarantining it as corrupt.
func TestDurableStoreHeaderWithoutMachines(t *testing.T) {
	snap := testSnapshot(100, 3)
	var w temporal.Encoder
	w.Byte(recHeaderV1)
	w.Uvarint(7)
	w.Varint(100)
	w.Uvarint(3)
	w.Uvarint(uint64(len(snap.Parts)))
	w.Uvarint(uint64(len(snap.Offsets)))
	for _, o := range snap.Offsets {
		w.String(o.Name)
		w.Varint(o.Pos)
	}
	_, body, err := temporal.DecodeFrame(encodeSnapshot(7, snap))
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSnapshot(7, 100, 3, append(temporal.AppendFrame(nil, w.Bytes()), body...))
	if err != nil {
		t.Fatal(err)
	}
	if got.Machines != 0 {
		t.Fatalf("Machines = %d, want 0 for a header that records none", got.Machines)
	}
	got.Machines = snap.Machines
	if !eqSnapshot(got, snap) {
		t.Fatal("the rest of the generation decodes differently")
	}
}

func TestDurableStoreOffsetsRoundtrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(testSnapshot(100, 3)); err != nil {
		t.Fatal(err)
	}
	rec, err := st.Load()
	if err != nil || rec == nil {
		t.Fatalf("Load = %v, %v", rec, err)
	}
	if want := []SourceOffset{{Name: "clicks", Pos: 300}, {Name: "reduced", Pos: 3}}; !slices.Equal(rec.Snap.Offsets, want) {
		t.Fatalf("Offsets = %v, want %v", rec.Snap.Offsets, want)
	}
}

func TestDurableStoreStateRoundtrip(t *testing.T) {
	dir := t.TempDir()
	sc := obs.New("dur")
	st, err := OpenStore(dir, Options{Obs: sc})
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := st.LoadState(); err != nil || rec != nil {
		t.Fatalf("empty store: LoadState = %v, %v; want nil, nil", rec, err)
	}
	for day := 1; day <= 3; day++ {
		payload := []byte(fmt.Sprintf("refresh-state-day-%d", day))
		if err := st.CommitState(temporal.Time(day*1000), day, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen cold, as a restarted process would.
	st2, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st2.LoadState()
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatal("LoadState found no generation after successful commits")
	}
	if rec.Wave != 3000 || rec.Waves != 3 || string(rec.Payload) != "refresh-state-day-3" {
		t.Fatalf("recovered (wave %d, waves %d, %q); want newest day", rec.Wave, rec.Waves, rec.Payload)
	}
}

func TestDurableStoreStateQuarantineFallback(t *testing.T) {
	dir := t.TempDir()
	sc := obs.New("dur")
	st, err := OpenStore(dir, Options{Obs: sc})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CommitState(10, 1, []byte("day-1")); err != nil {
		t.Fatal(err)
	}
	if err := st.CommitState(20, 2, []byte("day-2")); err != nil {
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

	rec, err := st.LoadState()
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || string(rec.Payload) != "day-1" {
		t.Fatalf("LoadState after corruption = %v; want fallback to day-1", rec)
	}
	if got := sc.Counter("corrupt_detected").Value(); got != 1 {
		t.Fatalf("corrupt_detected = %d, want 1", got)
	}
	names, _ = OS{}.ReadDir(dir)
	quarantined := false
	for _, n := range names {
		if strings.HasPrefix(n, "corrupt-") {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatalf("corrupt generation not quarantined (files: %v)", names)
	}
}

func TestDurableStoreStateRejectsSnapshotGeneration(t *testing.T) {
	// A streaming snapshot in a directory read as a state store must be
	// detected as the wrong kind (quarantined), never misparsed.
	dir := t.TempDir()
	st, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(testSnapshot(100, 3)); err != nil {
		t.Fatal(err)
	}
	rec, err := st.LoadState()
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Fatalf("LoadState parsed a streaming snapshot: %v", rec)
	}
}

func TestDurableStoreLoadsNewestAndPrunes(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, Options{Keep: 3})
	if err != nil {
		t.Fatal(err)
	}
	for w := 1; w <= 6; w++ {
		if err := st.Commit(testSnapshot(temporal.Time(w*10), w)); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.Snap.Wave != 60 {
		t.Fatalf("Load returned wave %v, want newest (60)", rec)
	}
	names, _ := OS{}.ReadDir(dir)
	manifests := 0
	for _, n := range names {
		if strings.HasSuffix(n, ".manifest") {
			manifests++
		}
	}
	if manifests != 3 {
		t.Fatalf("%d manifests on disk after prune, want Keep=3 (files: %v)", manifests, names)
	}
}

func TestDurableStoreQuarantinesCorruptGeneration(t *testing.T) {
	dir := t.TempDir()
	sc := obs.New("dur")
	st, err := OpenStore(dir, Options{Obs: sc})
	if err != nil {
		t.Fatal(err)
	}
	older := testSnapshot(10, 1)
	newer := testSnapshot(20, 2)
	if err := st.Commit(older); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(newer); err != nil {
		t.Fatal(err)
	}
	// Rot one byte in the newest generation's checkpoint file, inside a
	// frame payload.
	path := filepath.Join(dir, st.ckptName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatal("Load found nothing despite an intact older generation")
	}
	if rec.Gen != 0 || rec.Snap.Wave != 10 {
		t.Fatalf("Load returned gen %d wave %d, want fallback to gen 0 wave 10", rec.Gen, rec.Snap.Wave)
	}
	if !eqSnapshot(rec.Snap, older) {
		t.Fatal("fallback snapshot differs from the older commit")
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
		if n == st.manifestName(1) {
			t.Fatalf("corrupt generation's manifest still live: %v", names)
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
	if err := st2.Commit(testSnapshot(30, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, st2.ckptName(2))); err != nil {
		t.Fatalf("post-quarantine commit did not use gen 2: %v", err)
	}
}

func TestDurableStoreSweepsTempDebris(t *testing.T) {
	dir := t.TempDir()
	// Simulate a kill -9 mid-commit: a temp file exists, no manifest.
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
	if rec, err := st.Load(); err != nil || rec != nil {
		t.Fatalf("Load over debris-only dir = %v, %v; want nil, nil", rec, err)
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
			var last *Snapshot
			committed := 0
			for w := 1; w <= 8; w++ {
				snap := testSnapshot(temporal.Time(w*10), w)
				if err := st.Commit(snap); err == nil {
					last = snap
					committed++
				}
			}
			if committed == 0 {
				t.Fatal("no commit succeeded at 30% fault rate with 16 retries")
			}
			rec, err := st.Load()
			if err != nil {
				t.Fatalf("Load under faults: %v", err)
			}
			if rec == nil {
				t.Fatal("Load found nothing despite successful commits")
			}
			// The recovery line must be the last successful commit, or an
			// earlier committed wave if later generations rotted — never a
			// wave that was not committed, never corrupt bytes.
			if rec.Snap.Wave > last.Wave {
				t.Fatalf("recovered wave %d beyond last committed %d", rec.Snap.Wave, last.Wave)
			}
			if rec.Snap.Wave == last.Wave && !eqSnapshot(rec.Snap, last) {
				t.Fatal("recovered snapshot differs from the committed one")
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
	err = st.Commit(testSnapshot(10, 1))
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
