package mapreduce

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"timr/internal/dur"
	"timr/internal/leakcheck"
	"timr/internal/temporal"
)

func spillRow(i int) Row {
	return Row{temporal.Int(int64(i)), temporal.String("payload")}
}

func TestSpillWriteENOSPCSurfaces(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	// A full disk during segment writes must surface as a distinct,
	// errors.Is-able write error — not vanish into Close/Remove handling.
	// The fault draw is per operation, so at rate 0.9 some seeds let the
	// creation through and fail the writes; assert the write path on the
	// first such seed (deterministic: same seeds, same draws, every run).
	rows := make([]Row, 0, 8192)
	for i := 0; i < 8192; i++ {
		rows = append(rows, spillRow(i))
	}
	for seed := int64(1); seed <= 20; seed++ {
		ffs := dur.NewFaultFS(dur.OS{}, dur.FaultConfig{Rate: 0.9, Seed: seed, Kinds: []string{dur.FaultENOSPC}})
		sf, err := createSpillFile(ffs, t.TempDir(), &spillIO{})
		if err != nil {
			continue // this seed fills the disk at creation; try the next
		}
		// A run larger than the 64KB bufio layer forces real file writes,
		// which hit the injected ENOSPC.
		_, werr := sf.writeSegment(appendFrames(nil, rows), len(rows), false)
		if werr == nil {
			werr = sf.seal()
		}
		sf.close()
		if werr == nil {
			continue // the ~10% pass rate let every write through; next seed
		}
		if !errors.Is(werr, syscall.ENOSPC) {
			t.Fatalf("seed %d: spill error not errors.Is ENOSPC: %v", seed, werr)
		}
		if !strings.Contains(werr.Error(), "spill") {
			t.Fatalf("seed %d: spill error lost its path context: %v", seed, werr)
		}
		return
	}
	t.Fatal("no seed exercised the write-side ENOSPC path")
}

func TestSpillSealSurfacesSyncFailure(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	ffs := dur.NewFaultFS(dur.OS{}, dur.FaultConfig{Rate: 1, Seed: 2, Kinds: []string{dur.FaultSync}})
	sf, err := createSpillFile(ffs, t.TempDir(), &spillIO{})
	if err != nil {
		t.Fatal(err)
	}
	defer sf.close()
	if _, err := sf.writeSegment(appendFrames(nil, []Row{spillRow(1)}), 1, false); err != nil {
		t.Fatal(err)
	}
	err = sf.seal()
	if err == nil {
		t.Fatal("seal swallowed the fsync failure")
	}
	if !strings.Contains(err.Error(), "spill sync") {
		t.Fatalf("sync failure not distinctly wrapped: %v", err)
	}
	if !errors.Is(err, dur.ErrInjected) {
		t.Fatalf("injected fault lost its mark: %v", err)
	}
}

func TestSpillClusterENOSPC(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	// The same through the cluster seam: Config.SpillFS threads the
	// fault-injecting FS into production spill paths, and a full disk
	// fails the job with a diagnosable error instead of corrupt output.
	ffs := dur.NewFaultFS(dur.OS{}, dur.FaultConfig{Rate: 1, Seed: 3, Kinds: []string{dur.FaultENOSPC}})
	c := NewCluster(Config{Machines: 2, MemoryBudget: spillAll, SpillDir: t.TempDir(), SpillFS: ffs})
	defer c.Close()
	if _, err := c.newSpillFile(); err == nil {
		t.Fatal("spill file creation on a full disk did not error")
	} else if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("cluster spill error not errors.Is ENOSPC: %v", err)
	}
}

func TestSweepStaleSpillDirs(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	base := t.TempDir()
	stale1, err := os.MkdirTemp(base, "timr-spill-")
	if err != nil {
		t.Fatal(err)
	}
	stale2, err := os.MkdirTemp(base, "timr-spill-")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale1, "seg-1.spill"), []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Non-matching dir and a plain file matching the pattern: untouched.
	keepDir := filepath.Join(base, "keep-me")
	if err := os.Mkdir(keepDir, 0o755); err != nil {
		t.Fatal(err)
	}
	keepFile := filepath.Join(base, "timr-spill-notadir")
	if err := os.WriteFile(keepFile, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	removed, err := SweepStaleSpillDirs(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("swept %d dirs (%v), want 2", len(removed), removed)
	}
	for _, d := range []string{stale1, stale2} {
		if _, err := os.Stat(d); !os.IsNotExist(err) {
			t.Fatalf("stale dir %s survived the sweep", d)
		}
	}
	if _, err := os.Stat(keepDir); err != nil {
		t.Fatal("sweep removed a non-matching directory")
	}
	if _, err := os.Stat(keepFile); err != nil {
		t.Fatal("sweep removed a plain file")
	}

	// Idempotent on a clean parent.
	removed, err = SweepStaleSpillDirs(base)
	if err != nil || len(removed) != 0 {
		t.Fatalf("second sweep = %v, %v; want none", removed, err)
	}
}
