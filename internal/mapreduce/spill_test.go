package mapreduce

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"timr/internal/dur"
	"timr/internal/leakcheck"
	"timr/internal/temporal"
)

// spillAll, as a MemoryBudget, spills every shuffle run and output
// segment: any negative budget does.
const spillAll int64 = -1

// spillRows returns rows as one spilled segment, the output of a
// one-partition spillAll stage whose cluster creates its files through fs
// (nil: the real OS) under dir; release closes the cluster, deleting the
// file. The reducer emits rows without reading its spilled input, so a
// fault-injecting fs that only fails reads fires first on the caller's
// read of the segment.
func spillRows(fs dur.FS, dir string, rows []Row) (seg Segment, release func() error, err error) {
	c := NewCluster(Config{Machines: 1, MemoryBudget: spillAll, SpillDir: dir, SpillFS: fs})
	c.FS.Write("in", SinglePartition(nil, rows[:1]))
	_, err = c.Run(Stage{
		Name: "spill", Inputs: []string{"in"}, Output: "out",
		PartitionCols: [][]int{{}},
		ReduceSegments: func(_ int, _ [][]Segment, emit func([]Row)) error {
			emit(rows)
			return nil
		},
	})
	var out *Dataset
	if err == nil {
		out, err = c.FS.Read("out")
	}
	var segs []Segment
	if err == nil {
		if segs = out.Partition(0); len(segs) != 1 {
			err = fmt.Errorf("spill stage wrote %d segments, want 1", len(segs))
		}
	}
	if err != nil {
		c.Close()
		return Segment{}, nil, err
	}
	return segs[0], c.Close, nil
}

func spillTestRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			temporal.Int(int64(i)),
			temporal.Float(float64(i) * 1.5),
			temporal.String("payload"),
			temporal.Bool(i%2 == 0),
		}
	}
	return rows
}

func TestSpilledSegmentRoundtrip(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	rows := spillTestRows(137)
	seg, release, err := spillRows(nil, t.TempDir(), rows)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if !seg.Spilled() || seg.Sorted() || seg.Len() != len(rows) {
		t.Fatalf("segment meta: spilled=%v sorted=%v len=%d", seg.Spilled(), seg.Sorted(), seg.Len())
	}
	got, err := seg.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(got, rows) {
		t.Fatal("spill roundtrip changed rows")
	}
	// Reader path must deliver the same sequence.
	rd := seg.Open()
	for i := 0; ; i++ {
		r, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != len(rows) {
				t.Fatalf("reader stopped at %d of %d", i, len(rows))
			}
			break
		}
		if !r.Equal(rows[i]) {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestRowReaderMixedSegments(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	a := spillTestRows(10)
	b := spillTestRows(7)
	seg, release, err := spillRows(nil, t.TempDir(), b)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	rd := NewRowReader(ResidentSegment(a, false), seg, ResidentSegment(a[:3], false))
	want := append(append(append([]Row{}, a...), b...), a[:3]...)
	var got []Row
	for {
		r, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, r)
	}
	if !rowsEqual(got, want) {
		t.Fatal("mixed-segment reader order mismatch")
	}
}

// budgetJob is a two-stage job (repartition by key, then funnel to one
// partition) so a spilled stage-1 output becomes spilled *input* to
// stage 2's map phase.
func budgetJob(c *Cluster, t *testing.T) *JobStat {
	t.Helper()
	stat, err := c.Run(
		sumStage("in", "mid", 8),
		identityStage("mid", "out"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return stat
}

func TestMemoryBudgetOutputEquivalence(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	// The core out-of-core contract: job output is bit-identical whether
	// nothing, something, or everything spills.
	rows := kvRows(5000)
	run := func(budget int64) ([]Row, *JobStat) {
		c := NewCluster(Config{Machines: 8, MemoryBudget: budget})
		defer c.Close()
		c.FS.Write("in", SinglePartition(kvSchema(), rows))
		stat := budgetJob(c, t)
		return mustReadAll(t, mustRead(t, c.FS, "out")), stat
	}
	want, residentStat := run(0)
	if len(want) == 0 {
		t.Fatal("empty reference output")
	}
	if residentStat.Stages[0].SpillSegments != 0 {
		t.Fatalf("unlimited budget spilled %d segments", residentStat.Stages[0].SpillSegments)
	}
	for _, budget := range []int64{spillAll, 1, 512, 16 << 10} {
		got, stat := run(budget)
		if !rowsEqual(got, want) {
			t.Fatalf("budget=%d output differs from resident run", budget)
		}
		if budget == spillAll || budget == 1 {
			spilled := 0
			for _, st := range stat.Stages {
				spilled += st.SpillSegments
			}
			if spilled == 0 {
				t.Fatalf("budget=%d: expected spill activity", budget)
			}
		}
	}
}

func TestSpillMetricsAccounting(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	c := NewCluster(Config{Machines: 4, MemoryBudget: spillAll})
	defer c.Close()
	c.FS.Write("in", SinglePartition(kvSchema(), kvRows(1000)))
	stat := budgetJob(c, t)
	s1 := stat.Stages[0]
	if s1.SpillSegments == 0 || s1.SpillBytes == 0 {
		t.Fatalf("stage 1 spill write accounting empty: %+v", s1)
	}
	// Stage 1's reducers read its spilled shuffle runs back.
	if s1.SpillReadBytes == 0 {
		t.Fatal("stage 1 recorded no spill reads")
	}
	// Stage 2 reads stage 1's spilled output in its map phase.
	s2 := stat.Stages[1]
	if s2.SpillReadBytes == 0 {
		t.Fatal("stage 2 map phase read no spilled input")
	}
}

func TestSpillRunSortednessAnnotation(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	// With a RunKey, shuffle runs from a key-ordered input partition are
	// marked sorted; from a shuffled one, unsorted.
	sortedRows := kvRows(100) // kvRows is ordered by its second column
	unsorted := append([]Row(nil), sortedRows...)
	for i, j := 0, len(unsorted)-1; i < j; i, j = i+1, j-1 {
		unsorted[i], unsorted[j] = unsorted[j], unsorted[i]
	}
	run := func(rows []Row) (sortedSegs, totalSegs int) {
		c := NewCluster(Config{Machines: 2, MemoryBudget: spillAll})
		defer c.Close()
		c.FS.Write("in", SinglePartition(kvSchema(), rows))
		st := Stage{
			Name: "runkey", Inputs: []string{"in"}, Output: "out", OutSchema: kvSchema(),
			NumPartitions: 1,
			PartitionCols: [][]int{{}},
			RunKey:        func(r Row, src int) int64 { return r[1].AsInt() },
			ReduceSegments: func(part int, in [][]Segment, emit func([]Row)) error {
				for _, segs := range in {
					for i := range segs {
						totalSegs++
						if segs[i].Sorted() {
							sortedSegs++
						}
						if !segs[i].Spilled() {
							t.Error("spillAll left a resident segment")
						}
					}
				}
				return nil
			},
		}
		if _, err := c.Run(st); err != nil {
			t.Fatal(err)
		}
		return sortedSegs, totalSegs
	}
	if sorted, total := run(sortedRows); total == 0 || sorted != total {
		t.Fatalf("ordered input: %d/%d runs marked sorted", sorted, total)
	}
	if sorted, total := run(unsorted); total == 0 || sorted != 0 {
		t.Fatalf("reversed input: %d/%d runs marked sorted", sorted, total)
	}
}

func TestClusterCloseRemovesSpillDir(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	base := t.TempDir()
	c := NewCluster(Config{Machines: 2, MemoryBudget: spillAll, SpillDir: base})
	c.FS.Write("in", SinglePartition(kvSchema(), kvRows(100)))
	budgetJob(c, t)
	dirs, err := filepath.Glob(filepath.Join(base, "timr-spill-*"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no spill dir created under %s (err=%v)", base, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if _, err := os.Stat(d); !os.IsNotExist(err) {
			t.Fatalf("spill dir %s survived Close", d)
		}
	}
}

// TestFailedStageReleasesSpillFiles pins the temp-file leak fix: a
// stage that spills its shuffle and then fails (every reducer attempt
// exhausted) must leave nothing behind in the spill directory — the
// stage owns its files and releases them on the error path, not only on
// the success path.
func TestFailedStageReleasesSpillFiles(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	base := t.TempDir()
	c := NewCluster(Config{
		Machines: 2, MemoryBudget: spillAll, SpillDir: base,
		FailureRate: 1.0, MaxAttempts: 2, Seed: 42,
	})
	defer c.Close()
	c.FS.Write("in", SinglePartition(kvSchema(), kvRows(500)))
	if _, err := c.Run(sumStage("in", "out", 4)); err == nil {
		t.Fatal("expected the fully-failing stage to error")
	}
	dirs, err := filepath.Glob(filepath.Join(base, "timr-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("stage never spilled — the leak check is vacuous")
	}
	for _, d := range dirs {
		left, err := filepath.Glob(filepath.Join(d, "*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Fatalf("failed stage leaked %d spill file(s): %v", len(left), left)
		}
	}
}

// TestReadAllReturnsCallerOwnedSlice pins that ReadAll hands back a slice
// the caller owns — mutating it must not corrupt the dataset — whether the
// dataset is one resident segment or several.
func TestReadAllReturnsCallerOwnedSlice(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	rows := kvRows(64)
	ds := SinglePartition(kvSchema(), rows)
	got := mustReadAll(t, ds)
	if len(got) != len(rows) || &got[0] == &rows[0] {
		t.Fatal("single-segment ReadAll must copy the row-header slice")
	}
	// Mutating the returned slice must leave the dataset intact.
	for i := range got {
		got[i] = Row{temporal.String("clobbered")}
	}
	again := mustReadAll(t, ds)
	for i, r := range again {
		if len(r) != len(rows[i]) || !r[0].Equal(rows[i][0]) {
			t.Fatalf("row %d changed after mutating a ReadAll result", i)
		}
	}
	ds2 := NewDataset(kvSchema(), 1)
	ds2.Append(0, rows[:32])
	ds2.Append(0, rows[32:])
	got2 := mustReadAll(t, ds2)
	if len(got2) != len(rows) || &got2[0] == &rows[0] {
		t.Fatal("multi-segment ReadAll must build a fresh slice")
	}
}

// TestSpilledRowsOutliveTheirReader: every row a spilled segment decodes
// to — through a RowReader across segments, Segment.Materialize and a map
// task's decodeFrames — owns its values and strings and is clipped to its
// width, so rows kept past the read, the reader exhausted and its buffers
// reused, still equal the resident originals, and appending to one never
// writes into another.
func TestSpilledRowsOutliveTheirReader(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	var segs []Segment
	var want [][]Row
	for i, n := range []int{1, 300, 2_000, 9_000} {
		rows := make([]Row, n)
		for j := range rows {
			rows[j] = Row{temporal.Int(int64(j)), temporal.String(fmt.Sprintf("s%d-%d", i, j)), temporal.Float(float64(j) / 3)}[:1+(i+j)%3]
		}
		seg, release, err := spillRows(nil, t.TempDir(), rows)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		segs, want = append(segs, seg), append(want, rows)
	}
	check := func(path string, got, want []Row) {
		t.Helper()
		for _, r := range got {
			if cap(r) != len(r) {
				t.Fatalf("%s: a %d-value row has capacity %d", path, len(r), cap(r))
			}
		}
		if !rowsEqual(got, want) {
			t.Fatalf("%s: rows kept past the read differ from the originals", path)
		}
	}
	var kept []Row
	rd := NewRowReader(segs...)
	for {
		r, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		kept = append(kept, r)
	}
	check("RowReader", kept, slices.Concat(want...))
	for i := range segs {
		rows, err := segs[i].Materialize()
		if err != nil {
			t.Fatal(err)
		}
		check("Materialize", rows, want[i])
		frames, err := segs[i].readFrames()
		if err != nil {
			t.Fatal(err)
		}
		if rows, err = decodeFrames(frames, segs[i].Len()); err != nil {
			t.Fatal(err)
		}
		clear(frames) // the kept rows must not point into the segment's bytes
		check("decodeFrames", rows, want[i])
	}
}

// TestSpilledRowDecodeAllocations counts the objects that decoding 10 000
// spilled rows of numbers allocates: the rows are carved from blocks of
// values, so a read costs its reader, its buffers and a few blocks, not an
// object per row (10 000 more up to commit 2d5c927, one make per frame).
func TestSpilledRowDecodeAllocations(t *testing.T) {
	rows := make([]Row, 10_000)
	for i := range rows {
		rows[i] = Row{temporal.Int(int64(i)), temporal.Float(float64(i) / 7), temporal.Bool(i%2 == 0), temporal.Int(int64(i % 13))}
	}
	seg, release, err := spillRows(nil, t.TempDir(), rows)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	frames, err := seg.readFrames()
	if err != nil {
		t.Fatal(err)
	}
	count := func(rows []Row, err error) (int, error) { return len(rows), err }
	for _, path := range []struct {
		name string
		read func() (int, error)
	}{
		{"RowReader", func() (int, error) {
			rd, n := seg.Open(), 0
			for {
				_, ok, err := rd.Next()
				if !ok {
					return n, err
				}
				n++
			}
		}},
		{"Materialize", func() (int, error) { return count(seg.Materialize()) }},
		{"decodeFrames", func() (int, error) { return count(decodeFrames(frames, seg.Len())) }},
	} {
		n := 0
		allocs := testing.AllocsPerRun(5, func() {
			if n, err = path.read(); err != nil {
				t.Fatal(err)
			}
		})
		if n != len(rows) {
			t.Fatalf("%s read %d rows, want %d", path.name, n, len(rows))
		}
		t.Logf("%s: %.0f objects for 10 000 spilled rows", path.name, allocs)
		if allocs > 32 {
			t.Errorf("%s allocates %.0f objects for 10 000 spilled rows, want at most 32", path.name, allocs)
		}
	}
}
