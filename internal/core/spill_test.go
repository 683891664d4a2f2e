package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"timr/internal/dur"
	"timr/internal/leakcheck"
	"timr/internal/mapreduce"
	"timr/internal/temporal"
)

// spillAll, as a MemoryBudget, spills every shuffle run and output
// segment: any negative budget does.
const spillAll int64 = -1

// mergeTestRows builds rows with LE in column 0 and a unique id in
// column 1, so merge order can be checked by id sequence.
func mergeTestRows(les []temporal.Time, idBase int) []mapreduce.Row {
	rows := make([]mapreduce.Row, len(les))
	for i, le := range les {
		rows[i] = mapreduce.Row{temporal.Int(le), temporal.Int(int64(idBase + i))}
	}
	return rows
}

func mergeTestToEvent(r mapreduce.Row) temporal.Event {
	return temporal.PointEvent(r[0].AsInt(), r)
}

// withSpilledRuns calls use with each of runs as one spilled segment: the
// shuffle runs of a one-partition spillAll stage with one input per run,
// whose files are created through fs (nil: the real OS) under dir. With
// sorted, LE is the stage's run key, so every run is marked sorted. A
// shuffle run lives only as long as its stage, so use runs inside the
// stage's reducer, and the error it returns is the stage's. A stage makes
// no run of no rows, so every run must be non-empty.
func withSpilledRuns(fs dur.FS, dir string, runs [][]mapreduce.Row, sorted bool, use func([]mapreduce.Segment) error) error {
	if len(runs) == 0 {
		return use(nil) // a stage with no input runs no reducer
	}
	c := mapreduce.NewCluster(mapreduce.Config{Machines: 1, MemoryBudget: spillAll, SpillDir: dir, SpillFS: fs})
	defer c.Close()
	st := mapreduce.Stage{
		Name: "spill", NumPartitions: 1,
		ReduceSegments: func(_ int, in [][]mapreduce.Segment, _ func([]mapreduce.Row)) error {
			segs := make([]mapreduce.Segment, len(in))
			for i, s := range in {
				if len(s) != 1 || !s[0].Spilled() {
					return fmt.Errorf("run %d is %d segments, want one spilled", i, len(s))
				}
				segs[i] = s[0]
			}
			return use(segs)
		},
	}
	if sorted {
		st.RunKey = func(r mapreduce.Row, _ int) int64 { return r[0].AsInt() }
	}
	for i, rows := range runs {
		name := fmt.Sprint("run", i)
		c.FS.Write(name, mapreduce.SinglePartition(nil, rows))
		st.Inputs = append(st.Inputs, name)
		st.PartitionCols = append(st.PartitionCols, nil)
	}
	_, err := c.Run(st)
	return err
}

// segmentRuns builds the reducer's merge inputs over segs, in order.
func segmentRuns(t *testing.T, segs []mapreduce.Segment) []temporal.Run {
	t.Helper()
	runs := make([]temporal.Run, len(segs))
	for i := range segs {
		var err error
		if runs[i], err = segmentRun(&segs[i], "in", mergeTestToEvent); err != nil {
			t.Fatal(err)
		}
	}
	return runs
}

// collectMergeIDs merges segs through the live ingest (see mergedIDs) and
// returns the emitted id column.
func collectMergeIDs(t *testing.T, segs []mapreduce.Segment) []int32 {
	t.Helper()
	ids, err := mergedIDs(t, segmentRuns(t, segs))
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// mergeRefIDs is the reference order: a stable LE sort of the runs
// concatenated in ordinal order.
func mergeRefIDs(runRows [][]mapreduce.Row) []int32 {
	type ev struct{ le, id int64 }
	var all []ev
	for _, rows := range runRows {
		for _, r := range rows {
			all = append(all, ev{r[0].AsInt(), r[1].AsInt()})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].le < all[j].le })
	ids := make([]int32, 0, len(all))
	for _, e := range all {
		ids = append(ids, int32(e.id))
	}
	return ids
}

func TestMergeEventRunsMixedResidentAndSpilled(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	// Randomized k-way merges where roughly half the sorted runs live in
	// spill files: the streamed order must equal the stable-sort
	// reference regardless of where each run resides. A small LE domain
	// forces cross-run ties, where ordinal tie-breaking would show any
	// asymmetry between resident and spilled cursors.
	r := rand.New(rand.NewSource(53))
	dir := t.TempDir()
	for trial := 0; trial < 50; trial++ {
		nruns := 1 + r.Intn(8)
		var runRows, spillRows [][]mapreduce.Row
		var spill []bool
		id := 0
		for ord := 0; ord < nruns; ord++ {
			n := r.Intn(60) // zero-length runs included
			les := make([]temporal.Time, n)
			le := temporal.Time(r.Intn(5))
			for i := range les {
				les[i] = le
				le += temporal.Time(r.Intn(3)) // ties within the run too
			}
			rows := mergeTestRows(les, id)
			id += n
			runRows = append(runRows, rows)
			spill = append(spill, n > 0 && r.Intn(2) == 0) // a stage spills no empty run
			if spill[ord] {
				spillRows = append(spillRows, rows)
			}
		}
		var got []int32
		if err := withSpilledRuns(nil, dir, spillRows, true, func(spilled []mapreduce.Segment) error {
			var segs []mapreduce.Segment
			for ord, rows := range runRows {
				if spill[ord] {
					segs, spilled = append(segs, spilled[0]), spilled[1:]
				} else {
					segs = append(segs, mapreduce.ResidentSegment(rows, true))
				}
			}
			got = collectMergeIDs(t, segs)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want := mergeRefIDs(runRows)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: merged order diverges\ngot:  %v\nwant: %v", trial, got, want)
		}
	}

	// A spilled run that cannot be read back fails the ingest call with the
	// storage error, whichever of its neighbours are resident.
	ffs := dur.NewFaultFS(dur.OS{}, dur.FaultConfig{Rate: 1, Seed: 1, Kinds: []string{dur.FaultShortRead}})
	err := withSpilledRuns(ffs, dir, [][]mapreduce.Row{mergeTestRows([]temporal.Time{2, 4, 6}, 0)}, true, func(bad []mapreduce.Segment) error {
		segs := []mapreduce.Segment{mapreduce.ResidentSegment(mergeTestRows([]temporal.Time{1, 5}, 3), true), bad[0]}
		_, err := mergedIDs(t, segmentRuns(t, segs))
		return err
	})
	if !errors.Is(err, dur.ErrInjected) {
		t.Fatalf("ingest over an unreadable spilled run returned %v, want the injected read error", err)
	}
}

func TestMergeEventRunsSingleSpilledRun(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	// One sorted spilled run must stream back in file order.
	rows := mergeTestRows([]temporal.Time{1, 3, 3, 7, 9}, 0)
	var got []int32
	if err := withSpilledRuns(nil, t.TempDir(), [][]mapreduce.Row{rows}, true, func(segs []mapreduce.Segment) error {
		got = collectMergeIDs(t, segs)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []int32{0, 1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("single spilled run order = %v, want %v", got, want)
	}
}

func TestMergeEventRunsEmpty(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	// No runs at all, and runs that are all empty, must emit nothing. (A
	// stage spills no empty run, so an empty run is resident.)
	if got := collectMergeIDs(t, nil); len(got) != 0 {
		t.Fatalf("no runs emitted %v", got)
	}
	segs := []mapreduce.Segment{mapreduce.ResidentSegment(nil, true), mapreduce.ResidentSegment(nil, true)}
	if got := collectMergeIDs(t, segs); len(got) != 0 {
		t.Fatalf("empty runs emitted %v", got)
	}
}

func TestMergeEventRunsEqualKeysAcrossSpillBoundary(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	// All events share one LE, split across resident and spilled runs:
	// the tie-break must be run ordinal alone, so the output is exactly
	// run 0's rows, then run 1's, then run 2's — no matter which runs
	// sit on disk.
	dir := t.TempDir()
	runRows := [][]mapreduce.Row{
		mergeTestRows([]temporal.Time{5, 5, 5}, 0),
		mergeTestRows([]temporal.Time{5, 5}, 3),
		mergeTestRows([]temporal.Time{5}, 5),
	}
	var got []int32
	// The middle run spilled, its neighbours resident.
	if err := withSpilledRuns(nil, dir, runRows[1:2], true, func(spilled []mapreduce.Segment) error {
		segs := []mapreduce.Segment{mapreduce.ResidentSegment(runRows[0], true), spilled[0], mapreduce.ResidentSegment(runRows[2], true)}
		got = collectMergeIDs(t, segs)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []int32{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("equal-key order across spill boundary = %v, want %v", got, want)
	}
}

func TestMergeEventRunsUnsortedSpilledMaterializes(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	// A spilled run without the RunKey sortedness mark is materialized —
	// a cursor cannot be cut at its inversions — and still merges into
	// the reference order.
	unsorted := mergeTestRows([]temporal.Time{9, 2, 2, 4}, 0)
	sorted := mergeTestRows([]temporal.Time{1, 3, 4}, 4)
	var got []int32
	if err := withSpilledRuns(nil, t.TempDir(), [][]mapreduce.Row{unsorted}, false, func(segs []mapreduce.Segment) error {
		got = collectMergeIDs(t, []mapreduce.Segment{segs[0], mapreduce.ResidentSegment(sorted, true)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := mergeRefIDs([][]mapreduce.Row{unsorted, sorted})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unsorted spilled run merge order = %v, want %v", got, want)
	}
}

func TestSpillBudgetEquivalence(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	// The out-of-core acceptance bar: a chained two-fragment temporal
	// plan produces bit-identical results whether nothing, some, or
	// every dataset spills — and the resident reference itself matches
	// the single-node engine.
	r := rand.New(rand.NewSource(7))
	rows := clickRows(r, 3000, 40, 6)
	mk := func() *temporal.Plan {
		return temporal.Scan("clicks", clickSchema()).
			Exchange(temporal.PartitionBy{Cols: []string{"UserId"}}).
			GroupApply([]string{"UserId"}, func(g *temporal.Plan) *temporal.Plan {
				return g.WithWindow(10).Count("C1")
			}).
			ToPoint().
			Exchange(temporal.PartitionBy{Cols: []string{"UserId"}}).
			GroupApply([]string{"UserId"}, func(g *temporal.Plan) *temporal.Plan {
				return g.WithWindow(100).Max("C1", "M")
			})
	}
	run := func(budget int64) []temporal.Event {
		cl := mapreduce.NewCluster(mapreduce.Config{
			Machines: 8, MemoryBudget: budget, SpillDir: t.TempDir(),
		})
		defer func() {
			if err := cl.Close(); err != nil {
				t.Fatal(err)
			}
		}()
		tm := New(cl, DefaultConfig())
		cl.FS.Write("ds.clicks", mapreduce.SinglePartition(clickSchema(), rows))
		stat, err := tm.Run(mk(), map[string]string{"clicks": "ds.clicks"}, "out")
		if err != nil {
			t.Fatal(err)
		}
		spilled := 0
		for _, st := range stat.Stages {
			spilled += st.SpillSegments
		}
		if budget == spillAll && spilled == 0 {
			t.Fatal("spillAll run recorded no spill activity")
		}
		if budget == 0 && spilled != 0 {
			t.Fatalf("unlimited budget spilled %d segments", spilled)
		}
		got, err := tm.ResultEvents("out")
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	want := run(0)
	if len(want) == 0 {
		t.Fatal("empty reference result")
	}
	for _, budget := range []int64{spillAll, 256, 4 << 10} {
		if got := run(budget); !temporal.EventsEqual(got, want) {
			t.Fatalf("budget=%d diverges from the resident run", budget)
		}
	}
	if single := singleNode(t, mk(), "clicks", rows, 0); !temporal.EventsEqual(want, single) {
		t.Fatal("resident run diverges from single-node reference")
	}
}
