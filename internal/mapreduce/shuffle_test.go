package mapreduce

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"timr/internal/temporal"
)

// identityStage routes everything to one partition and emits rows in the
// order received — output row order is exactly the shuffled row order, so
// determinism tests can compare shuffles through the FS.
func identityStage(in, out string) Stage {
	return Stage{
		Name: "identity", Inputs: []string{in}, Output: out, OutSchema: kvSchema(),
		NumPartitions: 1,
		PartitionCols: [][]int{{}},
		Reduce: func(part int, in [][]Row, emit func(Row)) error {
			for _, rows := range in {
				for _, r := range rows {
					emit(r)
				}
			}
			return nil
		},
	}
}

// multiPartitionInput builds a dataset with several partitions so the map
// phase produces several tasks even below the chunking threshold.
func multiPartitionInput(nparts, rowsPer int) *Dataset {
	ds := NewDataset(kvSchema(), nparts)
	v := 0
	for p := 0; p < nparts; p++ {
		rows := make([]Row, rowsPer)
		for i := range rows {
			rows[i] = Row{temporal.Int(int64(v % 13)), temporal.Int(int64(v))}
			v++
		}
		ds.Append(p, rows)
	}
	return ds
}

// datasetsEqual reports whether two datasets have equal schemas and,
// partition by partition, equal row sequences.
func datasetsEqual(t testing.TB, a, b *Dataset) bool {
	t.Helper()
	if !a.Schema.Equal(b.Schema) || len(a.parts) != len(b.parts) {
		return false
	}
	for p := range a.parts {
		if !rowsEqual(mustReadAll(t, &Dataset{parts: a.parts[p : p+1]}), mustReadAll(t, &Dataset{parts: b.parts[p : p+1]})) {
			return false
		}
	}
	return true
}

func TestParallelMapByteIdenticalToSerial(t *testing.T) {
	// The shuffled row order — and therefore every downstream dataset —
	// must not depend on the map worker count.
	run := func(workers int) *Dataset {
		c := NewCluster(Config{Machines: 8, MapWorkers: workers})
		c.FS.Write("in", multiPartitionInput(7, 500))
		if _, err := c.Run(identityStage("in", "out")); err != nil {
			t.Fatal(err)
		}
		return mustRead(t, c.FS, "out")
	}
	serial := run(1)
	for _, workers := range []int{2, 3, 8} {
		if !datasetsEqual(t, serial, run(workers)) {
			t.Fatalf("MapWorkers=%d shuffle differs from serial", workers)
		}
	}
}

func TestMapDeterministicAcrossGOMAXPROCS(t *testing.T) {
	// Same job under different GOMAXPROCS must produce byte-identical FS
	// datasets (the default worker count follows GOMAXPROCS).
	run := func(procs int) *Dataset {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		c := NewCluster(Config{Machines: 8})
		c.FS.Write("in", multiPartitionInput(6, 700))
		if _, err := c.Run(sumStage("in", "out", 4), identityStage("out", "final")); err != nil {
			t.Fatal(err)
		}
		return mustRead(t, c.FS, "final")
	}
	ref := run(1)
	for _, procs := range []int{2, 4} {
		if !datasetsEqual(t, ref, run(procs)) {
			t.Fatalf("GOMAXPROCS=%d produced a different dataset", procs)
		}
	}
}

// segmentRuns reads a reducer's segment lists back as the run lengths per
// source and source 0's rows in run order.
func segmentRuns(in [][]Segment) (runs [][]int, rows []Row, err error) {
	runs = make([][]int, len(in))
	for src := range in {
		for i := range in[src] {
			runs[src] = append(runs[src], in[src][i].Len())
			if src == 0 {
				mat, err := in[src][i].Materialize()
				if err != nil {
					return nil, nil, err
				}
				rows = append(rows, mat...)
			}
		}
	}
	return runs, rows, nil
}

func TestShuffleThreadsRunBoundaries(t *testing.T) {
	// Each input partition arrives at the reducer as one run (below the
	// chunking threshold), in input-partition order.
	c := NewCluster(Config{Machines: 4})
	in := NewDataset(kvSchema(), 4)
	in.Append(0, []Row{{temporal.Int(1), temporal.Int(10)}, {temporal.Int(2), temporal.Int(20)}})
	in.Append(1, []Row{{temporal.Int(3), temporal.Int(30)}})
	// partition 2 stays empty: empty partitions contribute no run
	in.Append(3, []Row{{temporal.Int(4), temporal.Int(40)}, {temporal.Int(5), temporal.Int(50)}, {temporal.Int(6), temporal.Int(60)}})
	c.FS.Write("in", in)
	var gotRuns [][]int
	var gotRows []Row
	st := Stage{
		Name: "runs", Inputs: []string{"in"}, Output: "out", OutSchema: kvSchema(),
		NumPartitions: 1,
		PartitionCols: [][]int{{}},
		ReduceSegments: func(part int, in [][]Segment, emit func([]Row)) (err error) {
			gotRuns, gotRows, err = segmentRuns(in)
			return err
		},
	}
	if _, err := c.Run(st); err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{2, 1, 3}}; !reflect.DeepEqual(gotRuns, want) {
		t.Fatalf("runs = %v, want %v", gotRuns, want)
	}
	if !rowsEqual(gotRows, mustReadAll(t, in)) {
		t.Fatalf("reducer input order differs from input-partition order")
	}
}

func TestMapChunkingSplitsLargePartitions(t *testing.T) {
	// A partition larger than mapChunkRows must become several map tasks,
	// several runs — and still shuffle in the original order.
	n := mapChunkRows + mapChunkRows/2
	rows := kvRows(n)
	c := NewCluster(Config{Machines: 4})
	c.FS.Write("in", SinglePartition(kvSchema(), rows))
	var gotRuns [][]int
	st := Stage{
		Name: "chunks", Inputs: []string{"in"}, Output: "out", OutSchema: kvSchema(),
		NumPartitions: 1,
		PartitionCols: [][]int{{}},
		ReduceSegments: func(part int, in [][]Segment, emit func([]Row)) error {
			runs, rows, err := segmentRuns(in)
			gotRuns = runs
			emit(rows)
			return err
		},
	}
	stat, err := c.Run(st)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{mapChunkRows, mapChunkRows / 2}}; !reflect.DeepEqual(gotRuns, want) {
		t.Fatalf("runs = %v, want %v", gotRuns, want)
	}
	if got := len(stat.Stages[0].Maps); got != 2 {
		t.Fatalf("map tasks = %d, want 2", got)
	}
	if !rowsEqual(mustReadAll(t, mustRead(t, c.FS, "out")), rows) {
		t.Fatal("chunked shuffle reordered rows")
	}
}

func TestParallelMapSpeedup(t *testing.T) {
	// The tentpole claim: >= 2x wall-clock on the map phase at 1M rows
	// with 4+ cores. Only measurable where real parallelism exists; the
	// byte-identity of the two paths is checked unconditionally above.
	// GOMAXPROCS alone is no proof of cores: `-cpu 4` sets it on any host.
	if runtime.GOMAXPROCS(0) < 4 || runtime.NumCPU() < 4 {
		t.Skipf("needs GOMAXPROCS >= 4 on >= 4 cores (have %d on %d)", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if testing.Short() {
		t.Skip("1M-row timing test")
	}
	ds := benchShuffleInput()
	st := Stage{
		Name: "speedup", Inputs: []string{"in"}, Output: "out", OutSchema: ds.Schema,
		NumPartitions: 64,
		PartitionCols: [][]int{{0, 2}},
		Reduce:        func(part int, in [][]Row, emit func(Row)) error { return nil },
	}
	wall := func(workers int) time.Duration {
		best := time.Duration(1<<62 - 1)
		for i := 0; i < 3; i++ {
			c := NewCluster(Config{Machines: 64, MapWorkers: workers})
			c.FS.Write("in", ds)
			t0 := time.Now()
			if _, err := c.Run(st); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	serial, parallel := wall(1), wall(0)
	t.Logf("serial %v, parallel %v (%.2fx)", serial, parallel, float64(serial)/float64(parallel))
	if float64(serial) < 2*float64(parallel) {
		t.Errorf("parallel map %.2fx over serial, want >= 2x", float64(serial)/float64(parallel))
	}
}

func TestMakespanEdgeCases(t *testing.T) {
	// Zero tasks: only the shuffle charge remains.
	empty := &StageStat{ShuffleRows: 1000}
	if got, want := empty.Makespan(10, time.Microsecond), 100*time.Microsecond; got != want {
		t.Errorf("shuffle-only makespan = %v, want %v", got, want)
	}
	// m <= 0 clamps to one machine.
	one := &StageStat{Tasks: []TaskStat{{Duration: time.Second}, {Duration: time.Second}}}
	if got, want := one.Makespan(0, 0), 2*time.Second; got != want {
		t.Errorf("m=0 makespan = %v, want %v", got, want)
	}
	// One machine serializes everything, including the map phase.
	full := &StageStat{
		Maps:  []TaskStat{{Duration: 100 * time.Millisecond}, {Duration: 200 * time.Millisecond}},
		Tasks: []TaskStat{{Duration: time.Second}, {Duration: 2 * time.Second}},
	}
	if got, want := full.Makespan(1, 0), 3300*time.Millisecond; got != want {
		t.Errorf("1-machine makespan = %v, want %v", got, want)
	}
	// Two machines: map LPT = 200ms, reduce LPT = 2s; phases are barriers.
	if got, want := full.Makespan(2, 0), 2200*time.Millisecond; got != want {
		t.Errorf("2-machine makespan = %v, want %v", got, want)
	}
	// Retry-heavy: a single task dominated by retries gates the stage on
	// any machine count.
	retry := &StageStat{Tasks: []TaskStat{
		{Duration: 10 * time.Millisecond, RetryTime: 5 * time.Second},
		{Duration: 20 * time.Millisecond},
		{Duration: 30 * time.Millisecond},
	}}
	if got := retry.Makespan(3, 0); got < 5*time.Second {
		t.Errorf("retry-heavy makespan = %v, want >= 5s", got)
	}
}

func TestRowSkewEdgeCases(t *testing.T) {
	if got := (&StageStat{}).RowSkew(); got != 0 {
		t.Errorf("skew of empty stage = %v, want 0", got)
	}
	zeroRows := &StageStat{Tasks: []TaskStat{{Rows: 0}, {Rows: 0}}}
	if got := zeroRows.RowSkew(); got != 0 {
		t.Errorf("skew with zero mean = %v, want 0", got)
	}
	balanced := &StageStat{Tasks: []TaskStat{{Rows: 10}, {Rows: 10}, {Rows: 10}}}
	if got := balanced.RowSkew(); got != 1.0 {
		t.Errorf("balanced skew = %v, want 1.0", got)
	}
	skewed := &StageStat{Tasks: []TaskStat{{Rows: 30}, {Rows: 0}, {Rows: 0}}}
	if got := skewed.RowSkew(); got != 3.0 {
		t.Errorf("skewed RowSkew = %v, want 3.0", got)
	}
}

func TestMapPhaseAccounting(t *testing.T) {
	c := NewCluster(Config{Machines: 4})
	c.FS.Write("in", multiPartitionInput(3, 100))
	stat, err := c.Run(sumStage("in", "out", 4))
	if err != nil {
		t.Fatal(err)
	}
	st := stat.Stages[0]
	if got, want := len(st.Maps), 3; got != want {
		t.Fatalf("map tasks = %d, want %d (one per input partition)", got, want)
	}
	rows := 0
	for _, m := range st.Maps {
		if m.Attempts != 1 || m.RetryTime != 0 {
			t.Errorf("map task %+v: maps never retry", m)
		}
		rows += m.Rows
	}
	if rows != st.InputRows || rows != 300 {
		t.Errorf("map rows = %d, InputRows = %d, want 300", rows, st.InputRows)
	}
	if st.TotalMapTime() <= 0 {
		t.Error("TotalMapTime must be positive after a real run")
	}
}

// TestMapTaskScatterMatchesAppend: the count-then-scatter map task fills
// its buckets exactly as the append-grown loop it replaced (commit
// 270cf47) did — contents, order, byte volume, run sortedness, totals —
// and allocates each bucket once.
func TestMapTaskScatterMatchesAppend(t *testing.T) {
	const nparts = 8
	rng := rand.New(rand.NewSource(18))
	rows := make([]Row, 10_000)
	for i := range rows {
		// V ascends with the odd dip, so some buckets stay sorted by it
		// and some do not.
		v := int64(i)
		if rng.Intn(2000) == 0 {
			v -= 50
		}
		rows[i] = Row{temporal.Int(rng.Int63n(1000)), temporal.Int(v)}
	}
	for _, withKey := range []bool{false, true} {
		st := &Stage{PartitionCols: [][]int{{0}}}
		if withKey {
			st.RunKey = func(r Row, _ int) int64 { return r[1].AsInt() }
		}
		got := &mapTask{rows: rows}
		if err := runMapTask(st, got, nparts); err != nil {
			t.Fatal(err)
		}

		buckets := make([][]Row, nparts)
		bucketBytes := make([]int, nparts)
		bucketSorted := make([]bool, nparts)
		last := make([]int64, nparts)
		total := 0
		for p := range bucketSorted {
			bucketSorted[p] = true
		}
		for _, r := range rows {
			p := int(temporal.HashRow(r, st.PartitionCols[0]) % nparts)
			if len(buckets[p]) > 0 && r[1].AsInt() < last[p] {
				bucketSorted[p] = false
			}
			last[p] = r[1].AsInt()
			buckets[p] = append(buckets[p], r)
			bucketBytes[p] += RowBytes(r)
			total += RowBytes(r)
		}
		sortedRuns := 0
		for p := range buckets {
			if !rowsEqual(got.buckets[p], buckets[p]) || got.bucketBytes[p] != bucketBytes[p] {
				t.Fatalf("RunKey=%v: bucket %d differs from the append-grown reference", withKey, p)
			}
			if cap(got.buckets[p]) != len(buckets[p]) {
				t.Errorf("RunKey=%v: bucket %d has capacity %d for %d rows", withKey, p, cap(got.buckets[p]), len(buckets[p]))
			}
			if withKey && got.bucketSorted[p] != bucketSorted[p] {
				t.Errorf("RunKey=%v: bucket %d sorted = %v, want %v", withKey, p, got.bucketSorted[p], bucketSorted[p])
			}
			if bucketSorted[p] {
				sortedRuns++
			}
		}
		if withKey && (sortedRuns == 0 || sortedRuns == nparts) {
			t.Fatalf("input leaves %d of %d buckets sorted; want a mix", sortedRuns, nparts)
		}
		if !withKey && got.bucketSorted != nil {
			t.Error("bucketSorted set without a RunKey")
		}
		if got.dups != len(rows) || got.bytes != total || got.stat.Rows != len(rows) {
			t.Errorf("RunKey=%v: dups %d bytes %d rows %d, want %d %d %d", withKey, got.dups, got.bytes, got.stat.Rows, len(rows), total, len(rows))
		}
	}

	// A count, not a timing: the bucket directory, the byte and row
	// tallies, the destination vector, and one array per bucket.
	st := &Stage{PartitionCols: [][]int{{0}}}
	allocs := testing.AllocsPerRun(10, func() {
		if err := runMapTask(st, &mapTask{rows: rows}, nparts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > nparts+4 {
		t.Errorf("runMapTask allocates %.0f objects for a 10 000-row chunk over %d partitions, want at most %d", allocs, nparts, nparts+4)
	}
}

// TestReduceSegmentsBulkEmit: every slice a ReduceSegments reducer emits
// reaches the output, in emit order — also when they are sub-slices of one
// array the reducer still reads from — and a failed attempt's batches are
// discarded whole.
func TestReduceSegmentsBulkEmit(t *testing.T) {
	c := NewCluster(Config{Machines: 2, FailureRate: 0.5, MaxAttempts: 20, Seed: 3})
	rows := kvRows(100)
	c.FS.Write("in", SinglePartition(kvSchema(), rows))
	st := Stage{
		Name: "bulk", Inputs: []string{"in"}, Output: "out", OutSchema: kvSchema(),
		NumPartitions: 1,
		PartitionCols: [][]int{{}},
		ReduceSegments: func(part int, in [][]Segment, emit func([]Row)) error {
			_, all, err := segmentRuns(in)
			emit(all[:40])
			emit(nil)
			emit(all[50:])
			emit(all[40:41])
			emit(all[41:50])
			return err
		},
	}
	stat, err := c.Run(st)
	if err != nil {
		t.Fatal(err)
	}
	if stat.Stages[0].Failures == 0 {
		t.Fatal("no attempt failed; the test needs a retried task")
	}
	want := slices.Concat(rows[:40], rows[50:], rows[40:50])
	if got := mustReadAll(t, mustRead(t, c.FS, "out")); !rowsEqual(got, want) {
		t.Fatalf("bulk-emitted output has %d rows, differs from the %d emitted", len(got), len(want))
	}
}
