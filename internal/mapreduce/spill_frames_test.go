package mapreduce

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"timr/internal/dur"
	"timr/internal/leakcheck"
	"timr/internal/temporal"
)

// The tests below pin how a map task reads a spilled input segment: as row
// frames, routed through one scratch row and copied verbatim into its
// buckets, never materialized into rows and never re-encoded.

func spillTestSchema() *Schema {
	return temporal.NewSchema(
		temporal.Field{Name: "I", Kind: temporal.KindInt},
		temporal.Field{Name: "F", Kind: temporal.KindFloat},
		temporal.Field{Name: "S", Kind: temporal.KindString},
		temporal.Field{Name: "B", Kind: temporal.KindBool},
	)
}

// hashAll hashes every value of the row, whatever its width and kinds: a
// MultiPartition routing a corrupt frame cannot make panic.
func hashAll(r Row, _ int) uint64 {
	h := temporal.HashSeed
	for _, v := range r {
		h = temporal.HashCombine(h, v.Hash(temporal.HashSeed))
	}
	return h
}

// TestSpilledInputShuffleFileMatchesEncodedRows: a stage whose input is a
// spilled segment (next to a resident chunk) writes a shuffle spill file
// byte-identical to encoding its runs' rows, in the walk's (partition,
// source, task) order; and under a partial budget, where some frame
// buckets are decoded and kept, every reducer sees the rows of the
// resident run.
func TestSpilledInputShuffleFileMatchesEncodedRows(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	const nparts = 4
	rows := spillTestRows(3000)
	seg, release, err := spillRows(nil, t.TempDir(), rows[:2000])
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	in := NewDataset(spillTestSchema(), 2)
	in.AppendSegment(0, seg)
	in.Append(1, rows[2000:])

	run := func(budget int64, reduce func(part int, in [][]Segment) error) *StageStat {
		c := NewCluster(Config{Machines: nparts, MemoryBudget: budget})
		defer c.Close()
		c.FS.Write("in", in)
		stat, err := c.Run(Stage{
			Name: "frames", Inputs: []string{"in"}, Output: "out", OutSchema: spillTestSchema(),
			NumPartitions: nparts,
			PartitionCols: [][]int{{0}},
			RunKey:        func(r Row, _ int) int64 { return r[0].AsInt() },
			ReduceSegments: func(part int, in [][]Segment, emit func([]Row)) error {
				return reduce(part, in)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return &stat.Stages[0]
	}

	// The reference: every run resident, recorded per partition.
	want := make([][]Row, nparts)
	runs := make([][][]Row, nparts)
	run(0, func(part int, in [][]Segment) error {
		for i := range in[0] {
			if !in[0][i].Sorted() {
				t.Errorf("partition %d run %d not marked sorted", part, i)
			}
			runs[part] = append(runs[part], in[0][i].Resident())
			want[part] = append(want[part], in[0][i].Resident()...)
		}
		return nil
	})
	var wantFile []byte
	for p := range runs {
		for _, r := range runs[p] {
			wantFile = appendFrames(wantFile, r)
		}
	}

	var gotFile []byte
	stat := run(spillAll, func(part int, in [][]Segment) error {
		for i := range in[0] {
			if !in[0][i].Spilled() || !in[0][i].Sorted() {
				t.Errorf("partition %d run %d: spilled=%v sorted=%v, want both", part, i, in[0][i].Spilled(), in[0][i].Sorted())
			}
		}
		if part == 0 {
			// Every run was written before the first reducer started.
			if err := in[0][0].file.seal(); err != nil {
				return err
			}
			b, err := os.ReadFile(in[0][0].file.path)
			gotFile = b
			return err
		}
		return nil
	})
	if !bytes.Equal(gotFile, wantFile) {
		t.Fatalf("shuffle file holds %d bytes, differing from the %d bytes of the encoded runs", len(gotFile), len(wantFile))
	}
	if stat.SpillBytes != int64(len(wantFile)) {
		t.Errorf("SpillBytes = %d, want %d", stat.SpillBytes, len(wantFile))
	}

	// Budgets that keep some runs: kept frame buckets are decoded.
	for _, budget := range []int64{1 << 10, 16 << 10} {
		got := make([][]Row, nparts)
		stat := run(budget, func(part int, in [][]Segment) error {
			for i := range in[0] {
				r, err := in[0][i].Materialize()
				if err != nil {
					return err
				}
				got[part] = append(got[part], r...)
			}
			return nil
		})
		if stat.SpillSegments == 0 {
			t.Fatalf("budget %d spilled nothing", budget)
		}
		for p := range want {
			if !rowsEqual(got[p], want[p]) {
				t.Fatalf("budget %d: partition %d differs from the resident run", budget, p)
			}
		}
	}
}

// TestSpilledMapTaskAllocations: a map task over a spilled 10 000-row
// segment allocates a fixed set of objects per task and per destination
// partition — the segment's bytes, the bucket directory and tallies, the
// destination vector, one scratch row, one array per bucket — and none per
// row.
func TestSpilledMapTaskAllocations(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	const nparts = 8
	seg, release, err := spillRows(nil, t.TempDir(), spillTestRows(10_000))
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	for _, st := range []*Stage{
		{PartitionCols: [][]int{{0}}},
		{PartitionCols: [][]int{{0, 2}}, RunKey: func(r Row, _ int) int64 { return r[0].AsInt() }},
	} {
		var task *mapTask
		allocs := testing.AllocsPerRun(10, func() {
			task = &mapTask{seg: seg}
			if err := runMapTask(st, task, nparts); err != nil {
				t.Fatal(err)
			}
		})
		if task.stat.Rows != 10_000 || task.dups != 10_000 {
			t.Fatalf("map task saw %d rows, routed %d, want 10 000", task.stat.Rows, task.dups)
		}
		if limit := nparts + 12; allocs > float64(limit) {
			t.Errorf("map task over a spilled 10 000-row segment allocates %.0f objects over %d partitions, want at most %d", allocs, nparts, limit)
		}
	}
}

// TestSpilledMapTaskShortReadFailsCleanly: a short read of a spilled input
// segment fails the job with the injected error, before the stage has
// written any spill file of its own.
func TestSpilledMapTaskShortReadFailsCleanly(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	ffs := dur.NewFaultFS(dur.OS{}, dur.FaultConfig{Rate: 1, Seed: 1, Kinds: []string{dur.FaultShortRead}})
	seg, release, err := spillRows(ffs, t.TempDir(), spillTestRows(10_000))
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	base := t.TempDir()
	c := NewCluster(Config{Machines: 4, MemoryBudget: spillAll, SpillDir: base, SpillFS: ffs})
	defer c.Close()
	in := NewDataset(spillTestSchema(), 1)
	in.AppendSegment(0, seg)
	c.FS.Write("in", in)
	_, err = c.Run(Stage{
		Name: "short", Inputs: []string{"in"}, Output: "out", OutSchema: spillTestSchema(),
		PartitionCols: [][]int{{0}},
		Reduce:        func(int, [][]Row, func(Row)) error { return nil },
	})
	if !errors.Is(err, dur.ErrInjected) || !strings.Contains(err.Error(), "spill read") {
		t.Fatalf("short read: got %v, want a spill read error wrapping dur.ErrInjected", err)
	}
	left, err := filepath.Glob(filepath.Join(base, "timr-spill-*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("failed stage left %d spill file(s): %v", len(left), left)
	}
}

// TestSpilledMapTaskBitFlipNeverPanics flips every bit of a spilled
// segment in turn and maps it: each flip either fails the task with an
// error or decodes to other well-formed rows, whose kept buckets decode
// too. runMapTask is called without the worker's recover, so a panic fails
// the test. The same through the cluster with dur.FaultFS flipping a bit
// of every read: the job finishes or errors, and no map task panics.
func TestSpilledMapTaskBitFlipNeverPanics(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	const nparts = 4
	seg, release, err := spillRows(nil, t.TempDir(), spillTestRows(12))
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if err := seg.file.seal(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(seg.file.path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	flip := func(bit int) {
		var b [1]byte
		off := seg.off + int64(bit/8)
		if _, err := f.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 1 << (bit % 8)
		if _, err := f.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
	}
	errs := 0
	for _, st := range []*Stage{
		{PartitionCols: [][]int{{0}}},
		{MultiPartition: func(r Row, src, nparts int) []int {
			return []int{int(hashAll(r, src) % uint64(nparts)), 0}
		}},
	} {
		for bit := 0; bit < int(seg.size)*8; bit++ {
			flip(bit)
			task := &mapTask{seg: seg}
			if err := runMapTask(st, task, nparts); err != nil {
				errs++
			} else {
				for p := 0; p < nparts; p++ {
					if _, err := task.bucketRows(p); err != nil {
						t.Fatalf("bit %d: a bucket the map task accepted does not decode: %v", bit, err)
					}
				}
			}
			flip(bit)
		}
	}
	if errs == 0 {
		t.Fatal("no bit flip was detected; the corruption checks are not reached")
	}

	ffs := dur.NewFaultFS(dur.OS{}, dur.FaultConfig{Rate: 1, Seed: 1, Kinds: []string{dur.FaultBitFlip}})
	for i := 0; i < 16; i++ {
		seg, release, err := spillRows(ffs, t.TempDir(), spillTestRows(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		c := NewCluster(Config{Machines: nparts, MemoryBudget: 4 << 10, SpillDir: t.TempDir()})
		in := NewDataset(spillTestSchema(), 1)
		in.AppendSegment(0, seg)
		c.FS.Write("in", in)
		_, err = c.Run(Stage{
			Name: "flip", Inputs: []string{"in"}, Output: "out", OutSchema: spillTestSchema(),
			PartitionCols: [][]int{{0}},
			Reduce:        func(int, [][]Row, func(Row)) error { return nil },
		})
		if err != nil && strings.Contains(err.Error(), "panicked") {
			t.Fatalf("segment %d: a bit flip made the map task panic: %v", i, err)
		}
		c.Close()
		release()
	}
}

// FuzzSpillFrames feeds the frame walker arbitrary segment bytes and a row
// count. Every input either errors, or yields exactly count frames that
// cover the bytes and whose decoded rows re-encode to exactly those frames
// — through the routing path (one scratch row, strings in place) and the
// kept-bucket path (rows that own their bytes, each clipped to its width)
// alike.
func FuzzSpillFrames(f *testing.F) {
	rows := spillTestRows(5)
	f.Add(appendFrames(nil, rows), uint16(len(rows)))
	f.Add(appendFrames(nil, []Row{{}, {temporal.String("")}, {temporal.Null}}), uint16(3))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0x02, 0x01}, uint16(1))
	f.Add([]byte{0x81, 0x00, 0x00}, uint16(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		fr := frameReader{data: data, left: int(n)}
		var walked []byte
		for fr.left > 0 {
			row, size, frame, err := fr.next()
			if err != nil {
				return
			}
			if size != RowBytes(row) {
				t.Fatalf("frame %x: size %d, RowBytes %d", frame, size, RowBytes(row))
			}
			if re := appendFrames(nil, []Row{row}); !bytes.Equal(re, frame) {
				t.Fatalf("frame %x decodes to a row that re-encodes to %x", frame, re)
			}
			walked = append(walked, frame...)
		}
		if fr.done() != nil {
			return
		}
		if !bytes.Equal(walked, data) {
			t.Fatalf("accepted frames %x do not cover the segment %x", walked, data)
		}
		kept, err := decodeFrames(data, int(n))
		if err != nil {
			t.Fatalf("walked segment %x fails to decode as a kept bucket: %v", data, err)
		}
		if re := appendFrames(nil, kept); !bytes.Equal(re, data) {
			t.Fatalf("kept rows of %x re-encode to %x", data, re)
		}
		for _, r := range kept {
			if cap(r) != len(r) {
				t.Fatalf("a kept %d-value row of %x has capacity %d", len(r), data, cap(r))
			}
		}
	})
}

// BenchmarkMapSpilledSegment times one map task over a spilled
// mapChunkRows-row segment of benchShuffleInput's rows (an int key, an int
// and a string), hashed on two columns into 64 partitions.
func BenchmarkMapSpilledSegment(b *testing.B) {
	rows := benchShuffleInput().Partition(0)[0].Resident()
	seg, release, err := spillRows(nil, b.TempDir(), rows[:mapChunkRows])
	if err != nil {
		b.Fatal(err)
	}
	defer release()
	st := &Stage{PartitionCols: [][]int{{0, 2}}, RunKey: func(r Row, _ int) int64 { return r[1].AsInt() }}
	b.SetBytes(seg.size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runMapTask(st, &mapTask{seg: seg}, 64); err != nil {
			b.Fatal(err)
		}
	}
}
