package mapreduce

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"timr/internal/temporal"
)

// The shuffle microbenchmarks time the map/shuffle path on its own:
// partitioning ~1M rows into 64 runs, serial and parallel, and the same
// repartition under spillAll against the resident reference.

const benchShuffleRows = 1 << 20 // ~1M rows

var (
	shuffleBenchOnce sync.Once
	shuffleBenchDS   *Dataset
)

// benchShuffleInput builds ~1M rows with a string column (realistic
// per-row hashing and byte-accounting cost), spread over 16 input
// partitions so the map phase has tasks to fan out.
func benchShuffleInput() *Dataset {
	shuffleBenchOnce.Do(func() {
		schema := temporal.NewSchema(
			temporal.Field{Name: "K", Kind: temporal.KindInt},
			temporal.Field{Name: "V", Kind: temporal.KindInt},
			temporal.Field{Name: "Tag", Kind: temporal.KindString},
		)
		const inParts = 16
		per := benchShuffleRows / inParts
		ds := NewDataset(schema, inParts)
		v := 0
		for p := 0; p < inParts; p++ {
			rows := make([]Row, per)
			for i := range rows {
				rows[i] = Row{
					temporal.Int(int64(v % 4096)),
					temporal.Int(int64(v)),
					temporal.String(fmt.Sprintf("user-%07d", v%100000)),
				}
				v++
			}
			ds.Append(p, rows)
		}
		shuffleBenchDS = ds
	})
	return shuffleBenchDS
}

// benchShuffleStage has a no-op reducer: the benchmark isolates the
// map/shuffle path.
func benchShuffleStage(schema *Schema) Stage {
	return Stage{
		Name: "shuffle", Inputs: []string{"in"}, Output: "out", OutSchema: schema,
		NumPartitions: 64,
		PartitionCols: [][]int{{0, 2}},
		Reduce:        func(part int, in [][]Row, emit func(Row)) error { return nil },
	}
}

func benchShuffle(b *testing.B, mapWorkers int) {
	ds := benchShuffleInput()
	st := benchShuffleStage(ds.Schema)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCluster(Config{Machines: 64, MapWorkers: mapWorkers})
		c.FS.Write("in", ds)
		if _, err := c.Run(st); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ds.Rows())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkShuffle_1M_Serial(b *testing.B)   { benchShuffle(b, 1) }
func BenchmarkShuffle_1M_Parallel(b *testing.B) { benchShuffle(b, 0) }

// benchSpill runs the same 1M-row repartition but with a reducer that
// consumes its input (summing an int column), so a spilling run pays
// both the encode/write and the streamed read-back — the end-to-end
// out-of-core cost against the resident reference.
func benchSpill(b *testing.B, budget int64) {
	ds := benchShuffleInput()
	st := benchShuffleStage(ds.Schema)
	st.Name = "spill"
	st.Reduce = nil
	var sum int64 // reducers run concurrently; accumulate atomically
	st.ReduceSegments = func(part int, in [][]Segment, emit func([]Row)) error {
		var local int64
		rd := NewRowReader(in[0]...)
		for {
			r, ok, err := rd.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			local += r[1].AsInt()
		}
		atomic.AddInt64(&sum, local)
		return nil
	}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCluster(Config{Machines: 64, MemoryBudget: budget, SpillDir: dir})
		c.FS.Write("in", ds)
		if _, err := c.Run(st); err != nil {
			b.Fatal(err)
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
	}
	if sum == 0 {
		b.Fatal("reducer consumed nothing")
	}
	b.ReportMetric(float64(ds.Rows())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkSpill_1M_Resident(b *testing.B) { benchSpill(b, 0) }
func BenchmarkSpill_1M_SpillAll(b *testing.B) { benchSpill(b, spillAll) }
