// Package mapreduce is a deterministic, in-process simulation of the
// map-reduce substrate the paper runs on (Dryad/SCOPE over Cosmos,
// equivalently Hadoop over HDFS): a distributed file system holding
// partitioned datasets, and jobs made of stages that partition ("map")
// rows by key and apply a reducer to every partition in parallel.
//
// The simulator reproduces the properties TiMR depends on:
//
//   - stages read and write named, partitioned datasets in a shared FS;
//   - the reducer is a black box invoked once per partition (§II-B);
//   - failed reducers are restarted from scratch, so reducers must be
//     deterministic functions of their input partition (§III-C.1) —
//     failure injection lets tests verify TiMR's repeatability guarantee;
//   - cluster cost is accounted per reducer task, and a job's makespan on
//     M machines is computed by list scheduling, so scaling experiments
//     (paper Figures 15 and 16) are meaningful regardless of how many
//     physical cores the host has;
//   - datasets larger than memory spill to disk in segments (spill.go)
//     and stream back through pull iterators, so a stage's working set
//     is bounded by the cluster's MemoryBudget, not its input size.
package mapreduce

import (
	"fmt"
	"sync"

	"timr/internal/temporal"
)

// Row and Schema alias the engine's row model; datasets and streams share
// one representation, which is what lets TiMR hand M-R rows to the
// embedded DSMS without conversion cost.
type (
	Row    = temporal.Row
	Schema = temporal.Schema
)

// Dataset is a partitioned, schema-carrying table in the simulated DFS.
// Each partition is an ordered list of segments, resident or spilled;
// consumers iterate rows through Reader (or ReadAll for whole-dataset
// materialization) rather than indexing raw slices.
type Dataset struct {
	Schema *Schema
	parts  [][]Segment
}

// NewDataset builds an empty dataset with nparts partitions.
func NewDataset(schema *Schema, nparts int) *Dataset {
	return &Dataset{Schema: schema, parts: make([][]Segment, nparts)}
}

// SinglePartition builds a dataset with all rows resident in one
// partition — the shape of freshly ingested logs before any
// repartitioning. The rows are borrowed, not copied.
func SinglePartition(schema *Schema, rows []Row) *Dataset {
	d := NewDataset(schema, 1)
	d.Append(0, rows)
	return d
}

// NumPartitions returns the partition count.
func (d *Dataset) NumPartitions() int { return len(d.parts) }

// Append adds rows (borrowed, not copied) as a resident segment of
// partition p. Empty appends are dropped.
func (d *Dataset) Append(p int, rows []Row) {
	d.AppendSegment(p, ResidentSegment(rows, false))
}

// AppendSegment adds a segment to partition p. Empty segments are
// dropped so partitions never carry zero-length runs.
func (d *Dataset) AppendSegment(p int, seg Segment) {
	if seg.Len() == 0 {
		return
	}
	d.parts[p] = append(d.parts[p], seg)
}

// Partition returns partition p's segment list (borrowed; callers must
// not mutate).
func (d *Dataset) Partition(p int) []Segment { return d.parts[p] }

// Rows returns the total row count across partitions. It never touches
// disk: spilled segments carry their row count.
func (d *Dataset) Rows() int {
	n := 0
	for _, segs := range d.parts {
		for i := range segs {
			n += segs[i].Len()
		}
	}
	return n
}

// Reader returns a pull iterator over partition p's rows in segment
// order.
func (d *Dataset) Reader(p int) *RowReader {
	return NewRowReader(d.parts[p]...)
}

// ReadAll returns all rows of the dataset in partition order. The
// result is always the caller's to keep: the row-header slice is fresh
// (rows themselves stay shared-immutable, as everywhere), so appending
// to or reordering it cannot corrupt the dataset. An unreadable spilled
// segment is returned as the error.
func (d *Dataset) ReadAll() ([]Row, error) {
	total := 0
	for _, segs := range d.parts {
		for i := range segs {
			total += segs[i].Len()
		}
	}
	if total == 0 {
		return nil, nil
	}
	out := make([]Row, 0, total)
	for p := range d.parts {
		rd := d.Reader(p)
		for {
			r, ok, err := rd.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// FS is the simulated distributed file system (Cosmos/HDFS/GFS stand-in).
// It is safe for concurrent use.
type FS struct {
	mu       sync.RWMutex
	datasets map[string]*Dataset
}

// NewFS returns an empty file system.
func NewFS() *FS { return &FS{datasets: make(map[string]*Dataset)} }

// Write stores (or replaces) a named dataset.
func (fs *FS) Write(name string, d *Dataset) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.datasets[name] = d
}

// Read fetches a named dataset.
func (fs *FS) Read(name string) (*Dataset, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	d, ok := fs.datasets[name]
	if !ok {
		return nil, fmt.Errorf("mapreduce: no dataset %q", name)
	}
	return d, nil
}
