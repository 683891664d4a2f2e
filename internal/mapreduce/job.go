package mapreduce

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"timr/internal/dur"
	"timr/internal/obs"
	"timr/internal/par"
	"timr/internal/temporal"
)

// Reducer is the per-partition computation of a stage (paper §II-B: "a
// reducer method that accepts all rows belonging to the same partition,
// and returns result rows"). in holds the partition's rows, one slice per
// stage input. Reducers must be deterministic in their input: the cluster
// restarts failed attempts and verifies repeatability.
type Reducer func(part int, in [][]Row, emit func(Row)) error

// Stage is one map-reduce stage: a routing of rows to partitions (the
// "map" side) plus a reducer applied to every partition. A stage routes
// by PartitionCols or by MultiPartition; one of them must be set.
type Stage struct {
	Name      string
	Inputs    []string
	Output    string
	OutSchema *Schema
	// NumPartitions defaults to the cluster's machine count — the paper's
	// hash(key) mod #machines scheme (§III-C.3).
	NumPartitions int
	// PartitionCols declares the key columns per input source: a row goes
	// to partition temporal.HashRow(row, PartitionCols[src]) mod
	// NumPartitions, so rows with equal keys meet in the same reducer
	// invocation. A key-less stage declares empty columns and one
	// partition.
	PartitionCols [][]int
	// MultiPartition, when set, supersedes PartitionCols and may replicate
	// a row into several partitions (given directly as partition indexes
	// in [0, NumPartitions)). TiMR's temporal partitioning uses this:
	// events in a span-overlap region belong to both adjacent spans
	// (§III-B).
	//
	// The row given to MultiPartition and RunKey is valid only during the
	// call: a spilled input segment is decoded frame by frame into one
	// scratch row that the next frame overwrites, its strings reading the
	// segment's bytes in place. Copy what must outlive the call.
	MultiPartition func(r Row, src int, nparts int) []int
	// Reduce is the materialized form of ReduceSegments, and runs as one
	// (materialized decodes a partition's runs into whole row slices,
	// then calls it). It stays for reducers written as a hand-coded M-R
	// job would be: the Fig. 14 custom reducers in internal/baseline and
	// the ledger's shuffle-only stage. Those want
	// every row of a partition at once, and a segment form would only
	// move the same materialization into each of them.
	Reduce Reducer
	// ReduceSegments, when set, supersedes Reduce: the reducer receives
	// the shuffle output as per-source segment lists (each segment one
	// shuffle run, resident or spilled) and pulls rows through RowReaders
	// instead of receiving whole row slices — the out-of-core path TiMR's
	// reducer P runs on. Its emit takes a slice of result rows and keeps
	// it (never writing past its length): a reducer that emits once hands
	// its output over without a copy. Each run is a contiguous chunk of
	// one input partition in its original order, so it is time-sorted
	// whenever that input partition was, which lets order-sensitive
	// reducers merge runs instead of re-sorting the whole partition.
	ReduceSegments func(part int, in [][]Segment, emit func([]Row)) error
	// RunKey, when set, extracts the sort key each input partition is
	// ordered by (per source). The map phase uses it to annotate every
	// shuffle run's Segment.Sorted flag inline, which is the only moment
	// sortedness can be established without re-reading a spilled run.
	// When nil, runs are conservatively marked unsorted. r is valid only
	// during the call (see MultiPartition).
	RunKey func(r Row, src int) int64
}

// Config describes the simulated cluster.
type Config struct {
	Machines    int     // parallel reducer slots (paper: ~150)
	FailureRate float64 // probability that a reducer attempt fails
	MaxAttempts int     // per reducer task (default 4)
	Seed        int64   // seed for failure injection
	// ShufflePerRow is the modeled cost of repartitioning one row over
	// the network (write + transfer + read), charged to the makespan
	// accounting; it does not slow real execution.
	ShufflePerRow time.Duration
	// MapWorkers caps the worker pool of every stage phase (map,
	// reduce). Zero (the default) uses min(Machines, GOMAXPROCS); 1
	// forces the serial reference path that the shuffle benchmark and
	// determinism tests compare against. The shuffled row order is
	// identical for every setting.
	MapWorkers int
	// MemoryBudget bounds the estimated resident bytes (see RowBytes) a
	// stage may hold for shuffle runs, and separately for its output
	// partitions. 0 (the zero value) means unlimited — everything stays
	// resident, byte-for-byte the pre-spill behavior. A negative value
	// spills every run and output segment. A positive value
	// keeps runs resident in deterministic (partition, source, map-task)
	// order until the budget is spent, then spills the rest, so the
	// spill set is a pure function of the input — never of goroutine
	// scheduling.
	MemoryBudget int64
	// SpillDir roots the cluster's spill directory (default: the OS temp
	// dir). Created lazily on first spill; removed by Cluster.Close.
	SpillDir string
	// SpillFS is the file-system seam spill files are created through
	// (default: the real OS, dur.OS{}). Tests substitute dur.FaultFS to
	// exercise full disks, torn writes and failed fsyncs against the
	// production spill paths.
	SpillFS dur.FS
}

// DefaultConfig is a 150-machine failure-free cluster, mirroring the
// paper's experimental setup. The 5µs/row shuffle charge models writing,
// transferring and re-reading a ~100-byte row through 2012-era disks and
// interconnect — roughly the per-row CPU cost of the engine, as on real
// clusters where repartitioning a dataset costs about as much as one
// processing pass over it.
func DefaultConfig() Config {
	return Config{Machines: 150, MaxAttempts: 4, ShufflePerRow: 5 * time.Microsecond}
}

// TaskStat records one reducer task's accounting.
type TaskStat struct {
	Stage     string
	Partition int
	Rows      int
	Attempts  int
	Duration  time.Duration // successful attempt only
	// RetryTime is the time burned by failed attempts of this task. The
	// cluster really runs those attempts (and discards their output), so
	// their cost must appear in the load model: a machine that spends 3
	// attempts on a partition is occupied for all 3, and with a nonzero
	// failure rate the makespan must grow accordingly.
	RetryTime time.Duration
}

// StageStat aggregates a stage's accounting.
type StageStat struct {
	Name         string
	InputRows    int
	ShuffleRows  int
	ShuffleBytes int // estimated repartitioned volume (see RowBytes)
	OutputRows   int
	Partitions   int
	Failures     int
	// Spill accounting: segments and encoded bytes this stage wrote to
	// spill files, and the bytes/wall-time it spent reading spilled
	// segments back (its own shuffle runs plus any spilled input from
	// upstream stages).
	SpillSegments  int
	SpillBytes     int64
	SpillReadBytes int64
	SpillReadNs    int64
	// Maps records one entry per map task (a contiguous chunk of one
	// input partition, see mapChunkRows): rows scanned and the real time
	// spent partitioning them. Map tasks never fail in the simulator
	// (partitioning is deterministic and side-effect free), so Attempts
	// is always 1 and RetryTime zero.
	Maps     []TaskStat
	Tasks    []TaskStat
	WallTime time.Duration // real elapsed time of the stage
}

// TotalTaskTime sums successful reducer durations (the "work").
func (s *StageStat) TotalTaskTime() time.Duration {
	var d time.Duration
	for _, t := range s.Tasks {
		d += t.Duration
	}
	return d
}

// TotalMapTime sums map task durations (the partitioning work).
func (s *StageStat) TotalMapTime() time.Duration {
	var d time.Duration
	for _, t := range s.Maps {
		d += t.Duration
	}
	return d
}

// TotalRetryTime sums time spent in failed attempts across tasks.
func (s *StageStat) TotalRetryTime() time.Duration {
	var d time.Duration
	for _, t := range s.Tasks {
		d += t.RetryTime
	}
	return d
}

// MaxTaskRows returns the largest reducer input (rows) across tasks.
func (s *StageStat) MaxTaskRows() int {
	max := 0
	for _, t := range s.Tasks {
		if t.Rows > max {
			max = t.Rows
		}
	}
	return max
}

// RowSkew is the per-partition skew of the stage: max reducer input over
// mean reducer input (1.0 = perfectly balanced). Skew bounds speedup —
// the slowest reducer gates the stage — which is why the paper's
// temporal partitioning matters for keyless queries.
func (s *StageStat) RowSkew() float64 {
	if len(s.Tasks) == 0 {
		return 0
	}
	total := 0
	for _, t := range s.Tasks {
		total += t.Rows
	}
	mean := float64(total) / float64(len(s.Tasks))
	if mean == 0 {
		return 0
	}
	return float64(s.MaxTaskRows()) / mean
}

// Makespan computes the simulated completion time of the stage on m
// machines: the map phase (partitioning chunks, LPT list scheduling),
// then the modeled shuffle cost (perfectly parallel across machines),
// then the reduce phase (LPT again). The phases are sequential barriers,
// as in the basic M-R model.
func (s *StageStat) Makespan(m int, shufflePerRow time.Duration) time.Duration {
	if m <= 0 {
		m = 1
	}
	shuffle := time.Duration(s.ShuffleRows) * shufflePerRow / time.Duration(m)
	return lptMakespan(s.Maps, m) + shuffle + lptMakespan(s.Tasks, m)
}

// lptMakespan schedules tasks onto m machines by longest-processing-time
// list scheduling and returns the finishing time of the last machine. A
// task occupies its machine for the failed attempts too; M-R restarts a
// failed reducer from scratch on the same input.
func lptMakespan(tasks []TaskStat, m int) time.Duration {
	if len(tasks) == 0 {
		return 0
	}
	durs := make([]time.Duration, len(tasks))
	for i, t := range tasks {
		durs[i] = t.Duration + t.RetryTime
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] > durs[j] })
	loads := make([]time.Duration, m)
	for _, d := range durs {
		// Assign to the least-loaded machine.
		min := 0
		for i := 1; i < m; i++ {
			if loads[i] < loads[min] {
				min = i
			}
		}
		loads[min] += d
	}
	var max time.Duration
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}

// JobStat aggregates a whole job.
type JobStat struct {
	Stages []StageStat
}

// Makespan sums per-stage makespans (stages are sequential barriers, as in
// the basic M-R model).
func (j *JobStat) Makespan(m int, shufflePerRow time.Duration) time.Duration {
	var d time.Duration
	for i := range j.Stages {
		d += j.Stages[i].Makespan(m, shufflePerRow)
	}
	return d
}

// Cluster executes jobs against an FS under a Config.
type Cluster struct {
	FS  *FS
	Cfg Config
	// Obs, when set, receives per-stage metrics under a "stage.<name>"
	// child scope: row/byte counters, failure and retry accounting, task
	// duration histograms, skew gauges, and spill traffic. Nil disables
	// emission.
	Obs *obs.Scope

	spillMu    sync.Mutex
	spillDir   string
	spillFiles []*spillFile
	spillAcct  spillIO
}

// NewCluster builds a cluster over a fresh FS.
func NewCluster(cfg Config) *Cluster {
	if cfg.Machines <= 0 {
		cfg.Machines = 1
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	return &Cluster{FS: NewFS(), Cfg: cfg}
}

// newSpillFile opens a fresh spill file in the cluster's (lazily
// created) spill directory.
func (c *Cluster) newSpillFile() (*spillFile, error) {
	c.spillMu.Lock()
	defer c.spillMu.Unlock()
	if c.spillDir == "" {
		dir, err := os.MkdirTemp(c.Cfg.SpillDir, "timr-spill-")
		if err != nil {
			return nil, fmt.Errorf("mapreduce: create spill dir: %w", err)
		}
		c.spillDir = dir
	}
	sf, err := createSpillFile(c.Cfg.SpillFS, c.spillDir, &c.spillAcct)
	if err != nil {
		return nil, err
	}
	c.spillFiles = append(c.spillFiles, sf)
	return sf, nil
}

// releaseSpillFile closes and deletes one spill file (a stage's shuffle
// runs, dead once its reducers finish).
func (c *Cluster) releaseSpillFile(sf *spillFile) {
	c.spillMu.Lock()
	for i, f := range c.spillFiles {
		if f == sf {
			c.spillFiles = append(c.spillFiles[:i], c.spillFiles[i+1:]...)
			break
		}
	}
	c.spillMu.Unlock()
	sf.close()
}

// Close deletes every spill file the cluster created. Spilled segments
// of datasets still in the FS become unreadable; call it when done with
// the cluster's outputs. A cluster that never spilled needs no Close.
func (c *Cluster) Close() error {
	c.spillMu.Lock()
	defer c.spillMu.Unlock()
	var first error
	for _, sf := range c.spillFiles {
		if err := sf.close(); err != nil && first == nil {
			first = err
		}
	}
	c.spillFiles = nil
	if c.spillDir != "" {
		if err := os.RemoveAll(c.spillDir); err != nil && first == nil {
			first = err
		}
		c.spillDir = ""
	}
	return first
}

// Run executes the stages in order, returning accounting for the job. It
// only reads the stages, so the same stages may run again.
func (c *Cluster) Run(stages ...Stage) (*JobStat, error) {
	job := &JobStat{}
	for i := range stages {
		st, err := c.runStage(&stages[i])
		if err != nil {
			return job, fmt.Errorf("stage %s: %w", stages[i].Name, err)
		}
		job.Stages = append(job.Stages, *st)
	}
	return job, nil
}

// injectedFailure implements deterministic failure injection: whether
// attempt a of (stage, partition) fails is a pure function of the seed.
func (c *Cluster) injectedFailure(stage string, part, attempt int) bool {
	if c.Cfg.FailureRate <= 0 {
		return false
	}
	h := temporal.HashSeed
	h = temporal.String(stage).Hash(h)
	h = temporal.Int(int64(part)).Hash(h)
	h = temporal.Int(int64(attempt)).Hash(h)
	h = temporal.Int(c.Cfg.Seed).Hash(h)
	r := rand.New(rand.NewSource(int64(h)))
	return r.Float64() < c.Cfg.FailureRate
}

// mapChunkRows is the map-task granule: each map task partitions one
// contiguous chunk of at most this many rows from one input partition.
// Small enough to load-balance skewed inputs across workers, large enough
// that per-task bookkeeping is noise. Spilled output segments are capped
// at the same row count, so a spilled segment always maps to exactly one
// map task downstream.
const mapChunkRows = 64 << 10

// mapTask is one unit of map-phase work: a chunk of rows from one input,
// partitioned into local per-destination buckets. Tasks execute on any
// worker in any order; determinism comes from walking buckets in
// task-creation order afterwards.
type mapTask struct {
	src  int
	rows []Row   // resident input chunk …
	seg  Segment // … or a spilled segment, read by the worker as row frames

	// Per destination partition, filled by the worker: a resident chunk's
	// rows, or a spilled segment's row frames copied verbatim (its rows are
	// decoded only to route them, and not kept).
	buckets      [][]Row
	frames       [][]byte
	counts       []int  // rows per bucket
	bucketBytes  []int  // RowBytes per bucket (budget accounting)
	bucketSorted []bool // per-bucket RunKey order, nil when RunKey unset
	bytes        int    // shuffle bytes produced (RowBytes per destination copy)
	dups         int    // shuffle rows produced (>= input rows under MultiPartition)
	stat         TaskStat
}

// bucketRows returns bucket p as rows, decoding a spilled task's frames
// (the bucket stays resident, so its rows must own their bytes).
func (t *mapTask) bucketRows(p int) ([]Row, error) {
	if t.frames == nil {
		return t.buckets[p], nil
	}
	return decodeFrames(t.frames[p], t.counts[p])
}

// evict drops bucket p once the walk has placed it.
func (t *mapTask) evict(p int) {
	if t.frames != nil {
		t.frames[p] = nil
	} else {
		t.buckets[p] = nil
	}
}

// workers resolves the worker-pool size of a stage phase: MapWorkers when
// set, otherwise min(Machines, GOMAXPROCS). The map and reduce phases
// share it so MapWorkers applies uniformly; par.ForEach clamps it to the
// phase's task count.
func (c *Cluster) workers() int {
	if c.Cfg.MapWorkers > 0 {
		return c.Cfg.MapWorkers
	}
	return min(c.Cfg.Machines, runtime.GOMAXPROCS(0))
}

// runMapTask partitions one task's rows into per-destination buckets,
// tracking per-bucket byte volume and (when the stage declares a
// RunKey) whether each bucket remains sorted by it — the only moment
// run sortedness can be recorded without re-reading the run. A spilled
// segment is read with one ReadAt and never materialized: each frame is
// decoded into one scratch row to call the stage's functions on, and the
// frame itself is copied into its bucket, so a bucket that spills again
// is written without re-encoding.
func runMapTask(s *Stage, t *mapTask, nparts int) error {
	n := len(t.rows)
	var data []byte
	var fr frameReader
	if t.seg.Spilled() {
		var err error
		if data, err = t.seg.readFrames(); err != nil {
			return err
		}
		n = t.seg.Len()
		fr = frameReader{data: data, left: n}
		t.frames = make([][]byte, nparts)
	} else {
		t.buckets = make([][]Row, nparts)
	}
	// input returns input row i, its RowBytes and, for a spilled segment,
	// its frame. Frames are read in order, so i counts up from 0, and a
	// frame's row is the reader's scratch row, valid until the next call.
	input := func(i int) (Row, int, []byte, error) {
		if t.frames == nil {
			r := t.rows[i]
			return r, RowBytes(r), nil, nil
		}
		return fr.next()
	}
	t.stat.Rows = n
	t.counts = make([]int, nparts)
	t.bucketBytes = make([]int, nparts)
	var bucketLast []int64
	if s.RunKey != nil {
		t.bucketSorted = make([]bool, nparts)
		for i := range t.bucketSorted {
			t.bucketSorted[i] = true
		}
		bucketLast = make([]int64, nparts)
	}
	// account tallies row r under bucket p; counts[p] rows went there so far.
	account := func(p int, r Row, b int) {
		if bucketLast != nil {
			key := s.RunKey(r, t.src)
			if t.counts[p] > 0 && key < bucketLast[p] {
				t.bucketSorted[p] = false
			}
			bucketLast[p] = key
		}
		t.counts[p]++
		t.bucketBytes[p] += b
		t.dups++
		t.bytes += b
	}
	if s.MultiPartition != nil {
		// Bucket sizes are unknown until the user function has run: grow.
		for i := 0; i < n; i++ {
			r, b, frame, err := input(i)
			if err != nil {
				return err
			}
			for _, p := range s.MultiPartition(r, t.src, nparts) {
				account(p, r, b)
				if frame != nil {
					t.frames[p] = append(t.frames[p], frame...)
				} else {
					t.buckets[p] = append(t.buckets[p], r)
				}
			}
		}
		return fr.done()
	}
	// One destination per row: account first, remembering destinations,
	// then scatter into buckets allocated once at their final size.
	dest := make([]int32, n)
	var frameBytes []int
	if t.frames != nil {
		frameBytes = make([]int, nparts)
	}
	cols := s.PartitionCols[t.src]
	width := 0 // columns a row needs to hold its key
	for _, c := range cols {
		width = max(width, c+1)
	}
	for i := 0; i < n; i++ {
		r, b, frame, err := input(i)
		if err != nil {
			return err
		}
		if len(r) < width {
			return fmt.Errorf("mapreduce: a row of %d columns has no key column %d", len(r), width-1)
		}
		p := int(temporal.HashRow(r, cols) % uint64(nparts))
		dest[i] = int32(p)
		account(p, r, b)
		if frame != nil {
			frameBytes[p] += len(frame)
		}
	}
	if t.frames == nil {
		for p, c := range t.counts {
			t.buckets[p] = make([]Row, 0, c)
		}
		for i, r := range t.rows {
			t.buckets[dest[i]] = append(t.buckets[dest[i]], r)
		}
		return nil
	}
	if err := fr.done(); err != nil {
		return err
	}
	// The frames were checked on the first pass; the second only splits
	// them off again.
	for p, nb := range frameBytes {
		if nb > 0 {
			t.frames[p] = make([]byte, 0, nb)
		}
	}
	fr = frameReader{data: data, left: n}
	for i := 0; i < n; i++ {
		frame, _, _ := fr.skip()
		t.frames[dest[i]] = append(t.frames[dest[i]], frame...)
	}
	return nil
}

// stageFiles is the single owner of the spill files one stage creates.
// Every file is registered here at creation; when the stage ends the
// shuffle file (consumed only by this stage's reducers) is always
// released, and on failure the output file is too — a failed stage
// publishes no dataset, so segments pointing into that file are
// unreachable and its bytes would otherwise sit on disk until
// Cluster.Close (or leak entirely if the caller never got that far).
type stageFiles struct {
	c       *Cluster
	shuffle *spillFile
	out     *spillFile
}

func (f *stageFiles) shuffleFile() (*spillFile, error) {
	if f.shuffle == nil {
		sf, err := f.c.newSpillFile()
		if err != nil {
			return nil, err
		}
		f.shuffle = sf
	}
	return f.shuffle, nil
}

func (f *stageFiles) outFile() (*spillFile, error) {
	if f.out == nil {
		sf, err := f.c.newSpillFile()
		if err != nil {
			return nil, err
		}
		f.out = sf
	}
	return f.out, nil
}

func (f *stageFiles) finish(failed bool) {
	if f.shuffle != nil {
		f.c.releaseSpillFile(f.shuffle)
		f.shuffle = nil
	}
	if failed && f.out != nil {
		f.c.releaseSpillFile(f.out)
		f.out = nil
	}
}

func (c *Cluster) runStage(s *Stage) (*StageStat, error) {
	files := &stageFiles{c: c}
	stat, err := c.runStageFiles(s, files)
	files.finish(err != nil)
	return stat, err
}

func (c *Cluster) runStageFiles(s *Stage, files *stageFiles) (*StageStat, error) {
	start := time.Now()
	ioStart := c.spillAcct.snapshot()
	nparts := s.NumPartitions
	if nparts <= 0 {
		nparts = c.Cfg.Machines
	}
	stat := &StageStat{Name: s.Name, Partitions: nparts}
	reduce := s.ReduceSegments
	if reduce == nil {
		if s.Reduce == nil {
			return stat, fmt.Errorf("no reducer")
		}
		reduce = materialized(s.Reduce)
	}
	switch {
	case s.MultiPartition != nil:
	case s.PartitionCols == nil:
		return stat, fmt.Errorf("no partitioning: set PartitionCols or MultiPartition")
	case len(s.PartitionCols) != len(s.Inputs):
		return stat, fmt.Errorf("PartitionCols declares keys for %d inputs, the stage reads %d", len(s.PartitionCols), len(s.Inputs))
	}

	// ---- Map phase: read inputs, partition rows in parallel ----
	// Chunk every input partition into map tasks in (src, partition,
	// segment, chunk) order; that fixed order is what the shuffle-run walk
	// below replays, so the shuffled row order is identical no matter how
	// many workers run or how they interleave. A spilled input segment is
	// one map task (its writer capped it at mapChunkRows); resident
	// segments are sliced zero-copy.
	var tasks []*mapTask
	for src, name := range s.Inputs {
		ds, err := c.FS.Read(name)
		if err != nil {
			return stat, err
		}
		for p := 0; p < ds.NumPartitions(); p++ {
			for _, seg := range ds.Partition(p) {
				if seg.Spilled() {
					tasks = append(tasks, &mapTask{src: src, seg: seg})
					continue
				}
				rows := seg.Resident()
				for off := 0; off < len(rows); off += mapChunkRows {
					end := off + mapChunkRows
					if end > len(rows) {
						end = len(rows)
					}
					tasks = append(tasks, &mapTask{src: src, rows: rows[off:end]})
				}
			}
		}
	}
	if err := par.ForEach(c.workers(), len(tasks), func(i int) (err error) {
		t := tasks[i]
		t0 := time.Now()
		// Isolate user partition-fn panics: one poisoned row must fail the
		// job with a diagnosable error, not kill the process (and every
		// other in-flight task) with it.
		defer func() {
			if rec := recover(); rec != nil {
				err = fmt.Errorf("mapreduce: map task %d panicked: %v", i, rec)
			}
			t.stat.Stage = s.Name
			t.stat.Partition = i
			t.stat.Attempts = 1
			t.stat.Duration = time.Since(t0)
		}()
		return runMapTask(s, t, nparts)
	}); err != nil {
		return stat, err
	}

	// ---- Shuffle-run walk: assemble per-partition segment lists ----
	// parts[p][src] lists the non-empty (p, src) buckets in task-creation
	// order — row-identical to the serial single-pass shuffle, each bucket
	// one run. The walk is sequential and deterministic, which makes the
	// budget decision deterministic too: runs stay resident in (partition,
	// source, task) order until MemoryBudget is spent, the rest spill as
	// (possibly sorted) runs to one stage-lifetime spill file.
	budget := c.Cfg.MemoryBudget
	parts := make([][][]Segment, nparts)
	var resident int64
	var enc []byte // encoding scratch for resident rows that spill
	for p := 0; p < nparts; p++ {
		parts[p] = make([][]Segment, len(s.Inputs))
		for src := range s.Inputs {
			for _, t := range tasks {
				if t.src != src {
					continue
				}
				if t.counts[p] == 0 {
					continue
				}
				sorted := t.bucketSorted != nil && t.bucketSorted[p]
				keep := budget == 0 || (budget > 0 && resident+int64(t.bucketBytes[p]) <= budget)
				if keep {
					rows, err := t.bucketRows(p)
					if err != nil {
						return stat, err
					}
					t.evict(p)
					resident += int64(t.bucketBytes[p])
					parts[p][src] = append(parts[p][src], ResidentSegment(rows, sorted))
					continue
				}
				// Shuffle runs are consumed only by this stage's reducers;
				// the file is released by stageFiles when the stage ends.
				sf, err := files.shuffleFile()
				if err != nil {
					return stat, err
				}
				var frames []byte
				if t.frames != nil {
					frames = t.frames[p] // copied from a spilled input as they are
				} else {
					enc = appendFrames(enc[:0], t.buckets[p])
					frames = enc
				}
				seg, err := sf.writeSegment(frames, t.counts[p], sorted)
				t.evict(p)
				if err != nil {
					return stat, err
				}
				parts[p][src] = append(parts[p][src], seg)
			}
		}
	}
	for _, t := range tasks {
		stat.InputRows += t.stat.Rows
		stat.ShuffleRows += t.dups
		stat.ShuffleBytes += t.bytes
		stat.Maps = append(stat.Maps, t.stat)
		// Resident runs stay referenced by their segments.
		t.buckets, t.frames = nil, nil
	}

	// ---- Reduce phase: run reducers on the bounded worker pool ----
	type result struct {
		rows []Row
		stat TaskStat
	}
	results := make([]result, nparts)
	if err := par.ForEach(c.workers(), nparts, func(p int) error {
		n := 0
		for _, segs := range parts[p] {
			for i := range segs {
				n += segs[i].Len()
			}
		}
		if n == 0 {
			return nil
		}
		res := &results[p]
		res.stat = TaskStat{Stage: s.Name, Partition: p, Rows: n}
		var lastPanic any
		for attempt := 1; attempt <= c.Cfg.MaxAttempts; attempt++ {
			res.stat.Attempts = attempt
			var out []Row
			t0 := time.Now()
			fail := c.injectedFailure(s.Name, p, attempt)
			emit := func(rows []Row) {
				if out == nil {
					// Capacity clipped: a later append copies instead of
					// growing into an array the reducer may still read.
					out = rows[:len(rows):len(rows)]
				} else {
					out = append(out, rows...)
				}
			}
			var err error
			panicked := false
			// Isolate user reducer panics: a panicking reducer is a failed
			// attempt — output discarded, time charged, task restarted —
			// exactly like an injected machine failure, instead of taking
			// down the whole process.
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						panicked = true
						lastPanic = rec
					}
				}()
				err = reduce(p, parts[p], emit)
			}()
			if fail || panicked {
				// The attempt's partial output is discarded, exactly as M-R
				// discards output of failed reducers; the task is then
				// restarted from scratch (§III-C.1). The time it burned is
				// real machine occupancy, though — charge it, or makespans
				// would be blind to the failure rate.
				res.stat.RetryTime += time.Since(t0)
				continue
			}
			if err != nil {
				return err
			}
			res.stat.Duration = time.Since(t0)
			res.rows = out
			return nil
		}
		if lastPanic != nil {
			return fmt.Errorf("partition %d failed after %d attempts (last panic: %v)", p, c.Cfg.MaxAttempts, lastPanic)
		}
		return fmt.Errorf("partition %d failed after %d attempts", p, c.Cfg.MaxAttempts)
	}); err != nil {
		return stat, err
	}

	// ---- Output assembly: resident up to the budget, spilled beyond ----
	// Output keeps its own budget pass (the shuffle runs are dead by now).
	// Spilled output segments are capped at mapChunkRows so a downstream
	// map phase gets bounded tasks.
	out := NewDataset(s.OutSchema, nparts)
	var outResident int64
	for p := range results {
		res := &results[p]
		if res.stat.Rows == 0 {
			continue
		}
		stat.Failures += res.stat.Attempts - 1
		stat.Tasks = append(stat.Tasks, res.stat)
		stat.OutputRows += len(res.rows)
		if budget == 0 {
			out.Append(p, res.rows)
			continue
		}
		for off := 0; off < len(res.rows); off += mapChunkRows {
			end := off + mapChunkRows
			if end > len(res.rows) {
				end = len(res.rows)
			}
			chunk := res.rows[off:end]
			var chunkBytes int64
			for _, r := range chunk {
				chunkBytes += int64(RowBytes(r))
			}
			if budget > 0 && outResident+chunkBytes <= budget {
				outResident += chunkBytes
				out.Append(p, chunk)
				continue
			}
			of, err := files.outFile()
			if err != nil {
				return stat, err
			}
			enc = appendFrames(enc[:0], chunk)
			seg, err := of.writeSegment(enc, len(chunk), false)
			if err != nil {
				return stat, err
			}
			out.AppendSegment(p, seg)
		}
	}
	if s.Output != "" {
		c.FS.Write(s.Output, out)
	}
	ioEnd := c.spillAcct.snapshot()
	stat.SpillSegments = int(ioEnd.segments - ioStart.segments)
	stat.SpillBytes = ioEnd.bytes - ioStart.bytes
	stat.SpillReadBytes = ioEnd.readBytes - ioStart.readBytes
	stat.SpillReadNs = ioEnd.readNs - ioStart.readNs
	stat.WallTime = time.Since(start)
	c.emitStageMetrics(stat)
	return stat, nil
}

// materialized adapts the convenience Reducer signature to ReduceSegments,
// the one call the reduce loop makes: each attempt builds the contiguous
// per-source row slices reduce expects (decoding spilled runs as needed)
// and emits the collected output whole.
func materialized(reduce Reducer) func(int, [][]Segment, func([]Row)) error {
	return func(part int, segs [][]Segment, emit func([]Row)) error {
		in := make([][]Row, len(segs))
		for src, list := range segs {
			total := 0
			for i := range list {
				total += list[i].Len()
			}
			if total == 0 {
				continue
			}
			rows := make([]Row, 0, total)
			for i := range list {
				mat, err := list[i].Materialize()
				if err != nil {
					return err
				}
				rows = append(rows, mat...)
			}
			in[src] = rows
		}
		var out []Row
		if err := reduce(part, in, func(r Row) { out = append(out, r) }); err != nil {
			return err
		}
		emit(out)
		return nil
	}
}

// emitStageMetrics publishes a completed stage's accounting into the
// cluster's obs scope (no-op when Obs is nil). Counters accumulate across
// jobs run on the same cluster; gauges are high watermarks.
func (c *Cluster) emitStageMetrics(stat *StageStat) {
	if c.Obs == nil {
		return
	}
	sc := c.Obs.Child("stage." + stat.Name)
	sc.Counter("input_rows").Add(int64(stat.InputRows))
	sc.Counter("shuffle_rows").Add(int64(stat.ShuffleRows))
	sc.Counter("shuffle_bytes").Add(int64(stat.ShuffleBytes))
	sc.Counter("output_rows").Add(int64(stat.OutputRows))
	sc.Counter("tasks").Add(int64(len(stat.Tasks)))
	sc.Counter("map_tasks").Add(int64(len(stat.Maps)))
	sc.Counter("map_ns").Add(int64(stat.TotalMapTime()))
	sc.Counter("failures").Add(int64(stat.Failures))
	sc.Counter("retry_ns").Add(int64(stat.TotalRetryTime()))
	sc.Counter("spill_segments").Add(int64(stat.SpillSegments))
	sc.Counter("spill_bytes").Add(stat.SpillBytes)
	sc.Counter("spill_read_bytes").Add(stat.SpillReadBytes)
	sc.Counter("spill_read_ns").Add(stat.SpillReadNs)
	sc.Gauge("max_task_rows").SetMax(int64(stat.MaxTaskRows()))
	// Skew ×100 so the integer gauge keeps two decimals of resolution.
	sc.Gauge("row_skew_x100").SetMax(int64(stat.RowSkew() * 100))
	h := sc.Histogram("task_time")
	for _, t := range stat.Tasks {
		h.Observe(t.Duration + t.RetryTime)
	}
	mh := sc.Histogram("map_time")
	for _, t := range stat.Maps {
		mh.Observe(t.Duration)
	}
}

// RowBytes returns the exact serialized size of a row in the shared
// binary row codec — the same bytes one row occupies in a spill frame.
// MemoryBudget keep/spill accounting charges this, so a "4KB" budget
// really bounds 4KB of encoded rows; the old 8-bytes-per-value estimate
// drifted from the varint encoding and let budgeted partitions hold
// arbitrarily more than their nominal limit.
func RowBytes(r Row) int {
	return temporal.RowEncodedLen(r)
}
