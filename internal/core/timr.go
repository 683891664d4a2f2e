package core

import (
	"fmt"
	"slices"
	"sync"

	"timr/internal/mapreduce"
	"timr/internal/obs"
	"timr/internal/temporal"
)

// Intermediate datasets carry event lifetimes in two leading columns
// (paper footnote 2 extends the Time-column convention to interval
// events; we adopt the extension for all TiMR-produced data).
const (
	ColLE = "__LE"
	ColRE = "__RE"
)

// TimeColumn is the mandated first column of raw source datasets
// (paper §III-A step 4).
const TimeColumn = "Time"

// IntermediateSchema wraps a payload schema with lifetime columns.
func IntermediateSchema(payload *temporal.Schema) *temporal.Schema {
	fields := []temporal.Field{
		{Name: ColLE, Kind: temporal.KindInt},
		{Name: ColRE, Kind: temporal.KindInt},
	}
	return temporal.NewSchema(append(fields, payload.Fields()...)...)
}

// RowsToEvents converts intermediate rows back into events.
func RowsToEvents(rows []mapreduce.Row) []temporal.Event {
	events := make([]temporal.Event, len(rows))
	for i, r := range rows {
		events[i] = temporal.Event{LE: r[0].AsInt(), RE: r[1].AsInt(), Payload: r[2:]}
	}
	return events
}

// ctiPeriod is the application-time interval between punctuations
// injected by reducers; it bounds engine state during a partition run.
const ctiPeriod = 15 * temporal.Minute

// Config tunes the TiMR runtime.
type Config struct {
	// Obs, when set, receives per-operator engine metrics under a
	// "frag.<name>" child scope per fragment (batch reducers) or
	// "stream.<name>" (streaming stages). Engines of all partitions of a
	// fragment share the scope, so counts aggregate across the cluster.
	// Nil disables instrumentation.
	Obs *obs.Scope
}

// DefaultConfig is the configuration used throughout the evaluation: no
// metrics scope.
func DefaultConfig() Config {
	return Config{}
}

// TiMR binds a cluster to the framework configuration.
type TiMR struct {
	Cluster *mapreduce.Cluster
	Cfg     Config
}

// New builds a TiMR instance over a cluster.
func New(cluster *mapreduce.Cluster, cfg Config) *TiMR {
	return &TiMR{Cluster: cluster, Cfg: cfg}
}

// Run executes an annotated temporal plan over the cluster: it fragments
// the plan, converts each fragment to an M-R stage (paper §III-A step 4)
// and runs the stages in order. sources maps scan names to FS datasets;
// output names the result dataset, which carries IntermediateSchema rows.
func (t *TiMR) Run(plan *temporal.Plan, sources map[string]string, output string) (*mapreduce.JobStat, error) {
	frags, err := MakeFragments(plan, sources, output)
	if err != nil {
		return nil, err
	}
	stages := make([]mapreduce.Stage, 0, len(frags))
	for i := range frags {
		st, err := t.Stage(&frags[i])
		if err != nil {
			return nil, err
		}
		stages = append(stages, st)
	}
	return t.Cluster.Run(stages...)
}

// ResultEvents reads a TiMR output dataset back as coalesced events.
func (t *TiMR) ResultEvents(name string) ([]temporal.Event, error) {
	ds, err := t.Cluster.FS.Read(name)
	if err != nil {
		return nil, err
	}
	rows, err := ds.ReadAll()
	if err != nil {
		return nil, err
	}
	return temporal.Coalesce(RowsToEvents(rows)), nil
}

// Stage converts one fragment into a map-reduce stage whose reducer is
// the generated method P of the paper: it converts partition rows to
// events, feeds them in time order to an embedded engine instance running
// the fragment plan (the generated method P'), and emits result events
// back as rows directly from the engine's output sink (the paper's
// blocking-queue bridge of §III-C.2 collapses to a synchronous sink when
// reducer and engine share one thread).
func (t *TiMR) Stage(frag *Fragment) (mapreduce.Stage, error) {
	// A raw source may itself be the output of an earlier TiMR job, in
	// which case its rows carry interval lifetimes; detect that from the
	// stored schema so chained jobs compose (the BT pipeline runs one job
	// per phase).
	for i := range frag.Inputs {
		in := &frag.Inputs[i]
		if in.Intermediate {
			continue
		}
		if ds, err := t.Cluster.FS.Read(in.Dataset); err == nil && hasLifetimeColumns(ds.Schema) {
			in.Intermediate = true
		}
	}
	inputs := make([]string, len(frag.Inputs))
	// Each input's LE column, worked out once for the run key, the span
	// scan and routing, and the reducer: an intermediate row leads with
	// __LE, a raw row carries the Time column.
	leCols := make([]int, len(frag.Inputs))
	for i, in := range frag.Inputs {
		inputs[i] = in.Dataset
		if !in.Intermediate {
			leCols[i] = in.Schema.MustIndex(TimeColumn)
		}
	}
	outSchema := IntermediateSchema(frag.Root.Schema())

	st := mapreduce.Stage{
		Name:      frag.Name,
		Inputs:    inputs,
		Output:    frag.Output,
		OutSchema: outSchema,
	}
	// Every TiMR reducer merges its input runs by event LE; declaring the
	// run key lets the map phase annotate each shuffle run's sortedness
	// inline, so spilled runs can stream through the merge without a
	// re-read (unsorted ones are materialized and cut into ordered pieces).
	st.RunKey = func(r mapreduce.Row, src int) int64 { return r[leCols[src]].AsInt() }

	if frag.Part.Temporal {
		if err := t.temporalStage(&st, frag, leCols); err != nil {
			return st, err
		}
		return st, nil
	}

	// hash(key) mod #machines (§III-C.3): one engine instance serves a
	// whole hash bucket of logical groups. A non-partitionable fragment
	// has no key columns and runs as a single task.
	cols := make([][]int, len(frag.Inputs))
	if len(frag.Part.Cols) == 0 {
		st.NumPartitions = 1
	} else {
		for i, in := range frag.Inputs {
			cols[i] = partitionCols(in, frag.Inputs[i].Part.Cols)
		}
	}
	st.PartitionCols = cols

	st.ReduceSegments = t.reducer(frag, leCols, nil)
	return st, nil
}

// hasLifetimeColumns reports whether a stored dataset schema leads with
// the __LE/__RE interval columns of TiMR intermediate data.
func hasLifetimeColumns(s *temporal.Schema) bool {
	return s != nil && s.Len() >= 2 && s.Field(0).Name == ColLE && s.Field(1).Name == ColRE
}

// partitionCols resolves partition column positions, accounting for the
// two lifetime columns of intermediate datasets.
func partitionCols(in FragmentInput, cols []string) []int {
	idx := in.Schema.Indexes(cols...)
	if in.Intermediate {
		for i := range idx {
			idx[i] += 2
		}
	}
	return idx
}

// reducer builds the method P for a fragment. If spans is non-nil, output
// events are clipped to the owned interval (temporal partitioning). The
// returned function has the out-of-core signature
// (mapreduce.Stage.ReduceSegments): each input arrives as a list of
// shuffle-run segments, resident or spilled, and P streams them through
// the engine's k-way merge instead of materializing the partition — its
// working set is the merge frontier.
func (t *TiMR) reducer(frag *Fragment, leCols []int, spans *SpanSpec) func(int, [][]mapreduce.Segment, func([]mapreduce.Row)) error {
	root := slotted(frag.Root)
	cfg := t.Cfg
	// One scope per fragment, shared by every partition's engine (and by
	// retried attempts): obs handles are atomics, so parallel reducers on
	// the worker pool aggregate into the same per-operator counters.
	scope := cfg.Obs.Child("frag." + frag.Name)
	mergeRuns := scope.Counter("merge_runs")

	return func(part int, in [][]mapreduce.Segment, emit func([]mapreduce.Row)) error {
		// The paper's deployment bridges the DSMS's asynchronous push to
		// M-R's synchronous pull with a blocking queue (§III-C.2). Here
		// both sides live in one goroutine, so the engine's output
		// lands directly in the result sink — no channel, no per-event
		// handoff — and the rows go to emit, whole, after the final coalesce.
		sink := reduceSinks.Get().(*reduceSink)
		defer sink.release()
		sink.clip = spans != nil
		if spans != nil {
			sink.start, sink.end = spans.Owned(part)
		}
		eng, err := temporal.NewEngine(root,
			temporal.WithSink(sink),
			temporal.WithObs(scope),
			temporal.WithCTIPeriod(ctiPeriod))
		if err != nil {
			return err
		}
		// The engine requires nondecreasing LE; M-R partitions are not
		// time-sorted globally, so P establishes time order first (the
		// strawman's "pre-sorting of data", §II-C — here it is part of the
		// framework, written once). The shuffle delivers each partition as
		// a concatenation of runs that are individually time-sorted
		// whenever their upstream partition was, so instead of a global
		// O(n log n) re-sort, P hands the engine one run per shuffle run, in
		// (source, run) order, and the engine's merged ingest reproduces the
		// stable LE-sort order exactly. Rows convert to events lazily (P
		// reads rows "and converts each row into an event using the
		// predefined Time column").
		runs, inRows := make([]temporal.Run, 0, 8), 0
		for src := range in {
			intermediate, timeCol := frag.Inputs[src].Intermediate, leCols[src]
			toEvent := func(r mapreduce.Row) temporal.Event {
				if intermediate {
					return temporal.Event{LE: r[0].AsInt(), RE: r[1].AsInt(), Payload: r[2:]}
				}
				return temporal.PointEvent(r[timeCol].AsInt(), r)
			}
			for i := range in[src] {
				run, err := segmentRun(&in[src][i], frag.Inputs[src].ScanName, toEvent)
				if err != nil {
					return err
				}
				runs, inRows = append(runs, run), inRows+in[src][i].Len()
			}
		}
		sink.events = slices.Grow(sink.events, inRows) // as many results as inputs, to begin with
		mergeRuns.Add(int64(len(runs)))
		if err := eng.FeedMerged(runs); err != nil {
			return err
		}
		eng.Flush()
		// Canonical output: events fragmented at CTI boundaries merge. The
		// engine is done with every row it emitted, each carved for its
		// event alone, so the reducer writes the lifetime into the two
		// slots and emits the rows themselves.
		out := temporal.Coalesce(sink.events)
		rows := make([]mapreduce.Row, len(out))
		for i, e := range out {
			e.Payload[0], e.Payload[1] = temporal.Int(e.LE), temporal.Int(e.RE)
			rows[i] = e.Payload
		}
		emit(rows)
		return nil
	}
}

// slotted returns root under a pick-only Project whose first two columns
// are copies of root's first column, root's own columns following: the
// slots the reducer overwrites with each result's lifetime, so the engine
// writes the intermediate row and nothing copies it again. A row
// [a0, a0, a0, a1, …] orders and equals exactly as [a0, a1, …] does, so
// Coalesce sorts and merges the same events either way. A
// pick-only root Project gets the slots prepended to its own picks, so a
// join below it still writes the whole row (temporal's compiler folds
// the Project into the join). The Project never aliases its input — its
// second column is not its input's second — so every row it emits is
// carved for that event. A root with no column gets constant slots.
func slotted(root *temporal.Plan) *temporal.Plan {
	slots := func(col string) []temporal.Projection {
		return []temporal.Projection{temporal.Rename(col, ColLE), temporal.Rename(col, ColRE)}
	}
	switch {
	case root.Out.Len() == 0:
		return root.Project(temporal.ConstInt(ColLE, 0), temporal.ConstInt(ColRE, 0))
	case root.Kind == temporal.OpProject && !slices.ContainsFunc(root.Projs, func(pr temporal.Projection) bool { return pr.Source == "" }):
		return root.Inputs[0].Project(append(slots(root.Projs[0].Source), root.Projs...)...)
	}
	projs := slots(root.Out.Field(0).Name)
	for _, f := range root.Out.Fields() {
		projs = append(projs, temporal.Keep(f.Name))
	}
	return root.Project(projs...)
}

// reduceSink collects a partition engine's output for the reducer,
// clipping events to the partition's owned span under temporal
// partitioning, into one flat buffer: reserved at the partition's input
// row count, doubled past it, and pooled across partitions and stages.
type reduceSink struct {
	clip       bool
	start, end temporal.Time
	events     []temporal.Event
}

var reduceSinks = sync.Pool{New: func() any { return new(reduceSink) }}

func (s *reduceSink) OnEvent(e temporal.Event) {
	if s.clip {
		e.LE, e.RE = max(e.LE, s.start), min(e.RE, s.end)
		if e.LE >= e.RE {
			return
		}
	}
	if len(s.events) == cap(s.events) {
		s.events = slices.Grow(s.events, max(cap(s.events), 512))
	}
	s.events = append(s.events, e)
}

func (s *reduceSink) OnCTI(temporal.Time) {}
func (s *reduceSink) OnFlush()            {}

// release returns the sink to the pool, holding no row.
func (s *reduceSink) release() {
	clear(s.events)
	s.events = s.events[:0]
	reduceSinks.Put(s)
}

// temporalStage wires a time-partitioned fragment (§III-B): rows are
// routed to overlapping spans, each span's engine produces output only
// for its owned interval.
func (t *TiMR) temporalStage(st *mapreduce.Stage, frag *Fragment, leCols []int) error {
	width := frag.Part.SpanWidth
	overlap := frag.Root.MaxWindow()
	// Determine the data's time range to size the span set.
	lo, hi := temporal.MaxTime, temporal.MinTime
	for i, in := range frag.Inputs {
		ds, err := t.Cluster.FS.Read(in.Dataset)
		if err != nil {
			return err
		}
		timeCol := leCols[i]
		for p := 0; p < ds.NumPartitions(); p++ {
			rd := ds.Reader(p)
			for {
				r, ok, err := rd.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				ts := r[timeCol].AsInt()
				if ts < lo {
					lo = ts
				}
				if ts > hi {
					hi = ts
				}
			}
		}
	}
	if lo > hi {
		lo, hi = 0, 0
	}
	if width <= 0 {
		// Auto-size: about two tasks per machine, but spans no narrower
		// than twice the fragment's window so the overlap duplication
		// stays below ~50% (the tradeoff of paper Figure 16).
		machines := temporal.Time(t.Cluster.Cfg.Machines)
		if machines < 1 {
			machines = 1
		}
		width = (hi - lo + 1) / (2 * machines)
		if min := 2 * overlap; width < min {
			width = min
		}
		if width <= 0 {
			width = 1
		}
	}
	spans := NewSpanSpec(lo, hi, width, overlap)
	st.NumPartitions = spans.N
	intermediate := make([]bool, len(frag.Inputs))
	for i, in := range frag.Inputs {
		intermediate[i] = in.Intermediate
	}
	st.MultiPartition = func(r mapreduce.Row, src, nparts int) []int {
		if intermediate[src] {
			// Interval events route by their full lifetime: every span
			// whose input region the lifetime reaches must see the event,
			// or chained temporal jobs drop contributions in later spans.
			return spans.SpansForInterval(r[0].AsInt(), r[1].AsInt())
		}
		return spans.SpansFor(r[leCols[src]].AsInt())
	}
	st.ReduceSegments = t.reducer(frag, leCols, spans)
	return nil
}

// String renders a fragment summary ("DAG of {fragment, key} pairs").
func (frag *Fragment) String() string {
	return fmt.Sprintf("%s key=%s inputs=%d -> %s", frag.Name, frag.Part, len(frag.Inputs), frag.Output)
}
