package temporal

import (
	"cmp"
	"fmt"
	"slices"

	"timr/internal/obs"
)

// Engine hosts a compiled pipeline together with a result collector. It is
// the "embedded DSMS server instance" that TiMR creates inside reducers
// (paper §III-A step 4) and that the real-time example drives directly.
//
// An Engine is single-threaded by design, like one StreamInsight instance;
// parallelism comes from running many engines over partitions (TiMR) —
// exactly the paper's architecture.
type Engine struct {
	pipeline *Pipeline
	collect  *Collector
	sink     Sink
	// CTIPeriod controls automatic punctuation injection by Feed and
	// FeedMerged: a CTI is broadcast whenever application time advances
	// past the next period boundary (the schedule is anchored at the first
	// event's time). Zero disables automatic CTIs (state is bounded only
	// by Flush).
	CTIPeriod Time
	lastCTI   Time
	fed       bool // any input seen; Restore on a fed engine is an error
}

// Option configures an Engine at construction.
type Option func(*engineOptions)

type engineOptions struct {
	sink      Sink
	scope     *obs.Scope
	ctiPeriod Time
}

// WithSink delivers results to a caller-supplied sink (e.g. a live
// dashboard) instead of an internal collector. Engines built with a
// custom sink return nil from Results.
func WithSink(out Sink) Option { return func(o *engineOptions) { o.sink = out } }

// WithObs enables per-operator instrumentation reporting into scope (see
// op_meter.go). A nil scope disables it. The engine runs the same
// operators either way. Engines for different partitions of the same
// fragment may share one scope: metric handles are shared atomics, so
// counts aggregate.
func WithObs(scope *obs.Scope) Option { return func(o *engineOptions) { o.scope = scope } }

// WithCTIPeriod sets the automatic punctuation period (see
// Engine.CTIPeriod). Zero disables automatic CTIs. The default is Hour.
func WithCTIPeriod(p Time) Option { return func(o *engineOptions) { o.ctiPeriod = p } }

// NewEngine compiles the plan into an engine. With no options, results
// accumulate in an internal collector (read them back with Results);
// WithSink, WithObs and WithCTIPeriod configure the output sink,
// instrumentation and automatic punctuation.
func NewEngine(plan *Plan, opts ...Option) (*Engine, error) {
	o := engineOptions{ctiPeriod: Hour}
	for _, opt := range opts {
		opt(&o)
	}
	var collect *Collector
	sink := o.sink
	if sink == nil {
		collect = &Collector{}
		sink = collect
	}
	p, err := compile(plan, sink, o.scope)
	if err != nil {
		return nil, err
	}
	return &Engine{pipeline: p, collect: collect, sink: sink, CTIPeriod: o.ctiPeriod, lastCTI: MinTime}, nil
}

// Pipeline exposes the compiled pipeline.
func (e *Engine) Pipeline() *Pipeline { return e.pipeline }

// Feed pushes one event into the named source.
func (e *Engine) Feed(source string, ev Event) {
	e.push(e.pipeline.Input(source), ev)
}

// push delivers one event to a source entry, then lets the automatic
// schedule punctuate: every event reaches the pipeline through here.
func (e *Engine) push(in Sink, ev Event) {
	e.fed = true
	in.OnEvent(ev)
	e.maybeCTI(ev.LE)
}

// anchorCTI anchors the automatic punctuation schedule at the first
// event: lastCTI becomes the last period boundary strictly before t, so
// a first event landing exactly on a boundary punctuates there (the
// caller's d >= CTIPeriod check fires immediately), and a sparse wave
// starting at a boundary is not silently un-punctuated until Flush.
func (e *Engine) anchorCTI(t Time) {
	e.lastCTI = floorDiv(t-1, e.CTIPeriod) * e.CTIPeriod
}

// maybeCTI drives the automatic punctuation schedule: the first event
// anchors it (see anchorCTI), and whenever application time crosses one
// or more period boundaries a CTI is broadcast and the schedule advances
// by whole periods (not to t itself — otherwise sparse sources whose
// events land between boundaries would drift the schedule and
// under-punctuate).
func (e *Engine) maybeCTI(t Time) {
	if e.CTIPeriod <= 0 {
		return
	}
	if e.lastCTI == MinTime {
		e.anchorCTI(t)
	}
	if d := t - e.lastCTI; d >= e.CTIPeriod {
		e.pipeline.autoAdvance(t)
		e.lastCTI += (d / e.CTIPeriod) * e.CTIPeriod
	}
}

// Advance broadcasts a CTI at time t to every source. Unlike the automatic
// schedule's it is never thinned on the way: when Advance returns, the sink
// has every result below t and then the CTI (moved only by lifetime shifts).
func (e *Engine) Advance(t Time) {
	e.fed = true
	e.pipeline.AdvanceAll(t)
	e.lastCTI = t
}

// Flush ends all inputs, draining buffered state.
func (e *Engine) Flush() {
	e.fed = true
	e.pipeline.FlushAll()
}

// Checkpoint serializes the engine's full operator state — every stateful
// operator in the compiled pipeline, in deterministic plan order, plus the
// CTI clock — into a self-contained byte snapshot. The encoding is
// deterministic: two checkpoints of the same logical state are
// byte-identical. Take checkpoints between input batches (operators are
// quiescent then); the snapshot restores into a fresh engine compiled from
// the same plan with NewEngine and Restore.
func (e *Engine) Checkpoint() []byte {
	var w SnapshotWriter
	w.Byte(ckEngine)
	w.Varint(e.lastCTI)
	w.Uvarint(uint64(len(e.pipeline.ckpts)))
	for _, ck := range e.pipeline.ckpts {
		ck.Snapshot(&w)
	}
	return w.Bytes()
}

// Restore loads a Checkpoint snapshot into this engine. The engine must be
// freshly built from the same plan and must not have processed any input;
// on error the engine must be discarded.
func (e *Engine) Restore(snap []byte) error {
	if e.fed {
		return fmt.Errorf("temporal: Restore on an engine that has processed input")
	}
	if len(snap) > 0 && snap[0] == ckEngineV1 {
		return fmt.Errorf("temporal: checkpoint is in format 1, written before the grouped-aggregate kernel; this build reads format 2 only")
	}
	r := NewSnapshotReader(snap)
	if err := r.Expect(ckEngine, "engine"); err != nil {
		return err
	}
	lastCTI := r.Varint()
	n := r.Count("pipeline operators")
	if r.Err() != nil {
		return r.Err()
	}
	if n != len(e.pipeline.ckpts) {
		return r.Failf("pipeline has %d stateful operators, snapshot has %d", len(e.pipeline.ckpts), n)
	}
	for _, ck := range e.pipeline.ckpts {
		if err := ck.Restore(r); err != nil {
			return err
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	e.lastCTI = lastCTI
	return nil
}

// Results returns the collected output, coalesced and sorted, when the
// engine was built with an internal collector. The slice is the caller's:
// later feeding does not change it.
func (e *Engine) Results() []Event {
	if e.collect == nil {
		return nil
	}
	return Coalesce(slices.Clone(e.collect.Events))
}

// RunPlan compiles and runs a plan over per-source event batches and
// returns coalesced, sorted results. It is the one-call path used
// throughout the tests and examples.
func RunPlan(plan *Plan, inputs map[string][]Event) ([]Event, error) {
	eng, err := NewEngine(plan)
	if err != nil {
		return nil, err
	}
	// One run per referenced input, in source-name order, so LE ties across
	// sources resolve the same way on every call.
	var runs []Run
	for src, evs := range inputs {
		if _, ok := eng.pipeline.inputs[src]; ok {
			runs = append(runs, Run{Source: src, Events: evs})
		}
	}
	slices.SortFunc(runs, func(a, b Run) int { return cmp.Compare(a.Source, b.Source) })
	if _, err := eng.FeedMerged(runs); err != nil {
		return nil, err
	}
	eng.Flush()
	// The engine ends here, so its collector's buffer is handed over as is.
	return Coalesce(eng.collect.Events), nil
}

// RowsToPointEvents converts rows to point events using the values of the
// given time column (paper §III-A step 4: "sets event lifetime to
// [Time, Time+δ) and the payload to the remaining columns" — we keep the
// time column in the payload, matching the unified schema of Figure 9
// where queries filter on it too).
func RowsToPointEvents(rows []Row, timeCol int) []Event {
	out := make([]Event, len(rows))
	for i, r := range rows {
		out[i] = PointEvent(r[timeCol].AsInt(), r)
	}
	return out
}
