package temporal

import (
	"cmp"
	"fmt"
	"slices"

	"timr/internal/obs"
)

// Engine is one compiled query and its result collector: the "embedded
// DSMS server instance" that TiMR creates inside reducers (paper §III-A
// step 4) and that the real-time example drives directly. Feeding events
// (nondecreasing LE per source), CTIs and a final flush drives the query
// to completion.
//
// An Engine is single-threaded by design, like one StreamInsight instance;
// parallelism comes from running many engines over partitions (TiMR) —
// exactly the paper's architecture.
type Engine struct {
	inputs  map[string]Sink // entry sink per scanned source
	sources []string        // source names, sorted: the order broadcasts visit inputs
	// ckpts lists the stateful operators in deterministic pre-order DFS
	// plan order — the walk Checkpoint/Restore use, so a snapshot taken
	// from one compile of a plan restores into another. Stateless
	// operators simply never appear here.
	ckpts []Checkpointer
	// auto is set while the automatic schedule punctuates: the one kind
	// of CTI a GroupApply may thin (see groupOutput.gap).
	auto      bool
	meters    []*opMetrics // under WithObs; folded at the end of every entry
	collect   *Collector
	ctiPeriod Time // automatic punctuation period (WithCTIPeriod); zero disables it
	lastCTI   Time
	fed       bool // any input seen; Restore on a fed engine is an error
}

// Option configures an Engine at construction.
type Option func(*engineOptions)

type engineOptions struct {
	sink      Sink
	scope     *obs.Scope
	ctiPeriod Time
	roots     []*Plan // WithOutput roots, in option order
	outs      []Sink
}

// WithSink delivers results to a caller-supplied sink (e.g. a live
// dashboard) instead of an internal collector. Engines built with a
// custom sink return nil from Results.
func WithSink(out Sink) Option { return func(o *engineOptions) { o.sink = out } }

// WithObs enables per-operator instrumentation reporting into scope (see
// op_meter.go). A nil scope disables it. The engine runs the same
// operators either way. Engines for different partitions of the same
// fragment may share one scope: each counts into fields of its own and
// folds them into the scope's shared handles at the end of every Feed,
// FeedMerged, Advance and Flush, so counts aggregate.
func WithObs(scope *obs.Scope) Option { return func(o *engineOptions) { o.scope = scope } }

// WithCTIPeriod sets the automatic punctuation period: Feed and
// FeedMerged broadcast a CTI whenever application time crosses a period
// boundary (see maybeCTI). Zero disables automatic CTIs. The default is
// Hour.
func WithCTIPeriod(p Time) Option { return func(o *engineOptions) { o.ctiPeriod = p } }

// WithOutput compiles a second root into the engine beside its plan and
// delivers root's events and punctuation to out. Nodes root shares with
// the plan, or with an earlier output, are built once, so a subplan two
// outputs read runs once. A checkpoint covers every output's operators and
// restores only into an engine built with the same outputs.
func WithOutput(root *Plan, out Sink) Option {
	return func(o *engineOptions) {
		o.roots = append(o.roots, root)
		o.outs = append(o.outs, out)
	}
}

// NewEngine compiles the plan into an engine. With no options, results
// accumulate in an internal collector (read them back with Results);
// WithSink, WithObs and WithCTIPeriod configure the output sink,
// instrumentation and automatic punctuation, and WithOutput adds outputs.
func NewEngine(plan *Plan, opts ...Option) (*Engine, error) {
	o := engineOptions{ctiPeriod: Hour}
	for _, opt := range opts {
		opt(&o)
	}
	e := &Engine{ctiPeriod: o.ctiPeriod, lastCTI: MinTime}
	sink := o.sink
	if sink == nil {
		e.collect = &Collector{}
		sink = e.collect
	}
	if err := e.compile(append([]*Plan{plan}, o.roots...), append([]Sink{sink}, o.outs...), o.scope); err != nil {
		return nil, err
	}
	return e, nil
}

// Feed pushes one event into the named source. It panics if the plan
// scans no such source.
func (e *Engine) Feed(source string, ev Event) {
	in, ok := e.inputs[source]
	if !ok {
		panic("temporal: engine has no source " + source)
	}
	e.push(in, ev)
	e.fold()
}

// push delivers one event to a source entry, then lets the automatic
// schedule punctuate: every event reaches the query through here.
func (e *Engine) push(in Sink, ev Event) {
	e.fed = true
	in.OnEvent(ev)
	e.maybeCTI(ev.LE)
}

// anchorCTI anchors the automatic punctuation schedule at the first
// event: lastCTI becomes the last period boundary strictly before t, so
// a first event landing exactly on a boundary punctuates there (the
// caller's d >= ctiPeriod check fires immediately), and a sparse wave
// starting at a boundary is not silently un-punctuated until Flush.
func (e *Engine) anchorCTI(t Time) {
	e.lastCTI = floorDiv(t-1, e.ctiPeriod) * e.ctiPeriod
}

// maybeCTI drives the automatic punctuation schedule: the first event
// anchors it (see anchorCTI), and whenever application time crosses one
// or more period boundaries a CTI is broadcast and the schedule advances
// by whole periods (not to t itself — otherwise sparse sources whose
// events land between boundaries would drift the schedule and
// under-punctuate).
func (e *Engine) maybeCTI(t Time) {
	if e.ctiPeriod <= 0 {
		return
	}
	if e.lastCTI == MinTime {
		e.anchorCTI(t)
	}
	if d := t - e.lastCTI; d >= e.ctiPeriod {
		// Nobody waits for these punctuations: GroupApplys may thin them.
		e.auto = true
		e.broadcast(t)
		e.auto = false
		e.lastCTI += (d / e.ctiPeriod) * e.ctiPeriod
	}
}

// broadcast sends a CTI to every source entry. Sources are visited in
// name order: a merger fed by two of them forwards its punctuation, and
// releases what it buffers, in an order that depends on which side hears
// first.
func (e *Engine) broadcast(t Time) {
	for _, s := range e.sources {
		e.inputs[s].OnCTI(t)
	}
}

// Advance broadcasts a CTI at time t to every source, bounding operator
// state and unblocking merge operators. Unlike the automatic schedule's it
// is never thinned on the way: when Advance returns, the sink has every
// result below t and then the CTI (moved only by lifetime shifts).
func (e *Engine) Advance(t Time) {
	e.fed = true
	e.broadcast(t)
	e.lastCTI = t
	e.fold()
}

// Flush ends all inputs, in source-name order, draining buffered state.
func (e *Engine) Flush() {
	e.fed = true
	for _, s := range e.sources {
		e.inputs[s].OnFlush()
	}
	e.fold()
}

// Checkpoint serializes the engine's full operator state — every stateful
// operator of the compiled query, in deterministic plan order, plus the
// CTI clock — into a self-contained byte snapshot. The encoding is
// deterministic: two checkpoints of the same logical state are
// byte-identical. Take checkpoints between input batches (operators are
// quiescent then); the snapshot restores into a fresh engine compiled from
// the same plan with NewEngine and Restore.
func (e *Engine) Checkpoint() []byte {
	var w Encoder
	w.Byte(ckEngine)
	w.Varint(e.lastCTI)
	w.Uvarint(uint64(len(e.ckpts)))
	for _, ck := range e.ckpts {
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
	r := NewDecoder(snap)
	if err := r.Expect(ckEngine, "engine"); err != nil {
		return err
	}
	lastCTI := r.Varint()
	n := r.Count("pipeline operators")
	if r.Err() != nil {
		return r.Err()
	}
	if n != len(e.ckpts) {
		return r.Failf("pipeline has %d stateful operators, snapshot has %d", len(e.ckpts), n)
	}
	for _, ck := range e.ckpts {
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
		if _, ok := eng.inputs[src]; ok {
			runs = append(runs, Run{Source: src, Events: evs})
		}
	}
	slices.SortFunc(runs, func(a, b Run) int { return cmp.Compare(a.Source, b.Source) })
	if err := eng.FeedMerged(runs); err != nil {
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
