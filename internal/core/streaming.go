package core

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"

	"timr/internal/dur"
	"timr/internal/obs"
	"timr/internal/par"
	"timr/internal/temporal"
)

// StreamingJob executes a fragmented TiMR plan as a live dataflow — the
// paper's §VII direction: "MapReduce Online and SOPA allow efficient data
// pipelining in M-R across stages... We can transparently take advantage
// of the above proposals to directly support real-time CQ processing at
// scale." Instead of materializing intermediate datasets between stages,
// every fragment partition hosts a long-running embedded engine, and
// fragment outputs are routed (by the fragment key's hash) straight into
// the downstream fragments' engines.
//
// Ordering across the boundary is restored with punctuation barriers: a
// downstream partition buffers arrivals from its many upstream partitions
// and releases them in LE order when the punctuation wave — propagated
// through the fragment DAG in topological order — guarantees that nothing
// earlier can still arrive. The same temporal algebra that makes TiMR's
// batch execution repeatable makes this streaming execution produce
// exactly the batch results (enforced by tests).
type StreamingJob struct {
	frags  []Fragment
	stages []*streamStage
	// bySource lists, for each raw source name, the stages consuming it
	// (with per-stage input index).
	bySource map[string][]stageInput
	feeders  map[string]*Feeder
	// outs[k] is the barrier of output outNames[k], fed by output k of the
	// final stage's partitions: the plan's ("") first, then WithOutput's.
	outs     []*barrier
	outNames []string
	results  []temporal.Event // the plan's released output, kept for Results
	cfg      Config
	machines int
	waves    int // completed punctuation waves
	flushed  bool

	// Durable checkpointing (WithDurable): at the end of every wave the
	// job commits its full recovery state — each partition's checkpoint
	// and replay log, plus the delivered-output record — as one
	// store generation. durErr remembers the last commit failure for
	// inspection; a failed commit never fails the wave (availability over
	// durability — the previous generation stays the recovery line).
	// recovered is the generation the job was rebuilt from (Recovered).
	durStore  *dur.Store
	durErr    error
	recovered *dur.Generation
}

// ErrFlushed is returned by Feed, FeedBatch and Advance on a job whose
// Flush has already drained the dataflow: its engines are spent, so any
// further input would be silently lost.
var ErrFlushed = errors.New("timr: streaming job already flushed")

type stageInput struct {
	stage *streamStage
	src   int
}

// StreamOption configures NewStreamingJob, mirroring NewEngine's
// functional options.
type StreamOption func(*streamOptions)

type streamOptions struct {
	machines int
	cfg      Config
	onEvent  func(temporal.Event)
	store    *dur.Store
	named    []namedOutput
	roots    []*temporal.Plan // named[i]'s root
}

type namedOutput struct {
	name    string
	deliver func(temporal.Event)
}

// WithMachines sets the partition fan-out of hash-keyed fragments (the
// streaming counterpart of the batch cluster size). Defaults to 1.
func WithMachines(n int) StreamOption {
	return func(o *streamOptions) { o.machines = n }
}

// WithConfig replaces the whole runtime Config (defaults to
// DefaultConfig).
func WithConfig(cfg Config) StreamOption {
	return func(o *streamOptions) { o.cfg = cfg }
}

// WithOnEvent registers an incremental output callback: every result
// event is delivered as its punctuation wave releases it, in addition to
// accumulating for Results (which a job with a named output skips).
func WithOnEvent(f func(temporal.Event)) StreamOption {
	return func(o *streamOptions) { o.onEvent = f }
}

// WithOutput adds a named output: root may share nodes with the job's
// plan and runs in the same final-fragment engines, so a shared subplan
// runs once. Each wave hands deliver the output's released events in
// (LE, RE, payload) order; Watermark(name) says how far it is complete. A
// job with a named output keeps no output (its plan's events go to
// WithOnEvent only, and Results errors) and cannot be durable.
func WithOutput(name string, root *temporal.Plan, deliver func(temporal.Event)) StreamOption {
	return func(o *streamOptions) {
		o.named = append(o.named, namedOutput{name: name, deliver: deliver})
		o.roots = append(o.roots, root)
	}
}

// WithDurable attaches a durable checkpoint store: every punctuation
// wave commits the job's full recovery state as one store generation.
// NewStreamingJob first resumes from the newest intact generation the
// store holds (Recovered), so a job killed between commits is rebuilt
// over the same store and replays forward bit-identically (see
// internal/dur).
func WithDurable(store *dur.Store) StreamOption {
	return func(o *streamOptions) { o.store = store }
}

// NewStreamingJob fragments an annotated plan and wires the live DAG.
// sources maps scan names to their schemas; output events are delivered
// to Results after Flush (coalesced), and incrementally to the
// WithOnEvent callback if set. Remaining knobs arrive as functional
// options: WithMachines, WithConfig, WithDurable, WithOutput. A durable
// job resumes from its store's newest generation, if any (Recovered).
func NewStreamingJob(plan *temporal.Plan, sources map[string]*temporal.Schema, opts ...StreamOption) (*StreamingJob, error) {
	o := streamOptions{machines: 1, cfg: DefaultConfig()}
	for _, opt := range opts {
		opt(&o)
	}
	cfg, onEvent := o.cfg, o.onEvent
	if o.store != nil && len(o.named) > 0 {
		return nil, errors.New("timr: a durable streaming job has one output; WithDurable does not combine with WithOutput")
	}
	// MakeFragments wants dataset bindings; in streaming mode the
	// "dataset" names are just the source names.
	bind := make(map[string]string, len(sources))
	for name := range sources {
		bind[name] = name
	}
	frags, err := MakeFragments(plan, bind, "out", o.roots...)
	if err != nil {
		return nil, err
	}
	machines := o.machines
	if machines < 1 {
		machines = 1
	}
	j := &StreamingJob{
		frags:    frags,
		bySource: make(map[string][]stageInput),
		feeders:  make(map[string]*Feeder),
		cfg:      cfg,
		machines: machines,
		durStore: o.store,
	}
	planOut := namedOutput{deliver: func(e temporal.Event) {
		if len(o.named) == 0 { // a job with named outputs keeps none
			j.results = append(j.results, e)
		}
		if onEvent != nil {
			onEvent(e)
		}
	}}
	for _, no := range append([]namedOutput{planOut}, o.named...) {
		if slices.Contains(j.outNames, no.name) { // the plan's is ""
			return nil, fmt.Errorf("timr: streaming output name %q is empty or repeated", no.name)
		}
		sc := cfg.Obs.Child(strings.TrimSuffix("stream.out."+no.name, "."))
		j.outNames = append(j.outNames, no.name)
		j.outs = append(j.outs, newBarrier([]string{no.name}, sc, func(runs []temporal.Run) {
			for _, e := range runs[0].Events {
				no.deliver(e)
			}
		}))
	}

	// Build stages bottom-up so downstream wiring exists... fragments are
	// already in execution (bottom-up) order; build all, then wire.
	byOutput := make(map[string]*streamStage)
	for i := range frags {
		st, err := j.newStage(&frags[i])
		if err != nil {
			return nil, err
		}
		j.stages = append(j.stages, st)
		byOutput[frags[i].Output] = st
	}
	for _, st := range j.stages {
		for srcIdx, in := range st.frag.Inputs {
			if up, ok := byOutput[in.Dataset]; ok {
				up.consumers = append(up.consumers, stageInput{stage: st, src: srcIdx})
				continue
			}
			if _, ok := sources[in.ScanName]; !ok {
				return nil, fmt.Errorf("timr: streaming job has no source %q", in.ScanName)
			}
			j.bySource[in.ScanName] = append(j.bySource[in.ScanName], stageInput{stage: st, src: srcIdx})
		}
	}
	for name, ins := range j.bySource {
		j.feeders[name] = newFeeder(j, name, ins)
	}
	if j.durStore != nil {
		if err := j.recover(); err != nil {
			return nil, err
		}
	}
	return j, nil
}

// Advance propagates a punctuation wave through the DAG: stage by stage
// in topological order, each stage first releases everything the wave
// guarantees complete, then punctuates its engines — its partitions in
// parallel, up to GOMAXPROCS at a time — whose flushed output cascades
// into the next stage before that stage's own barrier runs.
// A durable job then commits the wave as one generation (WithDurable).
// It returns ErrFlushed after Flush.
func (j *StreamingJob) Advance(t temporal.Time) error {
	if j.flushed {
		return ErrFlushed
	}
	for _, st := range j.stages {
		st.advance(t)
	}
	for _, o := range j.outs {
		o.advance(t)
	}
	j.waves++
	if j.durStore != nil {
		j.commitDurable(t)
	}
	return nil
}

// Flush ends all inputs and drains the DAG. Flushing twice is a no-op.
func (j *StreamingJob) Flush() {
	if j.flushed {
		return
	}
	for _, st := range j.stages {
		st.flush()
	}
	for _, o := range j.outs {
		o.flush()
	}
	j.flushed = true
}

// Results returns the coalesced output events. Calling it before Flush is
// an error: the dataflow still holds buffered state, so any result would
// be silently partial. A job with named outputs keeps none to return.
func (j *StreamingJob) Results() ([]temporal.Event, error) {
	switch {
	case len(j.outs) > 1:
		return nil, errors.New("timr: Results of a job with named outputs: they are delivered as released, and none is kept")
	case !j.flushed:
		return nil, errors.New("timr: Results before Flush: the dataflow is still live; Flush first")
	}
	return temporal.Coalesce(append([]temporal.Event(nil), j.results...)), nil
}

// Watermark reports how far an output ("" is the plan's) is complete: the
// least, over the final fragment's partitions, of the newest punctuation
// its root emitted there (MinTime until a wave has reached them all since
// the job was built or restored). Every event of the output with LE below
// it has been delivered, and none later will be.
func (j *StreamingJob) Watermark(name string) (temporal.Time, error) {
	k := slices.Index(j.outNames, name)
	if k < 0 {
		return 0, fmt.Errorf("timr: streaming job has no output %q", name)
	}
	w := temporal.Time(temporal.MaxTime)
	for _, p := range j.stages[len(j.stages)-1].parts { // the final fragment's
		w = min(w, p.outs[k].cti)
	}
	return w, nil
}

// Partitions reports the shard count per stage, fixed when the job is
// built.
func (j *StreamingJob) Partitions() map[string]int {
	out := make(map[string]int, len(j.stages))
	for _, st := range j.stages {
		out[st.frag.Name] = len(st.parts)
	}
	return out
}

// ---- stage ----

type streamStage struct {
	frag      *Fragment
	consumers []stageInput // downstream stages reading this stage's output
	job       *StreamingJob

	// Partition engines, one per shard of a shard space fixed when the
	// stage is built: a column-keyed fragment hashes its key modulo the
	// job's machines, every other fragment (time-keyed ones included)
	// runs as one partition. Indexed by partition id.
	parts   []*streamPartition
	keyCols [][]int // per input, payload positions of the key columns

	// Observability (nil-safe handles; see Config.Obs).
	scope      *obs.Scope   // per-operator engine metrics and barrier gauges
	recoveries *obs.Counter // partitions restored from a durable generation
	ckptBytes  *obs.Counter // checkpoint bytes a durable job takes at waves
	replayed   *obs.Counter // replay-log events a restored partition holds
}

type streamPartition struct {
	id  int
	eng *temporal.Engine
	buf *barrier // order-restoring barrier in front of the engine

	// ckpt is the engine snapshot a durable job takes at every wave (nil
	// in a job without a store). Between waves the engine never consumes
	// input (the barrier only releases during advance), so the barrier's
	// logs are the replay log: ckpt plus them reconstruct the partition
	// exactly, which is what a durable generation records.
	ckpt []byte

	// outs are the engine's output sinks: the fragment root's, then in
	// the final stage one per named output.
	outs []partOut
}

// partOut is one output of a partition's engine: what the engine emitted
// on it this wave, until the caller's goroutine routes it on
// (streamStage.wave), and the newest punctuation it emitted.
type partOut struct {
	events []temporal.Event
	cti    temporal.Time
}

func (o *partOut) OnEvent(e temporal.Event) { o.events = append(o.events, e) }
func (o *partOut) OnCTI(t temporal.Time)    { o.cti = max(o.cti, t) }
func (o *partOut) OnFlush()                 {}

func (j *StreamingJob) newStage(frag *Fragment) (*streamStage, error) {
	sc := j.cfg.Obs.Child("stream." + frag.Name)
	st := &streamStage{
		frag:       frag,
		job:        j,
		keyCols:    make([][]int, len(frag.Inputs)),
		scope:      sc,
		recoveries: sc.Counter("recoveries"),
		ckptBytes:  sc.Counter("checkpoint_bytes"),
		replayed:   sc.Counter("replayed_events"),
	}
	n := 1
	if !frag.Part.Temporal && len(frag.Part.Cols) > 0 {
		n = j.machines
		for i, in := range frag.Inputs {
			st.keyCols[i] = in.Schema.Indexes(in.Part.Cols...)
		}
	}
	for id := 0; id < n; id++ {
		p, err := st.newPartition(id)
		if err != nil {
			return nil, fmt.Errorf("timr: fragment %s: %w", frag.Name, err)
		}
		st.parts = append(st.parts, p)
	}
	return st, nil
}

func (st *streamStage) newEngine(p *streamPartition) (*temporal.Engine, error) {
	opts := []temporal.Option{
		temporal.WithSink(&p.outs[0]),
		temporal.WithObs(st.scope),
		temporal.WithCTIPeriod(0), // punctuation comes from the wave, not per-feed
	}
	for i, root := range st.frag.Named {
		opts = append(opts, temporal.WithOutput(root, &p.outs[i+1]))
	}
	return temporal.NewEngine(st.frag.Root, opts...)
}

func (st *streamStage) newPartition(id int) (*streamPartition, error) {
	p := &streamPartition{id: id, outs: make([]partOut, 1+len(st.frag.Named))}
	for i := range p.outs {
		p.outs[i].cti = temporal.MinTime
	}
	eng, err := st.newEngine(p)
	if err != nil {
		return nil, err
	}
	p.eng = eng
	sources := make([]string, len(st.frag.Inputs))
	for i, in := range st.frag.Inputs {
		sources[i] = in.ScanName
	}
	p.buf = newBarrier(sources, st.scope, func(runs []temporal.Run) {
		// Through p, not a captured engine: a durable restore swaps p.eng.
		// Resident runs of sources the plan scans cannot fail.
		p.eng.FeedMerged(runs)
	})
	return p, nil
}

// admit hands a run of events for input src to the partitions that own
// them: whole to a single-partition stage's barrier, otherwise event by
// event to the barrier of the partition its key hashes to.
func (st *streamStage) admit(src int, evs []temporal.Event) {
	if len(st.parts) == 1 {
		st.parts[0].buf.push(src, evs)
		return
	}
	n := uint64(len(st.parts))
	for i := range evs {
		h := temporal.HashRow(evs[i].Payload, st.keyCols[src])
		st.parts[h%n].buf.push(src, evs[i:i+1])
	}
}

// advance runs this stage's barrier at time t: release buffered events
// below t into the engines, then punctuate the engines — and, in a
// durable job, checkpoint them for the wave's generation. Their output
// then flows into downstream buffers before those stages' barriers run.
func (st *streamStage) advance(t temporal.Time) {
	durable := st.job.durStore != nil
	st.wave(func(p *streamPartition) {
		p.buf.advance(t)
		p.eng.Advance(t)
		if durable {
			p.ckpt = p.eng.Checkpoint()
			st.ckptBytes.Add(int64(len(p.ckpt)))
		}
	})
}

func (st *streamStage) flush() {
	st.wave(func(p *streamPartition) {
		p.buf.flush()
		p.eng.Flush()
	})
}

// wave runs step on every partition of the stage on par.ForEach with
// GOMAXPROCS workers, the caller's goroutine among them; a worker's panic
// is re-raised on the caller. Partitions share nothing a worker writes:
// each owns its engine, barrier and checkpoint, and the engines' output
// is held per partition. Once every worker is done, the caller's
// goroutine hands each partition's held output, in id order, to every
// consumer as one run — to the job's outputs from the final stage — so
// every downstream admission and replay log is what a single goroutine
// would produce.
func (st *streamStage) wave(step func(p *streamPartition)) {
	par.ForEach(runtime.GOMAXPROCS(0), len(st.parts), func(i int) error {
		step(st.parts[i])
		return nil
	})
	for _, p := range st.parts {
		for k := range p.outs {
			o := &p.outs[k]
			if st.frag.Final {
				st.job.outs[k].push(0, o.events)
			}
			for _, c := range st.consumers {
				c.stage.admit(c.src, o.events)
			}
			o.events = resetEvents(o.events, nil)
		}
	}
}

// ---- order-restoring barrier ----

// barrier holds the events admitted for a partition's engine, one log
// per input, each event as it was admitted: its payload is the
// producer's row, never copied. At a wave it sorts every log and releases
// each one's prefix below the punctuation as one run. A job's output is a
// barrier with one input whose runs go to the caller instead of an
// engine.
type barrier struct {
	logs    [][]temporal.Event // per input, the replay log
	sources []string           // per input, the source its run feeds
	runs    []temporal.Run     // release scratch
	// deliver takes the released runs, in order, and must not keep them.
	deliver func([]temporal.Run)
	// depth is the high watermark of held events, folded into the gauge
	// the stage's partitions share once a wave, not at every push.
	depth    obs.Peak
	released *obs.Counter // events delivered through the barrier
}

func newBarrier(sources []string, sc *obs.Scope, deliver func([]temporal.Run)) *barrier {
	return &barrier{
		logs:     make([][]temporal.Event, len(sources)),
		sources:  sources,
		deliver:  deliver,
		depth:    sc.Gauge("buffer_depth").Peak(),
		released: sc.Counter("barrier_releases"),
	}
}

// push appends a run to input src's log.
func (b *barrier) push(src int, evs []temporal.Event) {
	b.logs[src] = append(b.logs[src], evs...)
	b.depth.Raise(int64(b.held()))
}

// held counts the events the barrier holds.
func (b *barrier) held() int {
	n := 0
	for _, log := range b.logs {
		n += len(log)
	}
	return n
}

// advance releases events with LE < t in sorted order (events at or
// beyond t may still gain earlier-arriving siblings from other upstream
// partitions, so they stay buffered).
func (b *barrier) advance(t temporal.Time) {
	b.depth.Fold()
	runs, n := b.runs[:0], 0
	for i, log := range b.logs {
		// Full (LE, RE, payload) ordering keeps release order deterministic
		// regardless of the arrival interleaving across upstream partitions.
		temporal.SortEvents(log)
		if c := below(log, t); c > 0 {
			runs = append(runs, temporal.Run{Source: b.sources[i], Events: log[:c]})
			n += c
		}
	}
	if n == 0 {
		return
	}
	// Source-name order: FeedMerged then breaks an LE tie between inputs
	// as RunPlan does.
	slices.SortFunc(runs, func(x, y temporal.Run) int { return cmp.Compare(x.Source, y.Source) })
	b.released.Add(int64(n))
	b.deliver(runs)
	clear(runs)
	b.runs = runs[:0]
	for i, log := range b.logs {
		b.logs[i] = resetEvents(log, log[below(log, t):])
	}
}

// below counts a sorted log's events with LE < t.
func below(log []temporal.Event, t temporal.Time) int {
	return sort.Search(len(log), func(i int) bool { return log[i].LE >= t })
}

// resetEvents overwrites dst with src (which may be a tail of dst) and
// zeroes what dst held beyond it. An event left in the spare capacity
// would keep its payload's row, and whatever slab that row was carved
// from, alive until a later wave happened to overwrite it.
func resetEvents(dst, src []temporal.Event) []temporal.Event {
	old := len(dst)
	dst = append(dst[:0], src...)
	if len(dst) < old {
		clear(dst[len(dst):old])
	}
	return dst
}

func (b *barrier) flush() {
	b.advance(temporal.MaxTime)
}
