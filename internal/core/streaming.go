package core

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
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
	outs     []*streamBuffer
	outNames []string
	results  []temporal.Event // the plan's released output, kept for Results
	cfg      Config
	machines int
	waves    int // completed punctuation waves (crash-draw input)
	flushed  bool
	// err is the first failed partition recovery, which breaks the job:
	// Feed, FeedBatch and Advance return it from then on.
	err error

	// Durable checkpointing (WithDurable): at the end of every wave the
	// job commits its full recovery state — each partition's checkpoint
	// and replay log, plus the delivered-output record — as one store
	// generation. durErr remembers the last commit failure for
	// inspection; a failed commit never fails the wave (availability over
	// durability — the previous generation stays the recovery line).
	durStore *dur.Store
	durErr   error
}

// ErrFlushed is returned by Feed, FeedBatch and Advance on a job whose
// Flush has already drained the dataflow: its engines are spent, so any
// further input would be silently lost.
var ErrFlushed = errors.New("timr: streaming job already flushed")

// CrashConfig enables deterministic partition crash injection in a
// streaming job — the streaming counterpart of Config.FailureRate for the
// batch cluster. Rate is the per-partition, per-wave probability that the
// partition is killed at a pseudo-random point of the following feed
// interval; the draw is a pure function of (fragment, partition, wave,
// Seed), mirroring Cluster.injectedFailure, so a chaotic run is exactly
// reproducible. A killed partition loses its engine and barrier buffer and
// recovers from its last checkpoint plus the replay log.
type CrashConfig struct {
	Rate float64
	Seed int64
}

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
// DefaultConfig); its Crash field enables crash injection.
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
// A job killed between commits restarts via RestoreFromDir and replays
// forward bit-identically (see internal/dur).
func WithDurable(store *dur.Store) StreamOption {
	return func(o *streamOptions) { o.store = store }
}

// NewStreamingJob fragments an annotated plan and wires the live DAG.
// sources maps scan names to their schemas; output events are delivered
// to Results after Flush (coalesced), and incrementally to the
// WithOnEvent callback if set. Remaining knobs arrive as functional
// options: WithMachines, WithConfig, WithDurable, WithOutput.
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
		j.outs = append(j.outs, &streamBuffer{
			depth:    sc.Gauge("buffer_depth"),
			released: sc.Counter("barrier_releases"),
			deliver: func(evs []temporal.Event) {
				for _, e := range evs {
					no.deliver(e)
				}
			},
		})
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
	return j, nil
}

// Advance propagates a punctuation wave through the DAG: stage by stage
// in topological order, each stage first releases everything the wave
// guarantees complete, then punctuates its engines — its partitions in
// parallel, up to GOMAXPROCS at a time — whose flushed output cascades
// into the next stage before that stage's own barrier runs.
// After the wave, every partition checkpoints its engine and resets its
// replay log — the recovery line a crashed partition rolls back to. It
// returns ErrFlushed after Flush, and the job's failure once a partition
// recovery has failed.
func (j *StreamingJob) Advance(t temporal.Time) error {
	if j.flushed {
		return ErrFlushed
	}
	if j.err != nil {
		return j.err
	}
	for _, st := range j.stages {
		st.advance(t)
		if j.err != nil {
			return j.err
		}
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

// Flush ends all inputs and drains the DAG. Flushing twice is a no-op,
// and so is flushing a broken job (Results then returns its error).
func (j *StreamingJob) Flush() {
	if j.flushed || j.err != nil {
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
	case j.err != nil:
		return nil, j.err
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

	// Routing scratch, reused across runs (barrier buffers copy event
	// structs on push, so recycling these is safe).
	one      [1]temporal.Event
	routeBuf []temporal.Event

	// Observability (nil-safe handles; see Config.Obs).
	scope      *obs.Scope   // per-operator engine metrics for this stage
	depth      *obs.Gauge   // barrier buffer depth high-watermark
	released   *obs.Counter // events released through the barrier
	crashes    *obs.Counter // injected partition crashes
	recoveries *obs.Counter // partitions rebuilt from checkpoint + replay
	ckptBytes  *obs.Counter // checkpoint bytes written at waves
	replayed   *obs.Counter // events replayed from the log after a crash
}

type streamPartition struct {
	id  int
	eng *temporal.Engine
	buf *streamBuffer // order-restoring barrier in front of the engine

	// Recovery state. ckpt is the engine snapshot taken at the last wave
	// (nil before the first); log replays every event admitted since —
	// bounded, because it resets at each wave. Between waves the engine
	// never consumes input (the barrier only releases during advance), so
	// ckpt+log reconstruct the partition exactly at any moment.
	ckpt    []byte
	log     []temporal.Event
	pushes  int // events admitted since the last wave
	crashAt int // crash when pushes reaches this; -1 = disarmed

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
		depth:      sc.Gauge("buffer_depth"),
		released:   sc.Counter("barrier_releases"),
		crashes:    sc.Counter("crashes"),
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
	p.buf = &streamBuffer{
		depth:    st.depth,
		released: st.released,
		deliver: func(evs []temporal.Event) {
			// The engine is entered once per stretch of events for the same
			// input (the routing tag, stripped here), not once per event.
			for len(evs) > 0 {
				src := routeTag(evs[0])
				n := 0
				for ; n < len(evs) && routeTag(evs[n]) == src; n++ {
					evs[n].Payload = evs[n].Payload[:len(evs[n].Payload)-1]
				}
				// Through p, not a captured engine: recovery swaps p.eng. A
				// resident run has no cursor that could fail.
				p.eng.FeedMerged([]temporal.Run{{Source: st.frag.Inputs[src].ScanName, Events: evs[:n]}})
				evs = evs[n:]
			}
		},
	}
	st.arm(p)
	return p, nil
}

// routeTag reads the input index routeBatch appended to e's payload.
func routeTag(e temporal.Event) int64 { return e.Payload[len(e.Payload)-1].AsInt() }

// route delivers one event for input src to the partition that owns it.
func (st *streamStage) route(src int, ev temporal.Event) {
	st.one[0] = ev
	st.routeBatch(src, st.one[:])
}

// routeBatch delivers a run of events for input src. Routing tags (the
// input index appended to each payload, so the barrier can feed the right
// engine source after reordering) are carved from one slab per run, and
// single-partition stages admit the whole run with one buffer append.
func (st *streamStage) routeBatch(src int, events []temporal.Event) {
	if len(events) == 0 {
		return
	}
	// Tag payloads in one slab: [payload..., Int(src)] per event. The
	// slab's lifetime matches the barrier buffer entries that reference it.
	total := 0
	for i := range events {
		total += len(events[i].Payload) + 1
	}
	slab := make(temporal.Row, total)
	tag := temporal.Int(int64(src))
	tagged := append(st.routeBuf[:0], events...)
	for i := range tagged {
		n := len(tagged[i].Payload) + 1
		row := slab[:n:n]
		slab = slab[n:]
		copy(row, tagged[i].Payload)
		row[n-1] = tag
		tagged[i].Payload = row
	}
	st.dispatch(src, tagged)
	st.routeBuf = tagged[:0]
}

// dispatch admits a tagged run: whole to a single-partition stage, event
// by event to the partition its key hashes to otherwise.
func (st *streamStage) dispatch(src int, tagged []temporal.Event) {
	if len(st.parts) == 1 {
		st.admitAll(st.parts[0], tagged)
		return
	}
	n := uint64(len(st.parts))
	for i := range tagged {
		h := temporal.HashRow(tagged[i].Payload, st.keyCols[src])
		st.admitAll(st.parts[h%n], tagged[i:i+1])
	}
}

// ---- crash injection and recovery ----

// admitAll pushes a run into a partition's barrier and replay log,
// splitting it when an armed crash comes due inside: the head is admitted,
// the partition dies mid-feed and recovers, and the tail lands on the
// rebuilt partition. A recovery that fails breaks the job.
func (st *streamStage) admitAll(p *streamPartition, evs []temporal.Event) {
	if p.crashAt >= 0 && p.pushes+len(evs) > p.crashAt {
		k := p.crashAt - p.pushes
		if k < 0 {
			k = 0
		}
		p.buf.pushAll(evs[:k])
		p.log = append(p.log, evs[:k]...)
		p.pushes += k
		if err := st.crash(p); err != nil {
			st.job.err = cmp.Or(st.job.err, err)
		}
		evs = evs[k:]
	}
	p.buf.pushAll(evs)
	p.log = append(p.log, evs...)
	p.pushes += len(evs)
}

// crash kills a partition and immediately rebuilds it from the last
// wave's checkpoint and its replay log. Because engines consume input only
// during waves (the barrier releases nothing between them), the
// checkpoint plus the log reconstruct the partition exactly, at whatever
// moment the crash fires. The checkpoint came from an engine compiled from
// this same fragment, so only a corrupted one fails to restore.
func (st *streamStage) crash(p *streamPartition) error {
	st.crashes.Inc()
	p.crashAt = -1 // disarmed until the next wave re-arms
	if err := st.rebuild(p, p.ckpt, p.log); err != nil {
		return fmt.Errorf("timr: partition %s/%d recovery failed: %w", st.frag.Name, p.id, err)
	}
	return nil
}

// rebuild is the one reconstruction of a partition, shared by crash
// recovery and durable restore: the engine and barrier contents are
// discarded, a fresh engine is restored from ckpt (nil before the first
// wave), and log becomes both the replay log and the barrier's pending
// events.
func (st *streamStage) rebuild(p *streamPartition, ckpt []byte, log []temporal.Event) error {
	eng, err := st.newEngine(p)
	if err != nil {
		return err
	}
	if len(ckpt) > 0 {
		if err := eng.Restore(ckpt); err != nil {
			return err
		}
	}
	p.eng, p.ckpt = eng, ckpt
	p.log = append(p.log[:0], log...)
	p.buf.pending = append(p.buf.pending[:0], log...)
	st.replayed.Add(int64(len(log)))
	st.recoveries.Inc()
	return nil
}

// arm draws the partition's fate for the coming feed interval. The draw
// is a pure function of (fragment, partition, wave, seed) — mirroring
// Cluster.injectedFailure — so chaotic runs are exactly reproducible.
func (st *streamStage) arm(p *streamPartition) {
	cc := st.job.cfg.Crash
	if cc.Rate <= 0 {
		p.crashAt = -1
		return
	}
	h := temporal.HashSeed
	h = temporal.String(st.frag.Name).Hash(h)
	h = temporal.Int(int64(p.id)).Hash(h)
	h = temporal.Int(int64(st.job.waves)).Hash(h)
	h = temporal.Int(cc.Seed).Hash(h)
	r := rand.New(rand.NewSource(int64(h)))
	if r.Float64() < cc.Rate {
		p.crashAt = r.Intn(64) // die this many admissions into the interval
	} else {
		p.crashAt = -1
	}
}

// advance runs this stage's barrier at time t: release buffered events
// below t into the engines, then punctuate the engines and checkpoint
// them. Their output then flows into downstream buffers before those
// stages' barriers run. Afterwards each partition resets its replay log to
// the events still pending and draws its fate for the next interval.
func (st *streamStage) advance(t temporal.Time) {
	st.wave(func(p *streamPartition) {
		p.buf.advance(t)
		p.eng.Advance(t)
		p.ckpt = p.eng.Checkpoint()
		st.ckptBytes.Add(int64(len(p.ckpt)))
	})
	for _, p := range st.parts {
		p.log = resetEvents(p.log, p.buf.pending)
		p.pushes = 0
		st.arm(p)
	}
}

func (st *streamStage) flush() {
	st.wave(func(p *streamPartition) {
		p.buf.flush()
		p.eng.Flush()
	})
}

// wave runs step on every partition of the stage, first firing any armed
// crash no feed reached (so quiet partitions crash too), on par.ForEach
// with GOMAXPROCS workers, the caller's goroutine among them; a worker's
// panic is re-raised on the caller, and a failed recovery breaks the job.
// Partitions share nothing a worker writes: each owns its engine, barrier
// and recovery state, and the engines' output is held per partition. Once
// every worker is done, the caller's goroutine routes the held output
// partition by partition in id order, event by event — the order the
// sequential walk routed it in — so every downstream admission, crash
// draw and replay log is what a single goroutine would produce.
func (st *streamStage) wave(step func(p *streamPartition)) {
	if err := par.ForEach(runtime.GOMAXPROCS(0), len(st.parts), func(i int) error {
		p := st.parts[i]
		if p.crashAt >= 0 {
			if err := st.crash(p); err != nil {
				return err
			}
		}
		step(p)
		return nil
	}); err != nil {
		st.job.err = cmp.Or(st.job.err, err)
		return
	}
	for _, p := range st.parts {
		for k := range p.outs {
			o := &p.outs[k]
			for _, e := range o.events {
				st.emit(k, e)
			}
			o.events = resetEvents(o.events, nil)
		}
	}
}

// emit routes one event of the stage's output k to its consumers, or to
// the job's output k from the final stage.
func (st *streamStage) emit(k int, e temporal.Event) {
	if st.frag.Final {
		st.job.outs[k].push(e)
		return
	}
	for _, c := range st.consumers {
		c.stage.route(c.src, e)
	}
}

// ---- order-restoring barrier ----

// streamBuffer holds events arriving from many ordered producers and
// releases them in LE order once a punctuation guarantees completeness.
type streamBuffer struct {
	pending []temporal.Event
	// deliver takes the released events, in order, and must not keep the
	// slice.
	deliver  func([]temporal.Event)
	depth    *obs.Gauge   // high-watermark of pending (nil-safe)
	released *obs.Counter // events delivered through the barrier
}

func (b *streamBuffer) push(e temporal.Event) {
	b.pending = append(b.pending, e)
	b.depth.SetMax(int64(len(b.pending)))
}

// pushAll admits a whole run with one append and one gauge update.
func (b *streamBuffer) pushAll(evs []temporal.Event) {
	b.pending = append(b.pending, evs...)
	b.depth.SetMax(int64(len(b.pending)))
}

// advance releases events with LE < t in sorted order (events at or
// beyond t may still gain earlier-arriving siblings from other upstream
// partitions, so they stay buffered).
func (b *streamBuffer) advance(t temporal.Time) {
	if len(b.pending) == 0 {
		return
	}
	// Full (LE, RE, payload) ordering keeps release order deterministic
	// regardless of the arrival interleaving across upstream partitions.
	temporal.SortEvents(b.pending)
	n := sort.Search(len(b.pending), func(i int) bool { return b.pending[i].LE >= t })
	b.released.Add(int64(n))
	b.deliver(b.pending[:n])
	b.pending = resetEvents(b.pending, b.pending[n:])
}

// resetEvents overwrites dst with src (which may be a tail of dst) and
// zeroes what dst held beyond it. Every event here holds a piece of a
// routeBatch slab, so one left in the spare capacity would keep that slab
// alive until a later wave happened to overwrite it.
func resetEvents(dst, src []temporal.Event) []temporal.Event {
	old := len(dst)
	dst = append(dst[:0], src...)
	if len(dst) < old {
		clear(dst[len(dst):old])
	}
	return dst
}

func (b *streamBuffer) flush() {
	b.advance(temporal.MaxTime)
}
