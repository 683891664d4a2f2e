package temporal

// Batch-at-a-time dataflow. Per-event push pays one interface dispatch
// per operator per event — the dominant cost of StreamInsight-style
// engines once the operators themselves are cheap. A Batch carries a run
// of events (nondecreasing LE, like OnEvent) plus an optional trailing
// punctuation, so a whole run crosses each operator boundary in a single
// call and the operator body runs as a tight loop.
//
// Contract (see DESIGN.md "Batch dataflow"):
//
//   - A batch is equivalent to calling OnEvent for each element of Events
//     in order, then OnCTI(CTI) if HasCTI. Batch boundaries carry no
//     semantics: re-batching a stream differently must produce the exact
//     same downstream call sequence (enforced by TestBatchEquivalence).
//   - The *Batch and its Events slice are owned by the producer and are
//     only valid for the duration of the OnBatch call. Operators reuse
//     their output buffers across batches; a consumer that retains events
//     must copy them (Event values are safe to copy; payload Rows are
//     shared and never mutated, as with OnEvent).
type Batch struct {
	Events []Event
	CTI    Time // trailing punctuation, delivered after Events
	HasCTI bool // whether CTI is meaningful
}

// BatchSink is the batch-granularity operator contract. End-of-stream
// stays a separate signal (it is not a property of any one batch).
type BatchSink interface {
	OnBatch(b *Batch)
	OnFlush()
}

// AsBatchSink returns the batch-capable view of s: s itself when it
// already implements BatchSink (all converted operators and Collector
// do), else an EventAdapter that unrolls batches into per-event calls.
// Resolve once and cache — operators do this lazily on first batch.
func AsBatchSink(s Sink) BatchSink {
	if b, ok := s.(BatchSink); ok {
		return b
	}
	return &EventAdapter{Out: s}
}

// EventAdapter drives a per-event Sink from a batch producer, preserving
// the defining equivalence: events in order, then the trailing CTI. It
// keeps every existing Sink implementation (FuncSink, custom collectors,
// the real-time example's dashboards) working unchanged on the batch path.
type EventAdapter struct {
	Out Sink
}

// OnBatch unrolls the batch into per-event calls.
func (a *EventAdapter) OnBatch(b *Batch) {
	for i := range b.Events {
		a.Out.OnEvent(b.Events[i])
	}
	if b.HasCTI {
		a.Out.OnCTI(b.CTI)
	}
}

// OnFlush forwards end-of-stream.
func (a *EventAdapter) OnFlush() { a.Out.OnFlush() }

// batchOut is the downstream half shared by batch-producing operators:
// the lazily resolved BatchSink, a reusable output event buffer, and a
// reusable Batch header. Single-goroutine, like the operators owning it.
type batchOut struct {
	sink BatchSink
	buf  []Event
	b    Batch
}

// resolve returns the batch view of out, resolving it on first use (the
// compiler wires operators with plain Sinks; most are batch-capable and
// assert through, the rest get one EventAdapter for the pipeline's life).
func (o *batchOut) resolve(out Sink) BatchSink {
	if o.sink == nil {
		o.sink = AsBatchSink(out)
	}
	return o.sink
}

// emit sends events plus an optional trailing CTI downstream as one
// batch, then recycles the buffer. events must be o.buf (possibly grown
// by appends); empty batches with no CTI are elided.
func (o *batchOut) emit(out Sink, events []Event, cti Time, hasCTI bool) {
	o.buf = events[:0]
	if len(events) == 0 && !hasCTI {
		return
	}
	o.b = Batch{Events: events, CTI: cti, HasCTI: hasCTI}
	o.resolve(out).OnBatch(&o.b)
}

// loopBatch implements OnBatch for operators whose per-event logic is
// inherently one-at-a-time (stateful sweeps, merge inputs): the loop
// still amortizes the upstream dispatch and metering to one call per
// batch, which is where the redesign's win comes from.
func loopBatch(s Sink, b *Batch) {
	for i := range b.Events {
		s.OnEvent(b.Events[i])
	}
	if b.HasCTI {
		s.OnCTI(b.CTI)
	}
}
