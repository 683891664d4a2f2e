package temporal

import (
	"fmt"

	"timr/internal/obs"
)

// Operator instrumentation. Under a scope (WithObs) every plan node
// reports per-operator metrics into an obs.Scope child named "opNN.Kind".
// A stateful operator is wrapped with two thin meter sinks — one on each
// entry, one on the output. The stateless kernel (op_fused.go) is not
// wrapped: it meters its members itself (kernelMeter), so observing a
// pipeline does not change its operators.
//
//	events_in    events delivered to the operator (both sides for binaries)
//	events_out   events the operator emitted
//	ctis         punctuations the operator propagated downstream
//	state        high watermark of live state (synopsis entries, open
//	             aggregate lifetimes, merge buffers, group count)
//	wm_lag       worst observed punctuation lag: max over CTIs of
//	             (max input LE seen) − (CTI time)
//
// GroupApply adds groups_live (its kernels' live slots after the latest
// delivery; last write wins across partitions) and groups_reclaimed (slots
// dropped once empty); and, for the cost of punctuation, cti_broadcasts
// (CTIs delivered to every live slot), cti_swallowed (automatic CTIs
// thinned away) and fragments (aggregate segments of the sub-plan, nested
// ones included, that a broadcast force-closed).
//
// Metric handles are resolved once at compile time; the cost is one
// atomic add per meter per call (per event only on the per-event path).
// Handles are shared across engine instances that compile the same plan
// into the same scope (TiMR runs one engine per partition), so
// per-operator metrics aggregate across partitions, while the
// per-instance fields (maxLE) stay engine-local and single-threaded.

// stateSizer is implemented by every stateful operator: the number of
// events/entries/slots it retains, what the state gauge reports.
type stateSizer interface{ liveState() int }

// opMetrics is the per-compiled-operator metric bundle.
type opMetrics struct {
	scope     *obs.Scope
	eventsIn  *obs.Counter
	eventsOut *obs.Counter
	ctis      *obs.Counter
	state     *obs.Gauge
	wmLag     *obs.Gauge
	sizer     stateSizer     // nil for stateless operators
	groups    []*groupOutput // a GroupApply's kernels' output halves
	live      *obs.Gauge     // groups_live
	maxLE     Time           // engine-local input high watermark
}

func newOpMetrics(sc *obs.Scope) *opMetrics {
	return &opMetrics{
		scope:     sc,
		eventsIn:  sc.Counter("events_in"),
		eventsOut: sc.Counter("events_out"),
		ctis:      sc.Counter("ctis"),
		state:     sc.Gauge("state"),
		wmLag:     sc.Gauge("wm_lag"),
		maxLE:     MinTime,
	}
}

// observe attaches the built operator's sizer and GroupApply's metrics.
func (m *opMetrics) observe(op any) {
	m.sizer, _ = op.(stateSizer)
	g, ok := op.(*groupOps)
	if !ok {
		return
	}
	m.groups = g.outs
	m.live = m.scope.Gauge("groups_live")
	for i, o := range m.groups {
		o.reclaimed = m.scope.Counter("groups_reclaimed")
		o.frags = m.scope.Counter("fragments")
		if i == 0 { // the first kernel's broadcasts, to count each once
			o.broadcasts = m.scope.Counter("cti_broadcasts")
			o.swallowed = m.scope.Counter("cti_swallowed")
		}
	}
}

func liveGroups(outs []*groupOutput) (n int) {
	for _, o := range outs {
		n += o.nlive
	}
	return n
}

// lag records how far a punctuation at t trails the operator's input.
func (m *opMetrics) lag(t Time) {
	if m.maxLE != MinTime && m.maxLE > t {
		m.wmLag.SetMax(int64(m.maxLE - t))
	}
}

func (m *opMetrics) pollState() {
	if m.sizer != nil {
		m.state.SetMax(int64(m.sizer.liveState()))
	}
	if m.groups != nil {
		m.live.Set(int64(liveGroups(m.groups)))
	}
}

// meterIn sits on an operator entry: counts arrivals, tracks the input
// high watermark against punctuations, and polls live state after the
// operator has absorbed each delivery.
type meterIn struct {
	m    *opMetrics
	out  Sink
	bout BatchSink // lazily resolved batch view of out
}

func (s *meterIn) OnEvent(e Event) {
	s.m.eventsIn.Inc()
	if e.LE > s.m.maxLE {
		s.m.maxLE = e.LE
	}
	s.out.OnEvent(e)
	s.m.pollState()
}

func (s *meterIn) OnCTI(t Time) {
	s.m.lag(t)
	s.out.OnCTI(t)
	s.m.pollState()
}

// OnBatch meters a whole run with one counter add, then forwards the
// batch intact. Input LE is nondecreasing, so the run's high watermark is
// its last event. Live state is polled once per batch rather than per
// event: the state gauge remains a high-watermark, sampled more coarsely.
func (s *meterIn) OnBatch(b *Batch) {
	if n := len(b.Events); n > 0 {
		s.m.eventsIn.Add(int64(n))
		if le := b.Events[n-1].LE; le > s.m.maxLE {
			s.m.maxLE = le
		}
	}
	if b.HasCTI {
		s.m.lag(b.CTI)
	}
	if s.bout == nil {
		s.bout = AsBatchSink(s.out)
	}
	s.bout.OnBatch(b)
	s.m.pollState()
}

func (s *meterIn) OnFlush() { s.out.OnFlush() }

// meterOut sits on an operator (or pipeline source) output: counts events
// and propagated punctuations.
type meterOut struct {
	events *obs.Counter
	ctis   *obs.Counter
	out    Sink
	bout   BatchSink // lazily resolved batch view of out
}

func (s *meterOut) OnEvent(e Event) {
	s.events.Inc()
	s.out.OnEvent(e)
}

func (s *meterOut) OnCTI(t Time) {
	s.ctis.Inc()
	s.out.OnCTI(t)
}

// OnBatch meters a whole run with one counter add per metric.
func (s *meterOut) OnBatch(b *Batch) {
	if n := len(b.Events); n > 0 {
		s.events.Add(int64(n))
	}
	if b.HasCTI {
		s.ctis.Inc()
	}
	if s.bout == nil {
		s.bout = AsBatchSink(s.out)
	}
	s.bout.OnBatch(b)
}

func (s *meterOut) OnFlush() { s.out.OnFlush() }

// kernelMeter is a stateless kernel's instrumentation: one opMetrics per
// member. The kernel's loops count into seen — plain memory — and commit
// adds the totals once per call: no more atomics per event than the two
// meter sinks a stateful operator pays.
type kernelMeter struct {
	ops []*opMetrics
	// seen[i] is what entered member i during the current call, and
	// seen[len(ops)] what left the last; zero between calls.
	seen []stageSeen
}

type stageSeen struct {
	n  int64
	le Time // LE of the last event counted, as the member received it
}

// scratch returns seen, or nil for an unobserved kernel's nil meter.
func (m *kernelMeter) scratch() []stageSeen {
	if m == nil {
		return nil
	}
	return m.seen
}

func (m *kernelMeter) commit() {
	if m == nil {
		return
	}
	for i, op := range m.ops {
		if s := m.seen[i]; s.n > 0 {
			op.eventsIn.Add(s.n)
			if s.le > op.maxLE {
				op.maxLE = s.le
			}
		}
		if n := m.seen[i+1].n; n > 0 {
			op.eventsOut.Add(n)
		}
	}
	clear(m.seen)
}

// cti records a punctuation arriving at t: every member propagates it,
// each seeing it as the members before have shifted it.
func (m *kernelMeter) cti(t Time, stages []fusedStage) {
	if m == nil {
		return
	}
	for i, op := range m.ops {
		op.lag(t)
		op.ctis.Inc()
		t = stages[i].shiftCTI(t)
	}
}

// opName returns the deterministic scope name for a plan node:
// "opNN.Kind", with NN assigned by pre-order DFS from the root (root is
// op00). Determinism matters: snapshots from different runs of the same
// plan must line up row for row.
func (c *compiler) opName(n *Plan) string {
	return fmt.Sprintf("op%02d.%s", c.ids[n], n.Kind.String())
}
