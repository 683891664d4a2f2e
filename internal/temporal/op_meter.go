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
// Metric handles are resolved once at compile time and shared by every
// engine that compiles the same plan into the same scope (one per TiMR
// partition or streaming shard), so metrics aggregate across partitions.
// Meters count into obs.Tally and obs.Peak fields their engine owns, and
// the engine folds them into the handles at the end of every Feed,
// FeedMerged, Advance and Flush (Engine.fold); groups_live is Set there.
// Partitions running at once share no cache line until they fold.

// stateSizer is implemented by every stateful operator: the number of
// events/entries/slots it retains, what the state gauge reports.
type stateSizer interface{ liveState() int }

// opMetrics is the per-compiled-operator metric bundle.
type opMetrics struct {
	scope       *obs.Scope
	in, out     obs.Tally
	ctis        obs.Tally
	state       obs.Peak
	wmLag       obs.Peak
	sizer       stateSizer     // nil for stateless operators
	groups      []*groupOutput // a GroupApply's kernels' output halves
	live        *obs.Gauge     // groups_live
	liveN       int64          // its value at the latest delivery, …
	livePending bool           // … if there was one since the last fold
	maxLE       Time           // input high watermark
}

func newOpMetrics(sc *obs.Scope) *opMetrics {
	return &opMetrics{
		scope: sc,
		in:    sc.Counter("events_in").Tally(),
		out:   sc.Counter("events_out").Tally(),
		ctis:  sc.Counter("ctis").Tally(),
		state: sc.Gauge("state").Peak(),
		wmLag: sc.Gauge("wm_lag").Peak(),
		maxLE: MinTime,
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
		o.reclaimed = m.scope.Counter("groups_reclaimed").Tally()
		o.frags = m.scope.Counter("fragments").Tally()
		if i == 0 { // the first kernel's broadcasts, to count each once
			o.broadcasts = m.scope.Counter("cti_broadcasts").Tally()
			o.swallowed = m.scope.Counter("cti_swallowed").Tally()
		}
	}
}

// fold hands what the operator counted since the last fold to the scope.
func (m *opMetrics) fold() {
	m.in.Fold()
	m.out.Fold()
	m.ctis.Fold()
	m.state.Fold()
	m.wmLag.Fold()
	if m.livePending {
		m.live.Set(m.liveN)
		m.livePending = false
	}
	for _, o := range m.groups {
		o.reclaimed.Fold()
		o.frags.Fold()
		o.broadcasts.Fold()
		o.swallowed.Fold()
	}
}

// fold folds every meter of the engine (see the file comment).
func (e *Engine) fold() {
	for _, m := range e.meters {
		m.fold()
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
		m.wmLag.Raise(int64(m.maxLE - t))
	}
}

func (m *opMetrics) pollState() {
	if m.sizer != nil {
		m.state.Raise(int64(m.sizer.liveState()))
	}
	if m.groups != nil {
		m.liveN, m.livePending = int64(liveGroups(m.groups)), true
	}
}

// meterIn sits on an operator entry: counts arrivals, tracks the input
// high watermark against punctuations, and polls live state after the
// operator has absorbed each delivery.
type meterIn struct {
	m   *opMetrics
	out Sink
}

func (s *meterIn) OnEvent(e Event) {
	s.m.in.Inc()
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

func (s *meterIn) OnFlush() { s.out.OnFlush() }

// meterOut sits on an operator (or pipeline source) output: counts events
// and propagated punctuations.
type meterOut struct {
	events, ctis *obs.Tally
	out          Sink
}

func (s *meterOut) OnEvent(e Event) {
	s.events.Inc()
	s.out.OnEvent(e)
}

func (s *meterOut) OnCTI(t Time) {
	s.ctis.Inc()
	s.out.OnCTI(t)
}

func (s *meterOut) OnFlush() { s.out.OnFlush() }

// kernelMeter is a stateless kernel's instrumentation: one opMetrics per
// member.
type kernelMeter struct {
	ops []*opMetrics
}

// reach records an event reaching member i as that member receives it
// (i = len(ops): leaving the kernel); the member before emitted it.
func (m *kernelMeter) reach(i int, le Time) {
	if i > 0 {
		m.ops[i-1].out.Inc()
	}
	if i < len(m.ops) {
		op := m.ops[i]
		op.in.Inc()
		op.maxLE = max(op.maxLE, le)
	}
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
