package temporal

import (
	"slices"
	"sort"

	"timr/internal/obs"
)

// groupOutput is the downstream half of a GroupApply, shared by both
// lowerings (groupApplyOp here, groupedAggOp in op_groupedagg.go): the
// punctuation clock that thins the automatic schedule, and the staging
// buffer that re-establishes global LE order across group outputs.
//
// Ordering: each group's results come out in nondecreasing LE, but
// different groups progress at different rates, so raw interleaving would
// violate the engine's order contract. Group outputs are therefore staged
// and released in order up to the watermark. The watermark only advances
// on CTIs, which reach every group first: after a group has seen a CTI at
// t, its future output has LE >= t+lag (aggregates force-close their open
// segment there), so releasing staged events below t+lag is safe.
type groupOutput struct {
	// staged is group output awaiting release: staged[:sorted] in canonical
	// order (what the last release left behind), the rest as it arrived.
	// carry is scratch for merging the two. All are reused across releases.
	staged []Event
	sorted int
	carry  []Event
	arena  rowArena
	out    Sink
	nlive  int // groups holding state: what a broadcast walks and a snapshot lists
	// Punctuations are a physical concern only — results are defined by
	// application time — so the engine's automatic schedule (*auto is set
	// while it punctuates) is thinned to one broadcast per gap, the
	// sub-plan's maximum extent: a broadcast visits every live group and
	// cuts every open aggregate segment, and once per extent is the
	// sparsest schedule under which a group untouched since one broadcast
	// is drained, by expiration alone, at the next. A swallowed CTI delays
	// downstream release, never changes it. A punctuation the caller
	// issued (Engine.Advance, a batch's trailing CTI) is never swallowed:
	// the caller may act on it — a streaming stage punctuates its consumer
	// at the same instant. Sub-plan operators have no auto: an enclosing
	// broadcast is their only punctuation, and it is thinned already.
	gap           Time
	auto          *bool
	lastBroadcast Time
	// lag <= 0 is where the sub-plan's backward lifetime shifts move a
	// punctuation (ctiLag): results are released, and the CTI forwarded,
	// at t+lag — what fusedOp.cti does for a top-level run.
	lag Time
	// Nil unless observed (opMetrics.observe).
	reclaimed, broadcasts, swallowed, frags *obs.Counter
}

func newGroupOutput(gap, lag Time, auto *bool, out Sink) groupOutput {
	return groupOutput{out: out, gap: gap, auto: auto, lastBroadcast: MinTime, lag: lag}
}

// ctiLag is the farthest a punctuation entering n's leaves is moved back on
// its way to n's output: the most negative sum of backward shifts along any
// path, nested sub-plans included.
func ctiLag(n *Plan) (lag Time) {
	for _, in := range n.Inputs {
		lag = min(lag, ctiLag(in))
	}
	if n.Kind == OpAlterLifetime && n.Mode == LifeShift {
		lag += min(n.Shift, 0)
	}
	if n.Sub != nil {
		lag += ctiLag(n.Sub)
	}
	return lag
}

func (o *groupOutput) liveState() int { return o.nlive + len(o.staged) }

// stage prepends the group key to a sub-plan output row and holds the
// event for release.
func (o *groupOutput) stage(key Row, e Event) {
	e.Payload = o.arena.concat(key, e.Payload)
	o.staged = append(o.staged, e)
}

// swallow reports whether the punctuation at t is thinned away (see gap);
// otherwise it is a broadcast and the clock moves.
func (o *groupOutput) swallow(t Time) bool {
	if o.auto != nil && *o.auto && o.lastBroadcast != MinTime && t < o.lastBroadcast+o.gap {
		o.swallowed.Inc()
		return true
	}
	o.broadcasts.Inc()
	o.lastBroadcast = t
	return false
}

// punctuate closes a broadcast every group has seen: t is already moved
// by lag.
func (o *groupOutput) punctuate(t Time) {
	o.release(t)
	o.out.OnCTI(t)
}

func (o *groupOutput) flush() {
	o.release(MaxTime)
	o.out.OnFlush()
}

// snapshot serializes the broadcast clock and the staged output, put in
// canonical event order first — a release would do the same, so nothing
// observable moves.
func (o *groupOutput) snapshot(w *SnapshotWriter) {
	w.Varint(o.lastBroadcast)
	o.sortStaged()
	w.Events(o.staged)
}

func (o *groupOutput) restore(r *SnapshotReader) {
	o.lastBroadcast = r.Varint()
	o.staged = r.Events()
	o.sorted = len(o.staged)
}

// release forwards staged output events with LE < t.
func (o *groupOutput) release(t Time) {
	o.sortStaged()
	st := o.staged
	n := len(st)
	if t != MaxTime {
		n = sort.Search(n, func(i int) bool { return st[i].LE >= t })
	}
	for i := range st[:n] {
		o.out.OnEvent(st[i])
	}
	o.sorted = copy(st, st[n:])
	clear(st[o.sorted:]) // drop the rows the spare capacity would pin
	o.staged = st[:o.sorted]
}

// sortStaged puts staged in canonical order: the tail that arrived since
// the last release is sorted, then merged with what that release left.
func (o *groupOutput) sortStaged() {
	st := o.staged
	tail := st[o.sorted:]
	if len(tail) == 0 {
		return
	}
	slices.SortFunc(tail, compareEvents)
	first := tail[0]
	i := sort.Search(o.sorted, func(i int) bool { return eventBefore(first, st[i]) })
	// Merge st[i:sorted], moved out to carry, with tail into st[i:]: the
	// write position cannot pass the unread tail while carry has events
	// left, and once it has none the rest of tail is in place.
	carry := append(o.carry[:0], st[i:o.sorted]...)
	o.carry = carry
	for ; len(carry) > 0; i++ {
		if len(tail) > 0 && eventBefore(tail[0], carry[0]) {
			st[i], tail = tail[0], tail[1:]
		} else {
			st[i], carry = carry[0], carry[1:]
		}
	}
	clear(o.carry)
	o.sorted = len(st)
}

// groupApplyOp is the generic GroupApply (paper §II-A.2, Figure 4): it
// routes each input event to a per-group instance of the compiled
// sub-plan. It runs the sub-plans the grouped kernel does not cover (a
// UDO, ToPoint, AntiSemiJoin, keyed or conditional join, nested GroupApply,
// a lifetime change above the aggregate; see lowerGroupApply).
//
// State is O(live groups + staged output), not O(keys ever seen): once a
// CTI has passed an instance's last input and every operator in it is
// drained (see subOperator), nothing can tell it from one compiled for
// that key's next event, so it leaves groups — and every later broadcast
// and snapshot.
type groupApplyOp struct {
	groupOutput
	keys   []int // key column positions in the input schema
	sub    *Plan // compiled once per live key
	groups map[uint64][]*groupInstance
}

// subOperator is a stateful operator of a GroupApply sub-pipeline. It is
// drained when liveState() is zero: it holds no event, expiration,
// synopsis entry or buffered row — only clocks its key's next event would
// move past anyway.
type subOperator interface {
	Checkpointer
	stateSizer
}

// subOps is a list of stateful operators that checkpoints, and drains, as
// one: a group instance's sub-pipeline, or a GroupApply lowered to grouped
// kernels and their combiners (lowerGroupApply).
type subOps []subOperator

// outputs lists the kernels' output halves.
func (ops subOps) outputs() (outs []*groupOutput) {
	for _, op := range ops {
		if k, ok := op.(*groupedAggOp); ok {
			outs = append(outs, &k.groupOutput)
		}
	}
	return outs
}

func (ops subOps) liveState() (n int) {
	for _, op := range ops {
		n += op.liveState()
	}
	return n
}

func (ops subOps) Snapshot(w *SnapshotWriter) {
	for _, op := range ops {
		op.Snapshot(w)
	}
}

func (ops subOps) Restore(r *SnapshotReader) error {
	for _, op := range ops {
		if err := op.Restore(r); err != nil {
			return err
		}
	}
	return nil
}

// groupInstance is one key's sub-pipeline, and the sink that stages its
// output under the key.
type groupInstance struct {
	op      *groupApplyOp
	key     Row
	entry   Sink
	ops     subOps // stateful ops of the sub-pipeline
	lastLE  Time   // latest input event routed to this group
	lastCTI Time   // latest punctuation delivered to this group
}

func (inst *groupInstance) OnEvent(e Event) { inst.op.stage(inst.key, e) }
func (inst *groupInstance) OnCTI(Time)      {}
func (inst *groupInstance) OnFlush()        {}

func newGroupApplyOp(n *Plan, auto *bool, out Sink) *groupApplyOp {
	return &groupApplyOp{
		groupOutput: newGroupOutput(n.Sub.MaxWindow(), ctiLag(n.Sub), auto, out),
		keys:        n.Inputs[0].Out.Indexes(n.Keys...),
		sub:         n.Sub,
		groups:      make(map[uint64][]*groupInstance),
	}
}

func (g *groupApplyOp) instance(r Row) *groupInstance {
	h := HashRow(r, g.keys)
	for _, inst := range g.groups[h] {
		if rowMatchesKey(r, g.keys, inst.key) {
			return inst
		}
	}
	inst := g.newInstance(keyOfRow(r, g.keys))
	g.groups[h] = append(g.groups[h], inst)
	g.nlive++
	return inst
}

// newInstance compiles the sub-pipeline for key.
func (g *groupApplyOp) newInstance(key Row) *groupInstance {
	inst := &groupInstance{op: g, key: key, lastLE: MinTime, lastCTI: MinTime}
	var err error
	if inst.entry, inst.ops, err = compileSub(g.sub, inst); err != nil {
		panic(err) // the first compile validated the plan; it cannot fail per group
	}
	if g.frags != nil { // nested aggregates count into this GroupApply's
		for _, op := range inst.ops {
			switch op := op.(type) {
			case *aggregateOp:
				op.fragments = g.frags
			case groupApply:
				for _, o := range op.outputs() {
					o.frags = g.frags
				}
			}
		}
	}
	return inst
}

func (g *groupApplyOp) outputs() []*groupOutput { return []*groupOutput{&g.groupOutput} }

// drained: a CTI has passed the last input and the sub-pipeline is empty.
func (inst *groupInstance) drained() bool {
	return inst.lastCTI > inst.lastLE && inst.ops.liveState() == 0
}

func keyOfRow(r Row, cols []int) Row {
	key := make(Row, len(cols))
	for i, c := range cols {
		key[i] = r[c]
	}
	return key
}

func rowMatchesKey(r Row, cols []int, key Row) bool {
	for i, c := range cols {
		if !r[c].Equal(key[i]) {
			return false
		}
	}
	return true
}

func (g *groupApplyOp) OnEvent(e Event) {
	inst := g.instance(e.Payload)
	if e.LE > inst.lastLE {
		inst.lastLE = e.LE
	}
	inst.entry.OnEvent(e)
}

// OnBatch consumes a whole run in one call, dispatching each event to
// its group's sub-pipeline (see loopBatch).
func (g *groupApplyOp) OnBatch(b *Batch) { loopBatch(g, b) }

// OnCTI broadcasts t to every live instance and drops those it drains.
func (g *groupApplyOp) OnCTI(t Time) {
	if g.swallow(t) {
		return
	}
	for h, bucket := range g.groups {
		kept := bucket[:0]
		for _, inst := range bucket {
			inst.entry.OnCTI(t)
			inst.lastCTI = t
			if !inst.drained() {
				kept = append(kept, inst)
			}
		}
		if n := len(bucket) - len(kept); n > 0 {
			g.nlive -= n
			g.reclaimed.Add(int64(n))
			clear(bucket[len(kept):])
			if len(kept) == 0 {
				delete(g.groups, h)
			} else {
				g.groups[h] = kept
			}
		}
	}
	g.punctuate(t + g.lag)
}

func (g *groupApplyOp) OnFlush() {
	for _, bucket := range g.groups {
		for _, inst := range bucket {
			inst.entry.OnFlush()
		}
	}
	g.flush()
}

// Snapshot serializes the shared output half, then every live group
// instance in key order — each instance being its key, its clocks, and the
// recursive snapshots of its sub-pipeline's stateful operators.
func (g *groupApplyOp) Snapshot(w *SnapshotWriter) {
	w.Byte(ckGroupApply)
	g.snapshot(w)
	insts := make([]*groupInstance, 0, g.nlive)
	for _, bucket := range g.groups {
		insts = append(insts, bucket...)
	}
	sort.Slice(insts, func(i, j int) bool {
		return compareRows(insts[i].key, insts[j].key) < 0
	})
	w.Uvarint(uint64(len(insts)))
	for _, inst := range insts {
		w.Row(inst.key)
		w.Varint(inst.lastLE)
		w.Varint(inst.lastCTI)
		w.Uvarint(uint64(len(inst.ops)))
		inst.ops.Snapshot(w)
	}
}

func (g *groupApplyOp) Restore(r *SnapshotReader) error {
	if err := r.Expect(ckGroupApply, "group-apply"); err != nil {
		return err
	}
	g.restore(r)
	n := r.Count("group instances")
	for i := 0; i < n && r.Err() == nil; i++ {
		key := r.Row()
		lastLE := r.Varint()
		lastCTI := r.Varint()
		nops := r.Count("group sub-pipeline operators")
		if r.Err() != nil {
			return r.Err()
		}
		inst := g.newInstance(key)
		inst.lastLE, inst.lastCTI = lastLE, lastCTI
		if nops != len(inst.ops) {
			return r.Failf("group sub-pipeline has %d stateful operators, snapshot has %d", len(inst.ops), nops)
		}
		if err := inst.ops.Restore(r); err != nil {
			return err
		}
		h := hashKey(key)
		g.groups[h] = append(g.groups[h], inst)
		g.nlive++
	}
	return r.Err()
}

// hashKey is HashRow's fold over the key columns, applied to an extracted
// key row: a restored group must land in the bucket future lookups probe.
func hashKey(key Row) uint64 {
	h := HashSeed
	for _, v := range key {
		h = HashCombine(h, v.Hash(HashSeed))
	}
	return h
}
