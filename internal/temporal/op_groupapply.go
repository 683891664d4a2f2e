package temporal

import (
	"slices"
	"sort"

	"timr/internal/obs"
)

// groupApplyOp routes each input event to a per-group instance of the
// compiled sub-plan (paper §II-A.2, Figure 4) and re-establishes global
// LE order across group outputs.
//
// Ordering: each group's sub-pipeline emits in nondecreasing LE, but
// different groups progress at different rates, so raw interleaving would
// violate the engine's order contract. Group outputs are therefore staged
// and released in order up to the watermark. The watermark only advances
// on CTIs, which are broadcast to every group instance first: after a
// group has seen OnCTI(t), every operator in this engine guarantees that
// its future output has LE >= t (aggregates force-close their open segment
// at t), so releasing staged events with LE < t is safe.
//
// State is O(live groups + staged output), not O(keys ever seen): once a
// CTI has passed an instance's last input and every operator in it is
// drained (see subOperator), nothing can tell it from one compiled for
// that key's next event, so it leaves groups — and every later broadcast
// and snapshot — and its sub-pipeline waits on a free list for a new key.
type groupApplyOp struct {
	keys    []int // key column positions in the input schema
	factory func(out Sink) (Sink, []subOperator)
	groups  map[uint64][]*groupInstance
	nlive   int              // instances currently in groups
	free    []*groupInstance // reclaimed instances awaiting a new key
	// fresh is the snapshot of a just-compiled sub-pipeline. A drained
	// operator holds nothing but clocks (sweep position, watermarks);
	// restoring fresh rewinds them: recycled is exactly newly compiled.
	fresh []byte
	rd    Decoder // reused reader over fresh
	// staged is group output awaiting release: staged[:sorted] in canonical
	// order (what the last release left behind), the rest as it arrived.
	// carry is scratch for merging the two. All are reused across releases.
	staged []Event
	sorted int
	carry  []Event
	out    Sink
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
	arena         rowArena
	// Nil unless observed (opMetrics.observe).
	live                                              *obs.Gauge
	reclaimed, recycled, broadcasts, swallowed, frags *obs.Counter
}

// subOperator is a stateful operator of a GroupApply sub-pipeline. It is
// drained when liveState() is zero: it holds no event, expiration,
// synopsis entry or buffered row, so that rewinding its clocks
// (groupApplyOp.fresh) makes it a new operator.
type subOperator interface {
	Checkpointer
	stateSizer
}

type groupInstance struct {
	sink    stageSink // carries the key column values
	entry   Sink
	ops     []subOperator // stateful ops of this instance's sub-pipeline
	lastLE  Time          // latest input event routed to this group
	lastCTI Time          // latest punctuation delivered to this group
}

func newGroupApplyOp(keys []int, factory func(out Sink) (Sink, []subOperator), maxExtent Time, auto *bool, out Sink) *groupApplyOp {
	return &groupApplyOp{
		keys:          keys,
		factory:       factory,
		groups:        make(map[uint64][]*groupInstance),
		out:           out,
		gap:           maxExtent,
		auto:          auto,
		lastBroadcast: MinTime,
	}
}

// stageSink prepends the group key to sub-plan output rows and stages them.
type stageSink struct {
	op  *groupApplyOp
	key Row
}

func (s *stageSink) OnEvent(e Event) {
	e.Payload = s.op.arena.concat(s.key, e.Payload)
	s.op.staged = append(s.op.staged, e)
}
func (s *stageSink) OnCTI(Time) {}
func (s *stageSink) OnFlush()   {}

func (g *groupApplyOp) instance(r Row) *groupInstance {
	h := HashRow(r, g.keys)
	for _, inst := range g.groups[h] {
		if rowMatchesKey(r, g.keys, inst.sink.key) {
			return inst
		}
	}
	key := make(Row, len(g.keys))
	for i, c := range g.keys {
		key[i] = r[c]
	}
	inst := g.newInstance(key)
	g.groups[h] = append(g.groups[h], inst)
	g.nlive++
	return inst
}

// newInstance binds a recycled sub-pipeline to key, or compiles one.
func (g *groupApplyOp) newInstance(key Row) *groupInstance {
	if n := len(g.free); n > 0 {
		inst := g.free[n-1]
		g.free = g.free[:n-1]
		g.rd.Reset(g.fresh)
		for _, op := range inst.ops {
			if err := op.Restore(&g.rd); err != nil {
				panic(err) // fresh was written by these operators' own Snapshot
			}
		}
		inst.sink.key = key
		inst.lastLE, inst.lastCTI = MinTime, MinTime
		g.recycled.Inc()
		return inst
	}
	inst := &groupInstance{sink: stageSink{op: g, key: key}, lastLE: MinTime, lastCTI: MinTime}
	inst.entry, inst.ops = g.factory(&inst.sink)
	if g.frags != nil {
		for _, op := range inst.ops {
			switch op := op.(type) {
			case *aggregateOp:
				op.fragments = g.frags
			case *groupApplyOp:
				op.frags = g.frags
			}
		}
	}
	if g.fresh == nil {
		var w SnapshotWriter
		for _, op := range inst.ops {
			op.Snapshot(&w)
		}
		g.fresh = w.Bytes()
	}
	return inst
}

// liveState: what every broadcast walks and every snapshot serializes.
func (g *groupApplyOp) liveState() int { return g.nlive + len(g.staged) }

// drained: a CTI has passed the last input and the sub-pipeline is empty.
func (inst *groupInstance) drained() bool {
	if inst.lastCTI <= inst.lastLE {
		return false
	}
	for _, op := range inst.ops {
		if op.liveState() != 0 {
			return false
		}
	}
	return true
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

// OnCTI broadcasts t to every live instance and reclaims those it drains.
func (g *groupApplyOp) OnCTI(t Time) {
	if g.auto != nil && *g.auto && g.lastBroadcast != MinTime && t < g.lastBroadcast+g.gap {
		g.swallowed.Inc()
		return // thinned; see the gap field
	}
	g.broadcasts.Inc()
	g.lastBroadcast = t
	for h, bucket := range g.groups {
		kept := bucket[:0]
		for _, inst := range bucket {
			inst.entry.OnCTI(t)
			inst.lastCTI = t
			if inst.drained() {
				g.free = append(g.free, inst)
			} else {
				kept = append(kept, inst)
			}
		}
		if n := len(bucket) - len(kept); n > 0 {
			g.nlive -= n
			g.reclaimed.Add(int64(n))
			if len(kept) == 0 {
				delete(g.groups, h)
			} else {
				g.groups[h] = kept
			}
		}
	}
	g.live.Set(int64(g.nlive))
	g.release(t)
	g.out.OnCTI(t)
}

func (g *groupApplyOp) OnFlush() {
	for _, bucket := range g.groups {
		for _, inst := range bucket {
			inst.entry.OnFlush()
		}
	}
	g.release(MaxTime)
	g.out.OnFlush()
}

// Snapshot serializes the broadcast clock, the staged output (put in
// canonical event order first — a release would do the same, so nothing
// observable moves), and every live group instance in key order — each
// instance being its key, its clocks, and the recursive snapshots of its
// sub-pipeline's stateful operators. The free list is not state: its
// members are fresh.
func (g *groupApplyOp) Snapshot(w *SnapshotWriter) {
	w.Byte(ckGroupApply)
	w.Varint(g.lastBroadcast)
	g.sortStaged()
	w.Events(g.staged)
	insts := make([]*groupInstance, 0, g.nlive)
	for _, bucket := range g.groups {
		insts = append(insts, bucket...)
	}
	sort.Slice(insts, func(i, j int) bool {
		return compareRows(insts[i].sink.key, insts[j].sink.key) < 0
	})
	w.Uvarint(uint64(len(insts)))
	for _, inst := range insts {
		w.Row(inst.sink.key)
		w.Varint(inst.lastLE)
		w.Varint(inst.lastCTI)
		w.Uvarint(uint64(len(inst.ops)))
		for _, op := range inst.ops {
			op.Snapshot(w)
		}
	}
}

func (g *groupApplyOp) Restore(r *SnapshotReader) error {
	if err := r.Expect(ckGroupApply, "group-apply"); err != nil {
		return err
	}
	g.lastBroadcast = r.Varint()
	g.staged = r.Events()
	g.sorted = len(g.staged)
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
		for _, op := range inst.ops {
			if err := op.Restore(r); err != nil {
				return err
			}
		}
		// Same fold as instance()'s HashRow over the key columns, applied
		// to the extracted key row — the bucket must match future lookups.
		h := HashSeed
		for _, v := range key {
			h = HashCombine(h, v.Hash(HashSeed))
		}
		g.groups[h] = append(g.groups[h], inst)
		g.nlive++
	}
	return r.Err()
}

// release forwards staged output events with LE < t (future group output
// is guaranteed to have LE >= t once all groups have seen CTI t).
func (g *groupApplyOp) release(t Time) {
	g.sortStaged()
	st := g.staged
	n := len(st)
	if t != MaxTime {
		n = sort.Search(n, func(i int) bool { return st[i].LE >= t })
	}
	for i := range st[:n] {
		g.out.OnEvent(st[i])
	}
	g.sorted = copy(st, st[n:])
	clear(st[g.sorted:]) // drop the rows the spare capacity would pin
	g.staged = st[:g.sorted]
}

// sortStaged puts staged in canonical order: the tail that arrived since
// the last release is sorted, then merged with what that release left.
func (g *groupApplyOp) sortStaged() {
	st := g.staged
	tail := st[g.sorted:]
	if len(tail) == 0 {
		return
	}
	slices.SortFunc(tail, compareEvents)
	first := tail[0]
	i := sort.Search(g.sorted, func(i int) bool { return eventBefore(first, st[i]) })
	// Merge st[i:sorted], moved out to carry, with tail into st[i:]: the
	// write position cannot pass the unread tail while carry has events
	// left, and once it has none the rest of tail is in place.
	carry := append(g.carry[:0], st[i:g.sorted]...)
	g.carry = carry
	for ; len(carry) > 0; i++ {
		if len(tail) > 0 && eventBefore(tail[0], carry[0]) {
			st[i], tail = tail[0], tail[1:]
		} else {
			st[i], carry = carry[0], carry[1:]
		}
	}
	clear(g.carry)
	g.sorted = len(st)
}
