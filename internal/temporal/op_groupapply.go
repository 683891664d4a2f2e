package temporal

import (
	"container/heap"
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
// in a heap and released up to the watermark. The watermark only advances
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
	fresh  []byte
	rd     Decoder // reused reader over fresh
	staged eventHeap
	out    Sink
	// Punctuations are a physical concern only — results are defined by
	// application time — so the operator is free to thin them. It
	// broadcasts at most once per gap (an eighth of the sub-plan's maximum
	// window): long-window sub-plans would otherwise pay a full O(live
	// groups) sweep on every CTI for no cleanup benefit. Swallowed CTIs
	// delay downstream output release, never change it.
	gap           Time
	lastBroadcast Time
	arena         rowArena
	// Nil unless observed (opMetrics.observe).
	live                *obs.Gauge
	reclaimed, recycled *obs.Counter
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

func newGroupApplyOp(keys []int, factory func(out Sink) (Sink, []subOperator), maxExtent Time, out Sink) *groupApplyOp {
	return &groupApplyOp{
		keys:          keys,
		factory:       factory,
		groups:        make(map[uint64][]*groupInstance),
		out:           out,
		gap:           maxExtent / 8,
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
	heap.Push(&s.op.staged, e)
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
	if g.lastBroadcast != MinTime && t < g.lastBroadcast+g.gap {
		return // thinned; see the gap field
	}
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

// Snapshot serializes the broadcast clock, the staged output heap (in
// canonical event order; a sorted slice is a valid min-heap), and every
// live group instance in key order — each instance being its key, its
// clocks, and the recursive snapshots of its sub-pipeline's stateful
// operators. The free list is not state: its members are fresh.
func (g *groupApplyOp) Snapshot(w *SnapshotWriter) {
	w.Byte(ckGroupApply)
	w.Varint(g.lastBroadcast)
	staged := append([]Event(nil), g.staged...)
	SortEvents(staged)
	w.Events(staged)
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
	g.staged = eventHeap(r.Events())
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
	for len(g.staged) > 0 && g.staged[0].LE < t {
		g.out.OnEvent(heap.Pop(&g.staged).(Event))
	}
	if t == MaxTime {
		for len(g.staged) > 0 {
			g.out.OnEvent(heap.Pop(&g.staged).(Event))
		}
	}
}
