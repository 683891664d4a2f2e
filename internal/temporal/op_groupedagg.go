package temporal

// groupedAggOp is the GroupApply of a windowed aggregate (TiLT's grouped
// accumulate): a sub-plan branch of the shape
//
//	(Select|Project|window|hop|shift)* → Aggregate → (Select|Project)*
//
// evaluated for all keys at once. It keeps one hash table of per-key sweeps
// and ONE expiration queue for all of them, runs the stateless stages as two
// shared kernels, and writes each result once, as key ++ result, into its
// staging buffer. A top-level Aggregate is the same kernel with no key
// columns and no stages: one slot, whose results go straight out.
//
// A slot dies the instant its active set empties. Nothing is lost: an
// empty set's accumulator is a new accumulator, and the start of the open
// segment, the only other thing a slot holds, is overtaken by the key's
// next event (closeAt moves it to max(cur, LE)). So a broadcast visits live
// slots only.
type groupedAggOp struct {
	keyedKernel[aggSlot]
	newState func() aggState
	exp      expQueue[groupExp]
	res      [1]Value // the aggregate's output row, before post and key
}

// groupExp is one active event: its row and whose active set it is in.
type groupExp struct {
	row  Row
	slot *keySlot[aggSlot]
}

func newGroupedAggOp(lw *lowering, in keying, pre []*Plan, agg *Plan, post []*Plan, out Sink) *groupedAggOp {
	newState, _ := aggStateOf(agg) // the kind was checked at compile (checkPlan)
	g := &groupedAggOp{keyedKernel: newKeyedKernel[aggSlot](lw, in, pre, post, out), newState: newState}
	lw.ops, lw.outs = append(lw.ops, g), append(lw.outs, &g.groupOutput)
	return g
}

// liveState counts the open lifetimes — the rows the kernel holds, one or
// more per live slot — and the staged output.
func (g *groupedAggOp) liveState() int { return g.exp.len() + len(g.staged) }

// emit stages s's result over [le, re), if the stages above let it pass.
func (g *groupedAggOp) emit(s *keySlot[aggSlot], le, re Time) {
	g.res[0] = s.slot.state.Result()
	e := Event{LE: le, RE: re, Payload: g.res[:]}
	if g.post.applyRow(&e) {
		g.stage(s.key, e)
	}
}

// advance processes every key's expirations at or before t.
func (g *groupedAggOp) advance(t Time) {
	for g.exp.len() > 0 && g.exp.top().re <= t {
		x := g.exp.pop()
		s := x.v.slot
		if le, ok := s.slot.closeAt(x.re); ok {
			g.emit(s, le, x.re)
		}
		s.slot.state.Remove(x.v.row)
		if s.slot.active--; s.slot.active == 0 {
			g.drop(s)
		}
	}
}

func (g *groupedAggOp) OnEvent(e Event) {
	in := e.Payload // the key columns are the input's, whatever pre projects
	e.Payload = in[g.skip:]
	if !g.pre.applyRow(&e) {
		return
	}
	g.advance(e.LE)
	s, h := g.find(in)
	if s == nil {
		s = g.add(keyOfRow(in, g.keys), h, aggSlot{state: g.newState(), cur: e.LE})
	} else if le, ok := s.slot.closeAt(e.LE); ok {
		g.emit(s, le, e.LE)
	}
	s.slot.state.Insert(e.Payload)
	s.slot.active++
	g.exp.push(e.RE, groupExp{e.Payload, s})
}

// OnCTI force-closes every live slot's open segment at the punctuation, as
// an aggregate per key would.
func (g *groupedAggOp) OnCTI(t Time) {
	if g.swallow(t) {
		return
	}
	t = g.pre.cti(t)
	g.advance(t)
	g.each(func(s *keySlot[aggSlot]) {
		if le, ok := s.slot.closeAt(t); ok {
			g.emit(s, le, t)
			g.frags.Inc()
		}
	})
	g.punctuate(t)
}

func (g *groupedAggOp) OnFlush() {
	g.advance(MaxTime)
	g.flush()
}

// Snapshot serializes the shared output half, the live slots in key order
// (key, segment start, accumulator) and the expiration queue in pop
// order, each entry naming its slot by position.
func (g *groupedAggOp) Snapshot(w *Encoder) {
	index := make(map[*keySlot[aggSlot]]int, g.nlive)
	for i, s := range g.snapshotSlots(w, ckGroupedAgg, func(s *keySlot[aggSlot]) {
		w.Varint(s.slot.cur)
		s.slot.state.snapshot(w)
	}) {
		index[s] = i
	}
	exp := g.exp.ordered()
	w.Uvarint(uint64(len(exp)))
	for _, x := range exp {
		w.Varint(x.re)
		w.Uvarint(uint64(index[x.v.slot]))
		w.Row(x.v.row)
	}
}

func (g *groupedAggOp) Restore(r *Decoder) error {
	slots := g.restoreSlots(r, ckGroupedAgg, "grouped-aggregate", func(s *keySlot[aggSlot]) {
		s.slot = aggSlot{state: g.newState(), cur: r.Varint()}
		s.slot.state.restore(r)
	})
	for i, n := 0, r.Count("grouped-aggregate expirations"); i < n && r.Err() == nil; i++ {
		re, si := r.Varint(), r.Uvarint()
		if si >= uint64(len(slots)) {
			return r.Failf("expiration names slot %d of %d", si, len(slots))
		}
		slots[si].slot.active++
		g.exp.push(re, groupExp{r.Row(), slots[si]})
	}
	for i, s := range slots {
		if r.Err() == nil && s.slot.active == 0 {
			return r.Failf("slot %d has no open lifetime", i)
		}
	}
	return r.Err()
}
