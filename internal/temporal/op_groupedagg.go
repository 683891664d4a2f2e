package temporal

import "slices"

// groupedAggOp is the GroupApply of a windowed aggregate (TiLT's grouped
// accumulate): a sub-plan branch of the shape
//
//	GroupInput → (Select|Project|window|hop|shift)* → Aggregate → (Select|Project)*
//
// evaluated for all keys at once. Where groupApplyOp compiles a
// sub-pipeline per key, this keeps one hash table of per-key sweeps and
// ONE expiration queue for all of them, runs the stateless stages as two
// shared kernels, and writes each result once, as key ++ result, into the
// staging buffer both lowerings share. Its output is groupApplyOp's for the
// same sub-plan, event for event (TestGroupApplyLoweringDifferential).
//
// A slot dies the instant its active set empties. Nothing is lost: an
// empty set's accumulator is a new accumulator (aggState.reset), and the
// start of the open segment, the only other thing a slot holds, is
// overtaken by the key's next event (closeAt moves it to max(cur, LE)). So
// there is no drain protocol, and a broadcast visits live slots only.
type groupedAggOp struct {
	groupOutput
	keys      []int    // key column positions in the input schema
	pre, post *fusedOp // stateless stages below and above the aggregate
	newState  func() aggState
	slots     map[uint64]*groupSlot // key hash → chain of live slots
	exp       expQueue[groupExp]
	res       [1]Value // the aggregate's output row, before post and key
}

// groupExp is one active event: its row and whose active set it is in.
type groupExp struct {
	row  Row
	slot *groupSlot
}

type groupSlot struct {
	aggSlot
	key  Row
	hash uint64
	next *groupSlot // hash collision chain
}

func (g *groupedAggOp) addSlot(key Row, h uint64, cur Time) *groupSlot {
	s := &groupSlot{aggSlot: aggSlot{state: g.newState(), cur: cur}, key: key, hash: h, next: g.slots[h]}
	g.slots[h] = s
	g.nlive++
	return s
}

func (g *groupedAggOp) drop(s *groupSlot) {
	switch p := g.slots[s.hash]; {
	case p != s:
		for p.next != s {
			p = p.next
		}
		p.next = s.next
	case s.next != nil:
		g.slots[s.hash] = s.next
	default:
		delete(g.slots, s.hash)
	}
	g.nlive--
	g.reclaimed.Inc()
}

// emit stages s's result over [le, re), if the stages above let it pass.
func (g *groupedAggOp) emit(s *groupSlot, le, re Time) {
	g.res[0] = s.state.Result()
	e := Event{LE: le, RE: re, Payload: g.res[:]}
	if g.post.applyRow(&e, nil) {
		g.stage(s.key, e)
	}
}

// advance processes every key's expirations at or before t.
func (g *groupedAggOp) advance(t Time) {
	for g.exp.len() > 0 && g.exp.top().re <= t {
		x := g.exp.pop()
		s := x.v.slot
		if le, ok := s.closeAt(x.re); ok {
			g.emit(s, le, x.re)
		}
		s.state.Remove(x.v.row)
		if s.active--; s.active == 0 {
			g.drop(s)
		}
	}
}

func (g *groupedAggOp) OnEvent(e Event) {
	in := e.Payload // the key columns are the input's, whatever pre projects
	if !g.pre.applyRow(&e, nil) {
		return
	}
	g.advance(e.LE)
	h := HashRow(in, g.keys)
	s := g.slots[h]
	for s != nil && !rowMatchesKey(in, g.keys, s.key) {
		s = s.next
	}
	if s == nil {
		s = g.addSlot(keyOfRow(in, g.keys), h, e.LE)
	} else if le, ok := s.closeAt(e.LE); ok {
		g.emit(s, le, e.LE)
	}
	s.state.Insert(e.Payload)
	s.active++
	g.exp.push(e.RE, groupExp{e.Payload, s})
}

func (g *groupedAggOp) OnBatch(b *Batch) { loopBatch(g, b) }

// OnCTI force-closes every live slot's open segment at the punctuation,
// as each per-key aggregate would on a broadcast.
func (g *groupedAggOp) OnCTI(t Time) {
	if g.swallow(t) {
		return
	}
	t += g.lag
	g.advance(t)
	for _, s := range g.slots {
		for ; s != nil; s = s.next {
			if le, ok := s.closeAt(t); ok {
				g.emit(s, le, t)
				g.frags.Inc()
			}
		}
	}
	g.punctuate(t)
}

func (g *groupedAggOp) OnFlush() {
	g.advance(MaxTime)
	g.flush()
}

// Snapshot serializes the shared output half, the live slots in key order
// (key, segment start, accumulator) and the expiration queue in pop
// order, each entry naming its slot by position.
func (g *groupedAggOp) Snapshot(w *SnapshotWriter) {
	w.Byte(ckGroupedAgg)
	g.snapshot(w)
	slots := make([]*groupSlot, 0, g.nlive)
	for _, s := range g.slots {
		for ; s != nil; s = s.next {
			slots = append(slots, s)
		}
	}
	slices.SortFunc(slots, func(a, b *groupSlot) int { return compareRows(a.key, b.key) })
	index := make(map[*groupSlot]int, len(slots))
	w.Uvarint(uint64(len(slots)))
	for i, s := range slots {
		index[s] = i
		w.Row(s.key)
		w.Varint(s.cur)
		s.state.snapshot(w)
	}
	exp := g.exp.ordered()
	w.Uvarint(uint64(len(exp)))
	for _, x := range exp {
		w.Varint(x.re)
		w.Uvarint(uint64(index[x.v.slot]))
		w.Row(x.v.row)
	}
}

func (g *groupedAggOp) Restore(r *SnapshotReader) error {
	if err := r.Expect(ckGroupedAgg, "grouped aggregate"); err != nil {
		return err
	}
	g.restore(r)
	slots := make([]*groupSlot, r.Count("grouped-aggregate slots"))
	for i := range slots {
		key := r.Row()
		slots[i] = g.addSlot(key, hashKey(key), r.Varint())
		if slots[i].state.restore(r); r.Err() != nil {
			return r.Err()
		}
	}
	for i, n := 0, r.Count("grouped-aggregate expirations"); i < n && r.Err() == nil; i++ {
		re, si := r.Varint(), r.Uvarint()
		if si >= uint64(len(slots)) {
			return r.Failf("expiration names slot %d of %d", si, len(slots))
		}
		slots[si].active++
		g.exp.push(re, groupExp{r.Row(), slots[si]})
	}
	for i, s := range slots {
		if s.active == 0 && r.Err() == nil {
			return r.Failf("slot %d has no open lifetime", i)
		}
	}
	return r.Err()
}

// lowerGroupApply compiles GroupApply n to grouped kernels: one for a
// sub-plan that is a single aggregate branch, and for a Union or a
// key-less, condition-less TemporalJoin of branches, the same operator
// applied to the kernels' keyed outputs —
//
//	GroupApply(k, A ∪ B) = GroupApply(k, A) ∪ GroupApply(k, B)
//	GroupApply(k, A ⋈ B) = π(GroupApply(k, A) ⋈k GroupApply(k, B))
//
// (π drops the second copy of k). The distribution is physical only: the
// logical plan keeps its one GroupApply node, whose checkpoint section and
// metrics scope are those of l, the combiners and kernels in sub-plan
// pre-order. It builds the evaluation of sub-plan node s, delivering
// key ++ s.Out rows to out, and returns its entry; ok is false — and what
// was built is garbage — when s is not a shape the kernel covers
// (groupApplyOp's comment lists what is left).
func (c *compiler) lowerGroupApply(n, s *Plan, l *subOps, out Sink) (entry Sink, ok bool) {
	for s.Kind == OpExchange { // a logical annotation, here as at the top level
		s = s.Inputs[0]
	}
	var left, right Sink
	switch {
	case s.Kind == OpUnion:
		u := newUnionOp(out)
		*l = append(*l, u)
		left, right = u.m.input(sideLeft), u.m.input(sideRight)
	case s.Kind == OpTemporalJoin && len(s.Keys) == 0 && s.JoinCond == nil:
		k := make([]int, len(n.Keys)) // both sides lead with the group key
		for i := range k {
			k[i] = i
		}
		j := newTemporalJoinOp(k, k, nil, out)
		j.rdrop = len(k)
		*l = append(*l, j)
		left, right = j.m.input(sideLeft), j.m.input(sideRight)
	default:
		pre, agg, post, matched := matchAggBranch(s)
		if !matched {
			return nil, false
		}
		g := &groupedAggOp{
			groupOutput: newGroupOutput(n.Sub.MaxWindow(), ctiLag(s), c.auto, out),
			keys:        n.Inputs[0].Out.Indexes(n.Keys...),
			pre:         newFusedOp(pre, nil),
			post:        newFusedOp(post, nil),
			newState:    aggStateOf(agg),
			slots:       make(map[uint64]*groupSlot),
		}
		*l = append(*l, g)
		return g, true
	}
	le, lok := c.lowerGroupApply(n, s.Inputs[0], l, left)
	re, rok := c.lowerGroupApply(n, s.Inputs[1], l, right)
	return fanOut([]Sink{le, re}), lok && rok
}

// matchAggBranch splits a sub-plan branch into the stateless runs below
// and above its one aggregate, seeing through Exchange annotations. It
// fails on anything else between the GroupInput leaf and root: a ToPoint,
// a UDO, a lifetime change above the aggregate, a binary operator.
func matchAggBranch(root *Plan) (pre []*Plan, agg *Plan, post []*Plan, ok bool) {
	n := root
	for ; n.Kind == OpSelect || n.Kind == OpProject || n.Kind == OpExchange; n = n.Inputs[0] {
		if n.Kind != OpExchange {
			post = append(post, n)
		}
	}
	if n.Kind != OpAggregate {
		return nil, nil, nil, false
	}
	agg = n
	for n = n.Inputs[0]; fusable(n) || n.Kind == OpExchange; n = n.Inputs[0] {
		if n.Kind != OpExchange {
			pre = append(pre, n)
		}
	}
	slices.Reverse(pre)
	slices.Reverse(post)
	return pre, agg, post, n.Kind == OpGroupInput
}
