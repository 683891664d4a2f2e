package temporal

import (
	"slices"
	"sort"

	"timr/internal/obs"
)

// GroupApply (paper §II-A.2, Figure 4) applies a sub-plan to every group of
// its input. It compiles once, however many keys are live (TiLT: one
// operator per query over all keys and time, not one per key): lower
// evaluates each sub-plan node for all keys at once, over keyed streams
// whose rows are key ++ the node's own output row. Stateful nodes become
// grouped kernels — one hash table of per-key slots each (op_groupedagg.go,
// op_udo.go) — or the ordinary combiners with the key prefixed to their
// join keys; stateless runs become kernels compiled over the keyed rows.
// A top-level Aggregate or UDO is the same grouped kernel with no key
// columns (compiler.buildOp): one slot, its results never staged.

// groupOutput is the downstream half of a grouped kernel: the punctuation
// clock that thins the automatic schedule, and the staging buffer that
// re-establishes global LE order across keys.
//
// Ordering: each key's results come out in nondecreasing LE, but different
// keys progress at different rates, so raw interleaving would violate the
// engine's order contract. Results are therefore staged and released in
// order up to the watermark. The watermark only advances on CTIs, which
// reach every slot first: after a broadcast at t, future output has LE >= t
// (aggregates force-close their open segment there), so releasing staged
// events below t is safe.
type groupOutput struct {
	// staged is output awaiting release: staged[:sorted] in canonical order
	// (what the last release left behind), the rest as it arrived. carry is
	// scratch for merging the two. All are reused across releases.
	staged []Event
	sorted int
	carry  []Event
	arena  rowArena
	out    Sink
	nlive  int // live slots: what a broadcast walks and a snapshot lists
	// Punctuations are a physical concern only — results are defined by
	// application time — so the engine's automatic schedule (*auto is set
	// while it punctuates) is thinned to one broadcast per gap, the
	// sub-plan's maximum extent: a broadcast visits every live slot and cuts
	// every open aggregate segment, and once per extent is the sparsest
	// schedule under which a key untouched since one broadcast has expired
	// everything by the next. A swallowed CTI delays downstream release,
	// never changes it. A punctuation the caller issued (Engine.Advance, a
	// CTI pushed into a source entry) is never swallowed: the caller may
	// act on it — a streaming stage punctuates its consumer at the same
	// instant. All kernels of a GroupApply thin to the same gap, so one fed
	// by another passes every broadcast it is given on.
	gap           Time
	auto          *bool
	lastBroadcast Time
	// Folded into the scope only if observed (opMetrics.observe).
	reclaimed, broadcasts, swallowed, frags obs.Tally
}

func (o *groupOutput) liveState() int { return o.nlive + len(o.staged) }

// stage prepends the group key to a result row and holds the event for
// release. A kernel with no key columns has one slot, which emits in LE
// order: its results go straight out, and nothing is staged.
func (o *groupOutput) stage(key Row, e Event) {
	e.Payload = append(append(o.arena.alloc(len(key) + len(e.Payload))[:0], key...), e.Payload...)
	if len(key) == 0 {
		o.out.OnEvent(e)
		return
	}
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

// punctuate closes a broadcast every slot has seen: t is already moved by
// the kernel's backward shifts.
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
func (o *groupOutput) snapshot(w *Encoder) {
	w.Varint(o.lastBroadcast)
	o.sortStaged()
	w.Events(o.staged)
}

func (o *groupOutput) restore(r *Decoder) {
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

// keying says where a stream's rows hold the group key and the payload: the
// key is row[keys[0]], row[keys[1]], …, the payload row[skip:]. A
// GroupApply's input holds its key among the payload columns; a keyed
// stream, what every lowered sub-plan node emits, leads with it.
type keying struct {
	keys []int
	skip int
}

// keyCols is cols, positions in a payload, moved behind kw leading key
// columns and preceded by them: the columns a keyed row is matched on.
func keyCols(kw int, cols []int) []int {
	out := make([]int, kw, kw+len(cols))
	for i := range out {
		out[i] = i
	}
	for _, c := range cols {
		out = append(out, kw+c)
	}
	return out
}

// groupOps is a lowered GroupApply: its stateful operators — kernels and
// the combiners between them — in sub-plan pre-order, the order its
// checkpoint section lists theirs in, and its kernels' output halves.
type groupOps struct {
	ops []interface {
		Checkpointer
		stateSizer
	}
	outs []*groupOutput
}

func (g *groupOps) liveState() (n int) {
	for _, op := range g.ops {
		n += op.liveState()
	}
	return n
}

func (g *groupOps) Snapshot(w *Encoder) {
	for _, op := range g.ops {
		op.Snapshot(w)
	}
}

func (g *groupOps) Restore(r *Decoder) error {
	for _, op := range g.ops {
		if err := op.Restore(r); err != nil {
			return err
		}
	}
	return nil
}

// keyedKernel is what every grouped kernel shares: its output half, where
// its input rows hold the key, the stateless stages around its stateful
// core, and its live keys — a slot each, in a hash table chained by key
// hash. A key without state has no slot.
type keyedKernel[S any] struct {
	groupOutput
	keying
	pre, post *fusedOp
	slots     map[uint64]*keySlot[S]
}

type keySlot[S any] struct {
	slot S
	key  Row
	hash uint64
	next *keySlot[S] // hash collision chain
}

func newKeyedKernel[S any](lw *lowering, in keying, pre, post []*Plan, out Sink) keyedKernel[S] {
	return keyedKernel[S]{
		groupOutput: groupOutput{out: out, gap: lw.gap, auto: lw.auto, lastBroadcast: MinTime},
		keying:      in,
		pre:         newFusedOp(pre, 0, nil),
		post:        newFusedOp(post, 0, nil),
		slots:       make(map[uint64]*keySlot[S]),
	}
}

// find returns the slot of in's key, nil if it has none, and the key's hash.
func (k *keyedKernel[S]) find(in Row) (*keySlot[S], uint64) {
	h := HashRow(in, k.keys)
	s := k.slots[h]
	for s != nil && !rowMatchesKey(in, k.keys, s.key) {
		s = s.next
	}
	return s, h
}

func (k *keyedKernel[S]) add(key Row, h uint64, slot S) *keySlot[S] {
	s := &keySlot[S]{slot: slot, key: key, hash: h}
	k.link(s)
	return s
}

// link puts s at the head of its hash chain.
func (k *keyedKernel[S]) link(s *keySlot[S]) {
	s.next = k.slots[s.hash]
	k.slots[s.hash] = s
	k.nlive++
}

func (k *keyedKernel[S]) drop(s *keySlot[S]) {
	switch p := k.slots[s.hash]; {
	case p != s:
		for p.next != s {
			p = p.next
		}
		p.next = s.next
	case s.next != nil:
		k.slots[s.hash] = s.next
	default:
		delete(k.slots, s.hash)
	}
	k.nlive--
	k.reclaimed.Inc()
}

// each calls fn on every live slot; fn may drop the one it is given.
func (k *keyedKernel[S]) each(fn func(*keySlot[S])) {
	for _, s := range k.slots {
		for s != nil {
			next := s.next
			fn(s)
			s = next
		}
	}
}

// snapshotSlots writes tag, the output half, and the live slots in key
// order — each its key, then what fn writes — and returns them in that order.
func (k *keyedKernel[S]) snapshotSlots(w *Encoder, tag byte, fn func(*keySlot[S])) []*keySlot[S] {
	w.Byte(tag)
	k.snapshot(w)
	slots := make([]*keySlot[S], 0, k.nlive)
	k.each(func(s *keySlot[S]) { slots = append(slots, s) })
	// Stable: NaN keys never match, so each NaN row has a slot of its own,
	// and those that tie are adjacent in one hash chain, in chain order.
	slices.SortStableFunc(slots, func(a, b *keySlot[S]) int { return compareRows(a.key, b.key) })
	w.Uvarint(uint64(len(slots)))
	for _, s := range slots {
		w.Row(s.key)
		fn(s)
	}
	return slots
}

// restoreSlots reads what snapshotSlots wrote, fn reading what it did.
func (k *keyedKernel[S]) restoreSlots(r *Decoder, tag byte, what string, fn func(*keySlot[S])) []*keySlot[S] {
	if r.Expect(tag, what) != nil {
		return nil
	}
	k.restore(r)
	slots := make([]*keySlot[S], r.Count(what+" slots"))
	for i := 0; i < len(slots) && r.Err() == nil; i++ {
		key := r.Row()
		if r.Err() == nil && len(key) != len(k.keys) {
			r.Failf("slot key has %d columns, the kernel's %d", len(key), len(k.keys))
		}
		slots[i] = &keySlot[S]{key: key, hash: hashKey(key)}
		fn(slots[i])
	}
	// Linked last first, as link prepends: the slots of one hash chain
	// keep the order they were written in.
	for i := len(slots) - 1; i >= 0; i-- {
		if slots[i] != nil {
			k.link(slots[i])
		}
	}
	return slots
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

// hashKey is HashRow's fold over the key columns, applied to an extracted
// key row: a restored slot must land in the bucket future lookups probe.
func hashKey(key Row) uint64 {
	h := HashSeed
	for _, v := range key {
		h = HashCombine(h, v.Hash(HashSeed))
	}
	return h
}

// lowering is one GroupApply being compiled: how all its kernels thin —
// to the sub-plan's extent, the automatic schedule only — and what is built.
type lowering struct {
	gap  Time
	auto *bool
	groupOps
}

// lowerGroupApply compiles GroupApply n, delivering its output to out, and
// returns its entry and its operators.
func (c *compiler) lowerGroupApply(n *Plan, out Sink) (Sink, *groupOps) {
	lw := &lowering{gap: n.Sub.MaxWindow(), auto: c.auto}
	return lw.lower(n.Sub, keying{keys: n.Inputs[0].Out.Indexes(n.Keys...)}, out), &lw.groupOps
}

func skipExchanges(n *Plan) *Plan {
	for n.Kind == OpExchange {
		n = n.Inputs[0]
	}
	return n
}

// peel returns the stateless run ending at s, first member first, and the
// node below it: s itself when s is not stateless.
func peel(s *Plan) (run []*Plan, below *Plan) {
	for below = skipExchanges(s); fusable(below); below = skipExchanges(below.Inputs[0]) {
		run = append(run, below)
	}
	slices.Reverse(run)
	return run, below
}

// lower builds the evaluation of sub-plan node s for every key at once and
// returns the sink the group input is fed to. Group-input rows are keyed
// by in; out receives key ++ s.Out rows. The distribution rules:
//
//	GroupApply(k, A ∪ B)   = GroupApply(k, A) ∪ GroupApply(k, B)
//	GroupApply(k, A ⋈c B)  = π(GroupApply(k, A) ⋈(k++c) GroupApply(k, B))
//	GroupApply(k, A ▷c B)  = GroupApply(k, A) ▷(k++c) GroupApply(k, B)
//	GroupApply(k, f(A))    = f over k ++ rows of GroupApply(k, A)      (stateless f, ToPoint)
//	GroupApply(k, GroupApply(j, A)) = GroupApply(k ++ j, A)
//
// (π drops the second copy of k; join conditions read their columns behind
// k.) An aggregate or UDO — with the stateless runs below and above it — is
// a grouped kernel, reading the group input directly or a keyed stream. A
// node two others read is lowered for each: operators are deterministic, so
// the copies agree.
func (lw *lowering) lower(s *Plan, in keying, out Sink) Sink {
	kw := len(in.keys)
	run, b := peel(s)
	switch b.Kind {
	case OpAggregate, OpUDO:
		post := 0 // Selects and Projects above the kernel run in it, on each result
		for post < len(run) && run[post].Kind != OpAlterLifetime {
			post++
		}
		if post < len(run) {
			out = newFusedOp(run[post:], kw, out)
		}
		pre, src := peel(b.Inputs[0])
		kin := in
		if src.Kind != OpGroupInput {
			kin = keying{keys: keyCols(kw, nil), skip: kw} // a keyed stream: the payload is behind the key
		}
		var k Sink
		if b.Kind == OpAggregate {
			k = newGroupedAggOp(lw, kin, pre, b, run[:post], out)
		} else {
			k = newGroupedUDOOp(lw, kin, pre, b.UDO, run[:post], out)
		}
		if src.Kind == OpGroupInput {
			return k
		}
		return lw.lower(src, in, k)
	case OpGroupInput: // no stateful node: the rows themselves, behind their key
		f := newFusedOp(run, kw, out)
		f.stages = slices.Insert(f.stages, 0, keyStage(in, b.Out.Len()))
		return f
	}
	var proj *Plan // folded into the join below, as compiler.build does
	if b.Kind == OpTemporalJoin && len(run) > 0 && pickOnly(run[0]) {
		proj, run = run[0], run[1:]
	}
	if len(run) > 0 {
		out = newFusedOp(run, kw, out)
	}
	var m *merger
	switch b.Kind {
	case OpAlterLifetime: // ToPoint: its continuation table keys on the whole row, key included
		a := &alterLifetimeOp{out: out}
		lw.ops = append(lw.ops, a)
		return lw.lower(b.Inputs[0], in, a)
	case OpGroupApply:
		x := skipExchanges(b.Inputs[0])
		inner := b.Inputs[0].Out.Indexes(b.Keys...)
		if x.Kind == OpGroupInput { // both keys are columns of the group input
			return lw.lower(b.Sub, keying{keys: append(slices.Clone(in.keys), keyCols(in.skip, inner)[in.skip:]...), skip: in.skip}, out)
		}
		return lw.lower(x, in, lw.lower(b.Sub, keying{keys: keyCols(kw, inner), skip: kw}, out))
	case OpUnion:
		u := newUnionOp(out)
		lw.ops, m = append(lw.ops, u), u.m
	case OpTemporalJoin:
		j := newJoin(b, proj, kw, out)
		lw.ops, m = append(lw.ops, j), j.m
	case OpAntiSemiJoin:
		a := newAntiSemiJoin(b, kw, out)
		lw.ops, m = append(lw.ops, a), a.m
	default:
		panic("temporal: cannot lower " + b.Kind.String() + " inside a GroupApply")
	}
	return fanOut([]Sink{lw.lower(b.Inputs[0], in, m.input(sideLeft)), lw.lower(b.Inputs[1], in, m.input(sideRight))})
}

// keyStage is the stage that puts the group key in front of a group-input
// row of width columns: key ++ row[skip:].
func keyStage(in keying, width int) fusedStage {
	p := &fusedProject{}
	for _, c := range in.keys {
		p.fns = append(p.fns, column(c))
	}
	for c := in.skip; c < in.skip+width; c++ {
		p.fns = append(p.fns, column(c))
	}
	return fusedStage{kind: fuseProject, proj: p}
}
