package temporal

// Binary operators (Union, TemporalJoin, AntiSemiJoin) receive two
// independently ordered inputs. The engine's order contract requires them
// to process events in a single global LE order, so each binary operator
// is built around a merger that buffers per-side events and releases them
// when the other side can no longer produce anything earlier.
//
// Ties: at equal LE the RIGHT side is processed first. This is the
// documented semantics of AntiSemiJoin (an interval opening at t
// suppresses a left point event at t, as bot elimination requires) and is
// harmless elsewhere.

const (
	sideLeft  = 0
	sideRight = 1
)

// mergedConsumer is the downstream of a merger: events arrive in global
// LE order tagged with their side.
type mergedConsumer interface {
	onMerged(side int, e Event)
	onMergedCTI(t Time)
	onMergedFlush()
}

type merger struct {
	bufs    [2][]Event // FIFO: each side arrives LE-ordered
	heads   [2]int     // consumed prefix of bufs (compacted periodically)
	wm      [2]Time    // promise: future events on side i have LE >= wm[i]
	flushed [2]bool
	lastCTI Time
	cons    mergedConsumer
}

func newMerger(cons mergedConsumer) *merger {
	return &merger{wm: [2]Time{MinTime, MinTime}, lastCTI: MinTime, cons: cons}
}

// input returns the Sink for one side of the merger.
func (m *merger) input(side int) Sink { return &mergerInput{m: m, side: side} }

type mergerInput struct {
	m    *merger
	side int
}

func (in *mergerInput) OnEvent(e Event) { in.m.push(in.side, e) }
func (in *mergerInput) OnCTI(t Time)    { in.m.cti(in.side, t) }
func (in *mergerInput) OnFlush()        { in.m.flush(in.side) }

func (m *merger) push(side int, e Event) {
	m.bufs[side] = append(m.bufs[side], e)
	if e.LE > m.wm[side] {
		m.wm[side] = e.LE
	}
	m.release()
}

func (m *merger) cti(side int, t Time) {
	if t > m.wm[side] {
		m.wm[side] = t
	}
	m.release()
	m.forwardCTI()
}

func (m *merger) flush(side int) {
	m.flushed[side] = true
	m.wm[side] = MaxTime
	m.release()
	if m.flushed[0] && m.flushed[1] {
		m.cons.onMergedFlush()
	} else {
		m.forwardCTI()
	}
}

// bound returns a lower bound on the LE of anything side i can still
// deliver: its buffered head if any, else its watermark promise.
func (m *merger) bound(side int) Time {
	if m.heads[side] < len(m.bufs[side]) {
		return m.bufs[side][m.heads[side]].LE
	}
	return m.wm[side]
}

func (m *merger) release() {
	for {
		l := m.heads[sideLeft] < len(m.bufs[sideLeft])
		r := m.heads[sideRight] < len(m.bufs[sideRight])
		switch {
		case r && m.bufs[sideRight][m.heads[sideRight]].LE <= m.bound(sideLeft):
			// Right head wins ties against the left bound.
			m.pop(sideRight)
		case l && m.bufs[sideLeft][m.heads[sideLeft]].LE < m.bound(sideRight):
			// Left head needs to be strictly earlier than anything the
			// right side can still deliver.
			m.pop(sideLeft)
		default:
			return
		}
	}
}

func (m *merger) pop(side int) {
	buf := m.bufs[side]
	e := buf[m.heads[side]]
	buf[m.heads[side]] = Event{} // the consumed prefix must not pin e's row
	m.heads[side]++
	// Compact the consumed prefix once it dominates the buffer.
	if m.heads[side] > 64 && m.heads[side]*2 >= len(buf) {
		n := copy(buf, buf[m.heads[side]:])
		clear(buf[n:]) // nor the vacated tail the rows that moved down
		m.bufs[side], m.heads[side] = buf[:n], 0
	}
	m.cons.onMerged(side, e)
}

// dead reports that e, just released from side, has ended where whatever
// the other side still delivers begins: it probes but is never stored.
func (m *merger) dead(side int, e Event) bool { return e.RE <= m.bound(1-side) }

// bufferedLen reports how many events are held awaiting the other side
// (live-state accounting for the observability layer).
func (m *merger) bufferedLen() int {
	return (len(m.bufs[sideLeft]) - m.heads[sideLeft]) +
		(len(m.bufs[sideRight]) - m.heads[sideRight])
}

// snapshot serializes watermarks, flush flags, the unconsumed FIFO
// suffix of each side (verbatim — arrival order is the merge order for
// ties within a side) and the forwarded-CTI clock.
func (m *merger) snapshot(w *Encoder) {
	for side := 0; side < 2; side++ {
		w.Varint(m.wm[side])
		w.Bool(m.flushed[side])
		w.Events(m.bufs[side][m.heads[side]:])
	}
	w.Varint(m.lastCTI)
}

func (m *merger) restore(r *Decoder) {
	for side := 0; side < 2; side++ {
		m.wm[side] = r.Varint()
		m.flushed[side] = r.Bool()
		m.bufs[side] = r.Events()
		m.heads[side] = 0
	}
	m.lastCTI = r.Varint()
}

func (m *merger) forwardCTI() {
	t := min(m.bound(sideLeft), m.bound(sideRight))
	if t > m.lastCTI && t != MaxTime {
		m.lastCTI = t
		m.cons.onMergedCTI(t)
	}
}

// ---- Union ----

// unionOp merges two identically-schemed streams (paper §II-A.2).
type unionOp struct {
	m   *merger
	out Sink
}

func newUnionOp(out Sink) *unionOp {
	u := &unionOp{out: out}
	u.m = newMerger(u)
	return u
}

func (u *unionOp) onMerged(_ int, e Event) { u.out.OnEvent(e) }
func (u *unionOp) onMergedCTI(t Time)      { u.out.OnCTI(t) }
func (u *unionOp) onMergedFlush()          { u.out.OnFlush() }
func (u *unionOp) liveState() int          { return u.m.bufferedLen() }

func (u *unionOp) Snapshot(w *Encoder) {
	w.Byte(ckUnion)
	u.m.snapshot(w)
}

func (u *unionOp) Restore(r *Decoder) error {
	if err := r.Expect(ckUnion, "union"); err != nil {
		return err
	}
	u.m.restore(r)
	return r.Err()
}

// ---- TemporalJoin ----

// synEntry is one event held in a join synopsis.
type synEntry struct {
	e Event
}

// synopsis is a hash multimap from join-key hash to the active events of
// one side (the "internal join synopsis" of §II-A.2).
type synopsis struct {
	keys    []int
	buckets map[uint64][]synEntry
	size    int
}

func newSynopsis(keys []int) *synopsis {
	return &synopsis{keys: keys, buckets: make(map[uint64][]synEntry)}
}

func (s *synopsis) insert(e Event) {
	h := HashRow(e.Payload, s.keys)
	s.buckets[h] = append(s.buckets[h], synEntry{e: e})
	s.size++
}

// probe invokes fn for every stored event whose key columns equal those of
// r (under this side's key positions vs the probing row's positions).
func (s *synopsis) probe(r Row, probeKeys []int, fn func(Event)) {
	h := HashRow(r, probeKeys)
	for _, ent := range s.buckets[h] {
		if keysMatch(ent.e.Payload, s.keys, r, probeKeys) {
			fn(ent.e)
		}
	}
}

func keysMatch(a Row, ak []int, b Row, bk []int) bool {
	for i := range ak {
		if !a[ak[i]].Equal(b[bk[i]]) {
			return false
		}
	}
	return true
}

// expire drops events whose lifetime ends at or before t: nothing arriving
// later (LE >= t) can overlap them.
func (s *synopsis) expire(t Time) {
	for h, bucket := range s.buckets {
		kept := bucket[:0]
		for _, ent := range bucket {
			if ent.e.RE > t {
				kept = append(kept, ent)
			}
		}
		clear(bucket[len(kept):]) // the vacated tail must not pin rows
		if len(kept) == 0 {
			delete(s.buckets, h)
		} else {
			s.buckets[h] = kept
		}
		s.size += len(kept) - len(bucket)
	}
}

// snapshot serializes the synopsis contents in canonical event order.
// Restore re-inserts (recomputing hashes), so bucket order may differ
// from the original arrival order — harmless, because probe matches at
// one LE differ only in emission order among equal-LE outputs, which the
// engine's order contract does not distinguish.
func (s *synopsis) snapshot(w *Encoder) {
	evs := make([]Event, 0, s.size)
	for _, bucket := range s.buckets {
		for _, ent := range bucket {
			evs = append(evs, ent.e)
		}
	}
	SortEvents(evs)
	w.Events(evs)
}

func (s *synopsis) restore(r *Decoder) {
	for _, e := range r.Events() {
		for _, k := range s.keys {
			if k >= len(e.Payload) { // a corrupt image; insert would index past the row
				r.Failf("synopsis row has %d columns, its key reads column %d", len(e.Payload), k)
				return
			}
		}
		s.insert(e)
	}
}

// temporalJoinOp is a symmetric hash join on equality keys with lifetime
// intersection and an optional residual predicate (paper §II-A.2).
type temporalJoinOp struct {
	m        *merger
	syn      [2]*synopsis
	keys     [2][]int
	cond     func(l, r Row) bool // nil = none
	picks    []joinPick          // where each output value comes from
	arena    rowArena
	out      Sink
	lastTidy Time
}

type joinPick struct{ side, col int } // one value of a join's output: column col of side's row

// newJoin builds TemporalJoin n over rows led by a kw-column group key (0
// outside a GroupApply), matched on it first, its condition reading the
// columns behind it: out gets the key, then n.Out's columns or proj's picks.
func newJoin(n, proj *Plan, kw int, out Sink) *temporalJoinOp {
	lin, rin := n.Inputs[0].Out, n.Inputs[1].Out
	j := &temporalJoinOp{keys: [2][]int{keyCols(kw, lin.Indexes(n.Keys...)), keyCols(kw, rin.Indexes(n.RightKeys...))},
		out: out, lastTidy: MinTime}
	if c := n.JoinCond; c != nil {
		j.cond = c.Make(keyCols(kw, lin.Indexes(c.LeftCols...))[kw:], keyCols(kw, rin.Indexes(c.RightCols...))[kw:])
	}
	j.picks = make([]joinPick, kw+n.Out.Len())
	for c := range j.picks { // key ++ n.Out: the left row, then the right one behind its key
		j.picks[c] = joinPick{sideLeft, c}
		if c >= kw+lin.Len() {
			j.picks[c] = joinPick{sideRight, c - lin.Len()}
		}
	}
	if all := j.picks; proj != nil {
		j.picks = all[:kw:kw]
		for _, pr := range proj.Projs {
			j.picks = append(j.picks, all[kw+n.Out.MustIndex(pr.Source)])
		}
	}
	j.syn = [2]*synopsis{newSynopsis(j.keys[sideLeft]), newSynopsis(j.keys[sideRight])}
	j.m = newMerger(j)
	return j
}

func (j *temporalJoinOp) onMerged(side int, e Event) {
	other := 1 - side
	j.syn[other].probe(e.Payload, j.keys[side], func(o Event) {
		le := max(e.LE, o.LE)
		re := min(e.RE, o.RE)
		if le >= re {
			return
		}
		var rows [2]Row
		rows[side], rows[other] = e.Payload, o.Payload
		if j.cond != nil && !j.cond(rows[sideLeft], rows[sideRight]) {
			return
		}
		row := j.arena.alloc(len(j.picks))
		for i, p := range j.picks {
			row[i] = rows[p.side][p.col]
		}
		// le == max(e.LE, o.LE) == e.LE since o arrived earlier in merged
		// order, so outputs are emitted in nondecreasing LE.
		j.out.OnEvent(Event{LE: le, RE: re, Payload: row})
	})
	if !j.m.dead(side, e) {
		j.syn[side].insert(e)
	}
}

func (j *temporalJoinOp) onMergedCTI(t Time) {
	if t > j.lastTidy {
		j.syn[0].expire(t)
		j.syn[1].expire(t)
		j.lastTidy = t
	}
	j.out.OnCTI(t)
}

func (j *temporalJoinOp) onMergedFlush() { j.out.OnFlush() }

func (j *temporalJoinOp) liveState() int {
	return j.m.bufferedLen() + j.syn[sideLeft].size + j.syn[sideRight].size
}

func (j *temporalJoinOp) Snapshot(w *Encoder) {
	w.Byte(ckJoin)
	j.m.snapshot(w)
	j.syn[sideLeft].snapshot(w)
	j.syn[sideRight].snapshot(w)
	w.Varint(j.lastTidy)
}

func (j *temporalJoinOp) Restore(r *Decoder) error {
	if err := r.Expect(ckJoin, "temporal join"); err != nil {
		return err
	}
	j.m.restore(r)
	j.syn[sideLeft].restore(r)
	j.syn[sideRight].restore(r)
	j.lastTidy = r.Varint()
	return r.Err()
}

// ---- AntiSemiJoin ----

// antiSemiJoinOp emits left point events with no matching right event
// whose lifetime contains them. The merger's right-first tie-break makes a
// right interval opening at t suppress a left point at t. Left inputs must
// be point events (the only form the paper's queries use; the general
// interval form would require lifetime subtraction).
type antiSemiJoinOp struct {
	m        *merger
	syn      *synopsis // right side
	lkey     []int
	out      Sink
	lastTidy Time
}

// newAntiSemiJoin builds AntiSemiJoin n over rows that lead with a
// kw-column group key, matched on the key first.
func newAntiSemiJoin(n *Plan, kw int, out Sink) *antiSemiJoinOp {
	a := &antiSemiJoinOp{syn: newSynopsis(keyCols(kw, n.Inputs[1].Out.Indexes(n.RightKeys...))),
		lkey: keyCols(kw, n.Inputs[0].Out.Indexes(n.Keys...)), out: out, lastTidy: MinTime}
	a.m = newMerger(a)
	return a
}

func (a *antiSemiJoinOp) onMerged(side int, e Event) {
	if side == sideRight {
		if !a.m.dead(side, e) {
			a.syn.insert(e)
		}
		return
	}
	if !e.IsPoint() {
		panic("temporal: AntiSemiJoin left input must be point events")
	}
	matched := false
	a.syn.probe(e.Payload, a.lkey, func(o Event) {
		if o.Contains(e.LE) {
			matched = true
		}
	})
	if !matched {
		a.out.OnEvent(e)
	}
}

func (a *antiSemiJoinOp) onMergedCTI(t Time) {
	if t > a.lastTidy {
		a.syn.expire(t)
		a.lastTidy = t
	}
	a.out.OnCTI(t)
}

func (a *antiSemiJoinOp) onMergedFlush() { a.out.OnFlush() }
func (a *antiSemiJoinOp) liveState() int { return a.m.bufferedLen() + a.syn.size }

func (a *antiSemiJoinOp) Snapshot(w *Encoder) {
	w.Byte(ckAntiSemi)
	a.m.snapshot(w)
	a.syn.snapshot(w)
	w.Varint(a.lastTidy)
}

func (a *antiSemiJoinOp) Restore(r *Decoder) error {
	if err := r.Expect(ckAntiSemi, "anti-semi-join"); err != nil {
		return err
	}
	a.m.restore(r)
	a.syn.restore(r)
	a.lastTidy = r.Varint()
	return r.Err()
}
