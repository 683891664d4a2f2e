package temporal

// A user-defined function over hopping windows (paper §II-A.2
// "User-Defined Operators"). Windows end at multiples of the hop; the
// window ending at t covers payload rows of events with LE in
// [t-Window, t), and its output rows are valid for [t, t+Hop) — exactly
// the shape the BT model generator needs (§IV-B.4: "the hop size
// determines the frequency of performing LR, while window size determines
// the amount of training data").

// udoSlot is one UDO's state: the events some window still to come can
// see, in arrival order — the row order handed to the function — and where
// the next window ends.
type udoSlot struct {
	buf     []Event
	nextEnd Time
	started bool
	lastLE  Time
}

// push buffers e, first running the windows ending at or before e.LE:
// they are complete, as any later event has LE >= e.LE and so cannot fall
// in [t-Window, t) for t <= e.LE. Into an empty buffer, e sets the next
// window end to the first window containing it, skipping the empty ones
// across an idle gap: the windows that emptied the buffer ended at or
// before e.LE, so the next end is never later than that.
func (u *udoSlot) push(spec *UDOSpec, e Event, emit func(Event)) {
	u.advance(spec, e.LE, emit)
	if len(u.buf) == 0 {
		u.nextEnd = floorDiv(e.LE, spec.Hop)*spec.Hop + spec.Hop
		u.started = true
	}
	u.buf = append(u.buf, e)
	u.lastLE = e.LE
}

// advance runs the windows ending at or before upto.
func (u *udoSlot) advance(spec *UDOSpec, upto Time, emit func(Event)) {
	for u.started && u.nextEnd <= upto && len(u.buf) > 0 { // nothing until new events arrive; nextEnd reset then
		end := u.nextEnd
		start := end - spec.Window
		// Collect rows with LE in [start, end). The buffer is LE-ordered
		// and already evicted below start.
		var rows []Row
		for _, e := range u.buf {
			if e.LE >= end {
				break
			}
			if e.LE >= start {
				rows = append(rows, e.Payload)
			}
		}
		if len(rows) > 0 {
			for _, r := range spec.Fn(start, end, rows) {
				emit(Event{LE: end, RE: end + spec.Hop, Payload: r})
			}
		}
		u.nextEnd += spec.Hop
		// Evict rows no future window can see.
		low := u.nextEnd - spec.Window
		i := 0
		for i < len(u.buf) && u.buf[i].LE < low {
			i++
		}
		if i > 0 {
			n := copy(u.buf, u.buf[i:])
			clear(u.buf[n:]) // the vacated tail must not pin rows
			u.buf = u.buf[:n]
		}
	}
}

// snapshot preserves the buffer verbatim: its physical order is the row
// order handed to the user function, which must survive a restore exactly.
func (u *udoSlot) snapshot(w *Encoder) {
	w.Events(u.buf)
	w.Varint(u.nextEnd)
	w.Bool(u.started)
	w.Varint(u.lastLE)
}

func (u *udoSlot) restore(r *Decoder) {
	u.buf = r.Events()
	u.nextEnd = r.Varint()
	u.started = r.Bool()
	u.lastLE = r.Varint()
}

// groupedUDOOp is the GroupApply of a UDO branch
//
//	(Select|Project|window|hop|shift)* → Apply → (Select|Project)*
//
// for all keys at once: a udoSlot per live key, whose windows run on that
// key's own events and on broadcasts, exactly as one UDO per key would
// run them. A top-level UDO is the same kernel with no key: one slot. A
// slot dies when a broadcast empties its buffer. An emptied slot cannot
// be told apart from a new one: either way the key's next event sets the
// next window end to the first that contains it.
type groupedUDOOp struct {
	keyedKernel[udoSlot]
	spec *UDOSpec
	cur  *keySlot[udoSlot] // the slot whose windows run: emit stages under its key
	emit func(Event)
}

func newGroupedUDOOp(lw *lowering, in keying, pre []*Plan, spec *UDOSpec, post []*Plan, out Sink) *groupedUDOOp {
	k := &groupedUDOOp{keyedKernel: newKeyedKernel[udoSlot](lw, in, pre, post, out), spec: spec}
	k.emit = func(e Event) {
		if k.post.applyRow(&e) {
			k.stage(k.cur.key, e)
		}
	}
	lw.ops, lw.outs = append(lw.ops, k), append(lw.outs, &k.groupOutput)
	return k
}

func (k *groupedUDOOp) OnEvent(e Event) {
	in := e.Payload
	e.Payload = in[k.skip:]
	if !k.pre.applyRow(&e) {
		return
	}
	s, h := k.find(in)
	if s == nil {
		s = k.add(keyOfRow(in, k.keys), h, udoSlot{})
	}
	k.cur = s
	s.slot.push(k.spec, e, k.emit)
}

func (k *groupedUDOOp) OnCTI(t Time) {
	if k.swallow(t) {
		return
	}
	t = k.pre.cti(t)
	k.each(func(s *keySlot[udoSlot]) {
		k.cur = s
		if s.slot.advance(k.spec, t, k.emit); len(s.slot.buf) == 0 {
			k.drop(s)
		}
	})
	k.punctuate(t)
}

func (k *groupedUDOOp) OnFlush() {
	k.each(func(s *keySlot[udoSlot]) {
		k.cur = s
		s.slot.advance(k.spec, s.slot.lastLE+k.spec.Window+k.spec.Hop, k.emit)
	})
	k.flush()
}

// Snapshot serializes the shared output half, then the live slots in key
// order: key, then the slot.
func (k *groupedUDOOp) Snapshot(w *Encoder) {
	k.snapshotSlots(w, ckGroupedUDO, func(s *keySlot[udoSlot]) { s.slot.snapshot(w) })
}

func (k *groupedUDOOp) Restore(r *Decoder) error {
	k.restoreSlots(r, ckGroupedUDO, "grouped-UDO", func(s *keySlot[udoSlot]) {
		if s.slot.restore(r); r.Err() == nil && len(s.slot.buf) == 0 {
			r.Failf("a slot holds no rows")
		}
	})
	return r.Err()
}
