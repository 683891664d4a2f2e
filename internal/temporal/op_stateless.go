package temporal

import "sort"

// The plumbing operators around the stateless kernel (op_fused.go):
// multicast and ToPoint.

// multicast fans one ordered stream out to several downstream sinks.
type multicast struct {
	outs []Sink
}

func (m *multicast) OnEvent(e Event) {
	// The payload slice is shared across branches; operators never mutate
	// input payloads in place, so sharing is safe and allocation-free.
	for _, o := range m.outs {
		o.OnEvent(e)
	}
}

func (m *multicast) OnCTI(t Time) {
	for _, o := range m.outs {
		o.OnCTI(t)
	}
}

func (m *multicast) OnFlush() {
	for _, o := range m.outs {
		o.OnFlush()
	}
}

// alterLifetimeOp is ToPoint: it truncates lifetimes to points, RE = LE +
// Tick. (The stateless lifetime transforms — window, hop, shift — are
// members of the stateless kernel, op_fused.go.)
//
// ToPoint is the one event-identity-sensitive transform: its output depends
// on how the input temporal relation is carved into events, and upstream
// aggregates legitimately fragment their output at punctuation
// boundaries. The operator therefore works on the *coalesced* relation:
// an event that merely continues a previous one (abutting lifetime, equal
// payload) produces no new point. This keeps results independent of
// punctuation rate — the repeatability property the whole system leans on.
type alterLifetimeOp struct {
	out Sink
	// continuation-suppression state
	pending  map[uint64][]pointPending
	npending int // live entries across pending buckets
}

type pointPending struct {
	re      Time
	payload Row
}

func (a *alterLifetimeOp) OnEvent(e Event) {
	if !a.isContinuation(&e) {
		e.RE = e.LE + Tick
		a.out.OnEvent(e)
	}
}

// isContinuation records e's lifetime and reports whether it extends a
// previously seen event (in which case ToPoint already emitted its point).
func (a *alterLifetimeOp) isContinuation(e *Event) bool {
	if a.pending == nil {
		a.pending = make(map[uint64][]pointPending)
	}
	h := hashKey(e.Payload)
	bucket := a.pending[h]
	kept := bucket[:0]
	found := false
	for i := range bucket {
		p := bucket[i]
		if !found && p.re == e.LE && p.payload.Equal(e.Payload) {
			// Extend instead of re-emitting.
			p.re = e.RE
			found = true
		}
		if p.re >= e.LE { // can still abut a future event (LE ordered)
			kept = append(kept, p)
		}
	}
	clear(bucket[len(kept):]) // the vacated tail must not pin rows
	if !found {
		kept = append(kept, pointPending{re: e.RE, payload: e.Payload})
	}
	a.npending += len(kept) - len(bucket)
	if len(kept) == 0 {
		delete(a.pending, h)
	} else {
		a.pending[h] = kept
	}
	return found
}

// expirePending drops the continuation candidates a CTI at t retires:
// later events have LE >= t and can only abut a lifetime ending at or
// after t. Without it the table would keep a key that went quiet forever.
func (a *alterLifetimeOp) expirePending(t Time) {
	if a.npending == 0 {
		return
	}
	for h, bucket := range a.pending {
		kept := bucket[:0]
		for _, p := range bucket {
			if p.re >= t {
				kept = append(kept, p)
			}
		}
		clear(bucket[len(kept):]) // the vacated tail must not pin rows
		a.npending -= len(bucket) - len(kept)
		if len(kept) == 0 {
			delete(a.pending, h)
		} else {
			a.pending[h] = kept
		}
	}
}

func (a *alterLifetimeOp) liveState() int { return a.npending }

// Snapshot serializes the continuation table in canonical
// (re, payload) order. Bucket-internal order is behavior-neutral: two
// entries can both match a future event only when they are identical, so
// which one gets extended is indistinguishable downstream.
func (a *alterLifetimeOp) Snapshot(w *Encoder) {
	w.Byte(ckAlterLife)
	ents := make([]pointPending, 0, a.npending)
	for _, bucket := range a.pending {
		ents = append(ents, bucket...)
	}
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].re != ents[j].re {
			return ents[i].re < ents[j].re
		}
		return compareRows(ents[i].payload, ents[j].payload) < 0
	})
	w.Uvarint(uint64(len(ents)))
	for _, p := range ents {
		w.Varint(p.re)
		w.Row(p.payload)
	}
}

func (a *alterLifetimeOp) Restore(r *Decoder) error {
	if err := r.Expect(ckAlterLife, "alter-lifetime"); err != nil {
		return err
	}
	n := r.Count("pending points")
	for i := 0; i < n && r.Err() == nil; i++ {
		re := r.Varint()
		payload := r.Row()
		if r.Err() != nil {
			break
		}
		if a.pending == nil {
			a.pending = make(map[uint64][]pointPending)
		}
		h := hashKey(payload)
		a.pending[h] = append(a.pending[h], pointPending{re: re, payload: payload})
		a.npending++
	}
	return r.Err()
}

func (a *alterLifetimeOp) OnCTI(t Time) {
	a.expirePending(t)
	a.out.OnCTI(t)
}
func (a *alterLifetimeOp) OnFlush() { a.out.OnFlush() }

// floorDiv is floor division that is correct for negative operands.
func floorDiv(a, b Time) Time {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}
