package temporal

import (
	"math/bits"
	"slices"
)

// Coalesce merges abutting events with equal payloads ([a,b)+[b,c) with
// the same row become [a,c)), a float only with the same bits: +0 never
// merges with -0. Snapshot aggregates fragmented by CTIs are restored to
// canonical form. It sorts events in place (SortEvents order)
// and otherwise leaves them intact; the result aliases events until the
// first merge — with nothing to merge it is the sorted argument itself —
// so a caller that reuses the argument's array must copy the result first.
// Lifetimes must be non-empty (RE > LE), as every engine output's is.
//
// Time decides what can merge, not the payload: a piece extends only an
// output event that ends where it starts. The sweep keeps every output
// event's right endpoint in one RE-ordered queue and at each LE looks only
// at those ending there; without abutting lifetimes, at no payload at all.
func Coalesce(events []Event) []Event {
	SortEvents(events)
	out := events[:0] // a prefix of events until the first merge copies it
	copied := false
	var ends expQueue[int] // every out event (by index) at its right endpoint
	var b boundary
	for lo, hi := 0, 0; lo < len(events); lo = hi {
		t := events[lo].LE
		for hi = lo + 1; hi < len(events) && events[hi].LE == t; hi++ {
		}
		b.ending = b.ending[:0]
		for ends.len() > 0 && ends.top().re <= t {
			if x := ends.pop(); x.re == t { // one that ended earlier abuts nothing any more
				b.ending = append(b.ending, x.v)
			}
		}
		b.index(out, hi-lo)
		for n, e := range events[lo:hi] {
			i := b.take(out, e.Payload)
			if i < 0 {
				// Before the first merge this rewrites the event with itself.
				out = append(out, e)
				i = len(out) - 1
			} else {
				if !copied {
					out = append(make([]Event, 0, len(events)), events[:lo+n]...)
					copied = true
				}
				out[i].RE = e.RE
			}
			ends.push(e.RE, i)
		}
	}
	if copied {
		// Extending an RE can only have moved events among their LE ties.
		SortEvents(out)
	}
	return out
}

// boundary is one instant of Coalesce's sweep: the output events ending
// there, to be matched against the events starting there. Each extends at
// most once (its RE moves on), among equal payloads the lowest output index
// first. A few candidates are compared pairwise (under two compares an
// event); where many pieces end and many start at once (a CTI cutting every
// live group) they are hashed, into flat arrays reused across boundaries.
type boundary struct {
	ending []int // out indexes, ascending; -1 once taken (pairwise only)
	hashed bool  // ends × starts > pairwiseMax
	table  []int // payload hash → 1 + position in ending of its chain's head
	chain  []struct {
		hash uint64
		next int // 1 + the next position, ascending; 0 ends the chain
	}
}

const pairwiseMax = 16

func (b *boundary) index(out []Event, starts int) {
	k := len(b.ending)
	if !slices.IsSorted(b.ending) { // pop order is push order, and an extended event was pushed again
		slices.Sort(b.ending)
	}
	if b.hashed = k*starts > pairwiseMax; !b.hashed {
		return
	}
	size := 1 << bits.Len(uint(2*k))
	b.table = slices.Grow(b.table[:0], size)[:size]
	clear(b.table)
	b.chain = slices.Grow(b.chain[:0], k)[:k]
	for j := k - 1; j >= 0; j-- { // descending, so every chain ascends
		h := hashKey(out[b.ending[j]].Payload)
		head := &b.table[h&uint64(size-1)]
		b.chain[j].hash, b.chain[j].next, *head = h, *head, j+1
	}
}

// take removes and returns the lowest output index ending here whose
// payload equals p with the same hash, or -1.
func (b *boundary) take(out []Event, p Row) int {
	if !b.hashed {
		for j, i := range b.ending {
			if i >= 0 && samePayload(out[i].Payload, p) {
				b.ending[j] = -1
				return i
			}
		}
		return -1
	}
	h := hashKey(p)
	for link := &b.table[h&uint64(len(b.table)-1)]; *link != 0; {
		c := &b.chain[*link-1]
		if i := b.ending[*link-1]; c.hash == h && out[i].Payload.Equal(p) { // equal hashes tell +0 from -0
			*link = c.next
			return i
		}
		link = &c.next
	}
	return -1
}

// samePayload reports whether two payloads merge at a boundary compared
// pairwise: Row.Equal, with each pair of values also of the same words.
// A hashed boundary keys payloads by hash, under which +0 and -0, though
// Equal, differ; so they must not merge here either.
func samePayload(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) || a[i].n != b[i].n {
			return false
		}
	}
	return true
}
