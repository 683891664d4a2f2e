package temporal

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// coalesceReference is Coalesce as it stood at commit 270cf47: two
// reflection-driven stable sorts and an unconditional copy. The rewrite
// must return the same sequence.
func coalesceReference(events []Event) []Event {
	if len(events) == 0 {
		return events
	}
	stable := func(evs []Event) {
		sort.SliceStable(evs, func(i, j int) bool { return eventBefore(evs[i], evs[j]) })
	}
	stable(events)
	out := make([]Event, 0, len(events))
	pending := make(map[uint64][]int)
	for _, e := range events {
		h := HashSeed
		for _, v := range e.Payload {
			h = v.Hash(h)
		}
		merged := false
		cand := pending[h]
		live := cand[:0]
		for _, i := range cand {
			if out[i].RE < e.LE {
				continue
			}
			live = append(live, i)
			if !merged && out[i].RE == e.LE && out[i].Payload.Equal(e.Payload) {
				out[i].RE = e.RE
				merged = true
			}
		}
		if !merged {
			out = append(out, e)
			live = append(live, len(out)-1)
		}
		if len(live) > 0 {
			pending[h] = live
		} else {
			delete(pending, h)
		}
	}
	stable(out)
	return out
}

// coalesceInput draws one input of the given shape. Every payload is its
// own allocation, so payload identity tells equal events apart.
func coalesceInput(rng *rand.Rand, shape int) []Event {
	row := func(vals ...int64) Row {
		r := make(Row, len(vals))
		for i, v := range vals {
			r[i] = Int(v)
		}
		return r
	}
	n := 1 + rng.Intn(60)
	var evs []Event
	switch shape {
	case 0: // empty
	case 1: // single
		evs = append(evs, Event{LE: 5, RE: 9, Payload: row(1)})
	case 2: // point events, unique payloads: nothing to merge
		for i := 0; i < n; i++ {
			evs = append(evs, PointEvent(Time(rng.Intn(40)), row(int64(i), int64(rng.Intn(3)))))
		}
	case 3: // aggregates fragmented at CTIs: chains of abutting pieces, few payloads
		for k := 0; k < 1+rng.Intn(4); k++ {
			t := Time(rng.Intn(10))
			for i := 0; i < n/2; i++ {
				w := Time(1 + rng.Intn(5))
				evs = append(evs, Event{LE: t, RE: t + w, Payload: row(int64(rng.Intn(3)))})
				t += w
				if rng.Intn(6) == 0 {
					t += Time(rng.Intn(3)) // sometimes a gap
				}
			}
		}
	case 4: // duplicates: the same lifetime and payload several times
		for i := 0; i < n; i++ {
			t := Time(rng.Intn(6))
			evs = append(evs, Event{LE: t, RE: t + 2, Payload: row(int64(rng.Intn(2)))})
		}
	case 5: // equal payloads with gaps and with overlaps
		for i := 0; i < n; i++ {
			t := Time(rng.Intn(30))
			evs = append(evs, Event{LE: t, RE: t + Time(1+rng.Intn(8)), Payload: row(7, int64(rng.Intn(2)))})
		}
	case 6: // equal-LE ties, payloads arriving in reverse order
		for i := 0; i < n; i++ {
			t := Time(rng.Intn(4))
			evs = append(evs, Event{LE: t, RE: t + Time(1+rng.Intn(2)), Payload: row(int64(n - i))})
		}
	case 7: // mass boundary: a CTI cuts every live group, several instants in a row
		groups, cuts := 200+rng.Intn(50), 3+rng.Intn(4)
		for c := 0; c < cuts; c++ {
			for g := 0; g < groups; g++ {
				if rng.Intn(20) == 0 {
					continue // this group has nothing in this piece: a gap in its chain
				}
				// A few groups share a payload, so equal candidates compete.
				evs = append(evs, Event{LE: Time(10 * c), RE: Time(10*c + 10), Payload: row(int64(g%(groups-5)), int64(g%3))})
			}
		}
	case 8: // right endpoints that do not follow the left ones: the queue as a heap
		t := Time(0)
		for i := 0; i < n; i++ {
			t += Time(rng.Intn(3))
			evs = append(evs, Event{LE: t, RE: t + Time(1+rng.Intn(12)), Payload: row(int64(rng.Intn(3)))})
			if rng.Intn(3) == 0 { // and something that abuts it
				last := evs[len(evs)-1]
				evs = append(evs, Event{LE: last.RE, RE: last.RE + Time(1+rng.Intn(12)), Payload: row(last.Payload[0].AsInt())})
			}
		}
	case 9: // duplicates abutting duplicates, boundary after boundary
		for c, cuts := 0, 3+rng.Intn(4); c < cuts; c++ {
			for k := 0; k < 1+rng.Intn(4); k++ {
				evs = append(evs, Event{LE: Time(2 * c), RE: Time(2*c + 2), Payload: row(int64(rng.Intn(2)))})
			}
		}
	case 10: // never LE-ordered, with ties: the SortEvents fallback
		for i := 0; i < n+2; i++ {
			t := Time(rng.Intn(5))
			evs = append(evs, Event{LE: t, RE: t + Time(1+rng.Intn(3)), Payload: row(int64(rng.Intn(4)))})
		}
		evs[0].LE, evs[0].RE = 9, 10
	}
	switch {
	case shape == 10: // as drawn: the late event stays in front
	case rng.Intn(2) == 0:
		rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
	default:
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].LE < evs[j].LE }) // what an engine emits
	}
	return evs
}

// sameEvents reports whether position i of got holds the very event want
// holds there: the same lifetime and the same payload, not merely an equal
// one (a NaN equals nothing, itself included).
func sameEvents(got, want []Event) bool {
	if len(got) != len(want) {
		return false
	}
	for i, g := range got {
		w := want[i]
		if g.LE != w.LE || g.RE != w.RE || len(g.Payload) != len(w.Payload) ||
			len(g.Payload) > 0 && &g.Payload[0] != &w.Payload[0] {
			return false
		}
	}
	return true
}

func TestCoalesceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	aliased, fresh := 0, 0
	for trial := 0; trial < 330; trial++ {
		shape := trial % 11
		in := coalesceInput(rng, shape)
		arg := append([]Event(nil), in...)
		want := coalesceReference(append([]Event(nil), in...))
		sortedIn := append([]Event(nil), in...)
		sort.SliceStable(sortedIn, func(i, j int) bool { return eventBefore(sortedIn[i], sortedIn[j]) })

		got := Coalesce(arg)
		if !sameEvents(got, want) {
			t.Fatalf("trial %d (shape %d): Coalesce differs from the reference\nin:   %v\ngot:  %v\nwant: %v", trial, shape, in, got, want)
		}
		// The argument is left as the stably sorted permutation of what
		// was passed — what a caller reusing its array sees afterwards.
		if !sameEvents(arg, sortedIn) {
			t.Fatalf("trial %d (shape %d): argument not left stably sorted and intact\nin:    %v\nafter: %v\nwant:  %v", trial, shape, in, arg, sortedIn)
		}
		if len(got) == len(arg) && len(arg) > 0 {
			if &got[0] != &arg[0] {
				t.Fatalf("trial %d (shape %d): nothing merged, yet the result is a copy", trial, shape)
			}
			aliased++
		} else if len(got) > 0 {
			if &got[0] == &arg[0] {
				t.Fatalf("trial %d (shape %d): events merged into the argument's own array", trial, shape)
			}
			fresh++
		}
	}
	if aliased < 20 || fresh < 20 {
		t.Fatalf("inputs exercised %d aliasing and %d merging runs; want at least 20 of each", aliased, fresh)
	}
}

// TestCoalesceSignedZerosNeverMerge: +0 and -0 are Equal but hash apart,
// so abutting [i, +0] and [i, -0] pieces stay two events, whether one pair
// meets at a boundary compared pairwise or six pairs meet at one that is
// hashed — as coalesceReference, which keys payloads by hash, keeps them.
func TestCoalesceSignedZerosNeverMerge(t *testing.T) {
	negZero := Float(math.Copysign(0, -1))
	for _, pairs := range []int{1, 6} {
		var in []Event
		for i := 0; i < pairs; i++ {
			in = append(in,
				Event{LE: 0, RE: 1, Payload: Row{Int(int64(i)), Float(0)}},
				Event{LE: 1, RE: 2, Payload: Row{Int(int64(i)), negZero}})
		}
		want := coalesceReference(append([]Event(nil), in...))
		if got := Coalesce(in); len(got) != 2*pairs || !sameEvents(got, want) {
			t.Errorf("%d abutting ±0 pairs coalesce to %d events, want %d:\ngot:  %v\nwant: %v", pairs, len(got), 2*pairs, got, want)
		}
	}
}

func noMergeEvents(n int) []Event {
	slab := make(Row, 2*n)
	evs := make([]Event, n)
	for i := range evs {
		row := slab[2*i : 2*i+2 : 2*i+2]
		row[0], row[1] = Int(int64(i)), Int(int64(i%7))
		evs[i] = PointEvent(Time(i/3), row)
	}
	return evs
}

// TestCoalesceNoMergeAllocs counts, not times: with nothing to merge,
// Coalesce allocates the few arrays its queue of right endpoints and one
// boundary grow into — a constant, whatever the number of events — and
// returns its argument. (Up to PR 23 it hashed every payload into a map
// with an index slice per event: 10 079 objects for 10 000 events.)
func TestCoalesceNoMergeAllocs(t *testing.T) {
	var perSize []float64
	for _, n := range []int{10_000, 40_000} {
		evs := noMergeEvents(n)
		Coalesce(evs) // sort once; later runs see what a reducer hands over
		perSize = append(perSize, testing.AllocsPerRun(5, func() {
			if got := Coalesce(evs); len(got) != len(evs) || &got[0] != &evs[0] {
				t.Fatalf("a no-merge input came back as %d events, copied %v", len(got), &got[0] != &evs[0])
			}
		}))
	}
	if perSize[0] > 12 || perSize[1] != perSize[0] {
		t.Errorf("Coalesce allocates %.0f objects for 10 000 events with nothing to merge and %.0f for 40 000; want at most 12, and the same", perSize[0], perSize[1])
	}
}

// slotFirsts is the first column of the slot differential's payloads:
// ints, strings, a null, a NaN and both zeros.
var slotFirsts = []Value{Int(1), Int(2), String("a"), String("ab"), Null, Float(math.NaN()), Float(0), Float(math.Copysign(0, -1))}

// slotsCoalesceAsBare reports where coalescing events as given and as a
// TiMR reducer's slotted rows — each payload behind two copies of its first
// column — differ: the same events must come out in the same order, each
// the same input's survivor. "" when they agree.
func slotsCoalesceAsBare(bare []Event) string {
	origin := make(map[*Value]int, 2*len(bare))
	slotted := make([]Event, len(bare))
	for i, e := range bare {
		row := append(Row{e.Payload[0], e.Payload[0]}, e.Payload...)
		slotted[i] = Event{LE: e.LE, RE: e.RE, Payload: row}
		origin[&e.Payload[0]], origin[&row[0]] = i, i
	}
	want := Coalesce(append([]Event(nil), bare...))
	got := Coalesce(slotted)
	if len(got) != len(want) {
		return fmt.Sprintf("%d slotted events coalesce to %d, the bare ones to %d", len(bare), len(got), len(want))
	}
	for i := range got {
		if got[i].LE != want[i].LE || got[i].RE != want[i].RE || origin[&got[i].Payload[0]] != origin[&want[i].Payload[0]] {
			return fmt.Sprintf("position %d: slotted %v from input %d, bare %v from input %d",
				i, got[i], origin[&got[i].Payload[0]], want[i], origin[&want[i].Payload[0]])
		}
	}
	return ""
}

// FuzzCoalesce: any small event list — few payloads and a small time
// domain, so that pieces abut, overlap and repeat — coalesces to what the
// reference makes of it, event for event; the result is a fixed point; and
// the argument is left the stably sorted permutation of what was passed.
// The same lifetimes are drawn twice, over int payloads and over payloads
// of mixed kinds (NaN and both zeros among them), and the mixed ones also
// coalesce as slotted rows exactly as bare (slotsCoalesceAsBare).
func FuzzCoalesce(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 0, 4, 1, 0})          // a chain
	f.Add([]byte{3, 0, 1, 3, 0, 1, 4, 0, 1, 4, 0, 1}) // duplicates abutting duplicates
	f.Add([]byte{9, 0, 0, 1, 7, 2, 1, 1, 2, 2, 6, 2}) // not LE-ordered, non-monotone right endpoints
	f.Add([]byte{0, 0, 6, 1, 0, 7})                   // +0 abutting -0 at a boundary compared pairwise
	f.Add(bytes.Repeat([]byte{0, 0, 6, 1, 0, 7}, 6))  // and six such pairs at one that is hashed
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*400 {
			data = data[:3*400]
		}
		var ints, mixed []Event
		for ; len(data) >= 3; data = data[3:] {
			le, re := Time(data[0]%16), Time(data[0]%16)+1+Time(data[1]%4)
			ints = append(ints, Event{LE: le, RE: re, Payload: Row{Int(int64(data[2] % 3)), Int(int64(data[2] / 3 % 2))}})
			mixed = append(mixed, Event{LE: le, RE: re, Payload: Row{slotFirsts[data[2]%8], Int(int64(data[2] / 8 % 2))}})
		}
		for _, in := range [][]Event{ints, mixed} {
			arg := append([]Event(nil), in...)
			want := coalesceReference(append([]Event(nil), in...))
			sortedIn := append([]Event(nil), in...)
			sort.SliceStable(sortedIn, func(i, j int) bool { return eventBefore(sortedIn[i], sortedIn[j]) })
			got := Coalesce(arg)
			if !sameEvents(got, want) {
				t.Fatalf("Coalesce differs from the reference\nin:   %v\ngot:  %v\nwant: %v", in, got, want)
			}
			if !sameEvents(arg, sortedIn) {
				t.Fatalf("argument not left stably sorted and intact\nin:    %v\nafter: %v", in, arg)
			}
			if again := Coalesce(append([]Event(nil), got...)); !sameEvents(again, got) {
				t.Fatalf("not a fixed point\nonce:  %v\ntwice: %v", got, again)
			}
		}
		if msg := slotsCoalesceAsBare(mixed); msg != "" {
			t.Fatalf("slotted rows coalesce unlike bare ones: %s\nin: %v", msg, mixed)
		}
	})
}
