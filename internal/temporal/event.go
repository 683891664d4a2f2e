package temporal

import (
	"cmp"
	"fmt"
	"slices"
)

// Time is application time in milliseconds since an arbitrary epoch. The
// engine is defined purely over application time (the paper's §III-C.1):
// results never depend on wall-clock processing time.
type Time = int64

// Convenient durations in engine ticks (milliseconds).
const (
	Tick   Time = 1 // δ, the smallest representable duration
	Second Time = 1000
	Minute Time = 60 * Second
	Hour   Time = 60 * Minute
	Day    Time = 24 * Hour
)

// MinTime and MaxTime bound event lifetimes. They are kept well inside the
// int64 range so that window arithmetic (LE+w) cannot overflow.
const (
	MinTime Time = -1 << 60
	MaxTime Time = 1 << 60
)

// Event is a payload with a validity lifetime [LE, RE). A point event —
// an instantaneous notification such as a click — has RE = LE + Tick.
type Event struct {
	LE, RE  Time
	Payload Row
}

// PointEvent builds an instantaneous event at time t.
func PointEvent(t Time, payload Row) Event {
	return Event{LE: t, RE: t + Tick, Payload: payload}
}

// IsPoint reports whether e is a point event.
func (e Event) IsPoint() bool { return e.RE == e.LE+Tick }

// Contains reports whether t lies within [LE, RE).
func (e Event) Contains(t Time) bool { return e.LE <= t && t < e.RE }

// String renders the event for debugging.
func (e Event) String() string {
	return fmt.Sprintf("[%d,%d)%v", e.LE, e.RE, e.Payload)
}

// SortEvents puts events in canonical order: stably by (LE, RE), then by
// payload (compareRows), a total order on values. The engine requires
// nondecreasing-LE input; full ordering makes test assertions and the
// repeatability guarantee (identical output on reducer restart) exact.
//
// Events in LE order (a serving log, an engine's output) are sorted one
// run of equal LE at a time (sortRuns), in place. Anything else is merged
// into LE order first, from a scratch copy, by the merge that feeds the
// engine (startMerge); then the tie runs are sorted.
func SortEvents(events []Event) {
	if sortRuns(events) {
		return
	}
	// A resident run cannot fail.
	h, _ := startMerge([]Run{{Events: slices.Clone(events)}})
	for i := 0; len(h.items) > 0; i++ {
		events[i] = h.items[0].cur
		_ = stepMerge(&h)
	}
	sortRuns(events)
}

// sortRuns sorts LE-ordered events a tie run at a time. At the first event
// out of LE order it stops, reporting false.
func sortRuns(events []Event) bool {
	var small [tieStack]tieKey
	keys := small[:]
	for lo, hi := 0, 0; lo < len(events); lo = hi {
		for hi = lo + 1; hi < len(events) && events[hi].LE == events[lo].LE; hi++ {
		}
		if hi < len(events) && events[hi].LE < events[lo].LE {
			return false
		}
		if hi-lo > 1 {
			keys = sortTies(events[lo:hi], keys)
		}
	}
	return true
}

// tieStack is the longest tie run SortEvents sorts without allocating.
const tieStack = 64

// tieKey is a tie-run event's sort key: its RE, the int in the first
// payload column that differs across the run, and its index in the run.
type tieKey struct {
	re, key int64
	idx     int
}

// sortTies stable-sorts run, events of one LE, by (RE, payload), and
// returns keys, its scratch, grown if run needed more. A sorted run costs
// a compare an event, an unsorted pair a swap. Otherwise the leading
// columns every payload shares word for word decide nothing and are
// skipped; when the first column that differs holds only ints, the run is
// sorted as pointer-free keys — the rest of the payload compared only
// where RE and that int tie, the index keeping it stable — and then
// permuted once.
func sortTies(run []Event, keys []tieKey) []tieKey {
	if slices.IsSortedFunc(run, compareEvents) {
		return keys
	}
	if len(run) == 2 {
		run[0], run[1] = run[1], run[0]
		return keys
	}
	d := sharedColumns(run)
	if slices.ContainsFunc(run, func(e Event) bool { return len(e.Payload) <= d || e.Payload[d].Kind() != KindInt }) {
		slices.SortStableFunc(run, func(a, b Event) int {
			if a.RE != b.RE {
				return cmp.Compare(a.RE, b.RE)
			}
			return compareRows(a.Payload[d:], b.Payload[d:])
		})
		return keys
	}
	keys = slices.Grow(keys[:0], len(run))[:len(run)]
	for i, e := range run {
		keys[i] = tieKey{re: e.RE, key: e.Payload[d].AsInt(), idx: i}
	}
	slices.SortFunc(keys, func(a, b tieKey) int {
		if c := cmp.Or(cmp.Compare(a.re, b.re), cmp.Compare(a.key, b.key)); c != 0 {
			return c
		}
		return cmp.Or(compareRows(run[a.idx].Payload[d+1:], run[b.idx].Payload[d+1:]), cmp.Compare(a.idx, b.idx))
	})
	// Put run[keys[i].idx] at i, a cycle of the permutation at a time; a
	// placed position's idx becomes its own.
	for i := range keys {
		if keys[i].idx == i {
			continue
		}
		first, j := run[i], i
		for {
			k := keys[j].idx
			keys[j].idx = j
			if k == i {
				run[j] = first
				break
			}
			run[j], j = run[k], k
		}
	}
	return keys
}

// sharedColumns counts the leading payload columns that hold the same
// words in every event of run.
func sharedColumns(run []Event) int {
	first := run[0].Payload
	d := len(first)
	for _, e := range run[1:] {
		p := e.Payload[:min(d, len(e.Payload))]
		j := 0
		for j < len(p) && p[j].same(first[j]) {
			j++
		}
		d = j
	}
	return d
}

// compareEvents is the canonical engine order: (LE, RE, payload).
func compareEvents(a, b Event) int {
	if a.LE != b.LE {
		return cmp.Compare(a.LE, b.LE)
	}
	if a.RE != b.RE {
		return cmp.Compare(a.RE, b.RE)
	}
	return compareRows(a.Payload, b.Payload)
}

func eventBefore(a, b Event) bool { return compareEvents(a, b) < 0 }

// compareRows is the canonical payload order: column by column by
// Value.compareTotal, then a prefix first. Rows that tie are the same row,
// so a sort by it leaves nothing to the order its input arrived in.
func compareRows(a, b Row) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if x, y, ok := a[i].ints(b[i]); ok {
			if x != y {
				return cmp.Compare(x, y)
			}
		} else if c := a[i].compareTotal(b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// EventsEqual reports whether two (already sorted) event slices are
// identical in lifetimes and payloads.
func EventsEqual(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].LE != b[i].LE || a[i].RE != b[i].RE || !a[i].Payload.Equal(b[i].Payload) {
			return false
		}
	}
	return true
}

// Sink is the push contract: every physical operator, every engine output
// and every pipeline entry is one, and nothing else crosses an operator
// boundary.
//
// Contract: OnEvent is called with nondecreasing e.LE; OnCTI(t) promises
// that every later event has LE >= t (a punctuation, used for state
// cleanup and for unblocking merge operators); OnFlush signals end of
// stream and must cascade downstream after final results are emitted.
type Sink interface {
	OnEvent(e Event)
	OnCTI(t Time)
	OnFlush()
}

// Collector is a terminal Sink that accumulates results.
type Collector struct {
	Events []Event
}

// OnEvent appends the event.
func (c *Collector) OnEvent(e Event) { c.Events = append(c.Events, e) }

// OnCTI is a no-op for a collector.
func (c *Collector) OnCTI(Time) {}

// OnFlush is a no-op for a collector.
func (c *Collector) OnFlush() {}

// Reset drops collected events but keeps the backing capacity, so one
// collector can be reused across engine runs (benchmark loops, repeated
// partitions) without accumulating unbounded result slices. The capacity
// is cleared: it must not pin the rows of the run before.
func (c *Collector) Reset() { clear(c.Events); c.Events = c.Events[:0] }

// FuncSink adapts callbacks to the Sink interface; used to stream results
// into application code (e.g. the real-time example and TiMR's blocking
// queue between the embedded engine and the reducer).
type FuncSink struct {
	Event func(Event)
	CTI   func(Time)
	Flush func()
}

// OnEvent invokes the event callback if set.
func (f *FuncSink) OnEvent(e Event) {
	if f.Event != nil {
		f.Event(e)
	}
}

// OnCTI invokes the CTI callback if set.
func (f *FuncSink) OnCTI(t Time) {
	if f.CTI != nil {
		f.CTI(t)
	}
}

// OnFlush invokes the flush callback if set.
func (f *FuncSink) OnFlush() {
	if f.Flush != nil {
		f.Flush()
	}
}
