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

// SortEvents orders events by (LE, RE) and, for determinism across runs,
// by payload comparison when lifetimes tie. The engine requires
// nondecreasing-LE input; full ordering makes test assertions and the
// repeatability guarantee (identical output on reducer restart) exact.
func SortEvents(events []Event) {
	slices.SortStableFunc(events, compareEvents)
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

func compareRows(a, b Row) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := a[i].Compare(b[i]); c != 0 {
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
