package temporal

import (
	"cmp"
	"fmt"
	"slices"
)

// Run is one input of Engine.FeedMerged: events of one source in
// nondecreasing LE order. A resident run is given as Events and need not
// be ordered (see FeedMerged); a streamed one — a spilled shuffle run, rows
// converted lazily — as Next, which must deliver LE order and supersedes
// Events when set. Next returns false once the run is exhausted.
type Run struct {
	Source string
	Events []Event
	Next   func() (Event, bool, error)
}

// FeedMerged feeds the k-way merge of runs: events in nondecreasing LE
// order, ties broken by position in runs and then by position in the run —
// the order a stable LE sort of the concatenated runs produces — each
// pushed as Feed would push it. It is the one place time order is
// established: the TiMR reducer hands it a cursor per shuffle run, RunPlan
// a run per input, the streaming barrier each released stretch.
//
// A resident run that is not in LE order is stable-sorted on a copy first
// (the caller's slice is never written); resorted counts those runs, so the
// slow path is observable. A cursor error aborts the feed and is returned
// as is; the engine must then be discarded. A run whose source the plan
// does not scan is an error naming it, and then nothing is fed.
func (e *Engine) FeedMerged(runs []Run) (int, error) {
	for _, r := range runs {
		if _, ok := e.inputs[r.Source]; !ok {
			return 0, fmt.Errorf("temporal: engine has no source %s", r.Source)
		}
	}
	defer e.fold()
	if len(runs) == 1 && runs[0].Next == nil {
		// One resident run is its own merged order.
		evs, resorted := sortedByLE(runs[0].Events)
		if len(evs) > 0 {
			in := e.inputs[runs[0].Source]
			for _, ev := range evs {
				e.push(in, ev)
			}
		}
		return resorted, nil
	}
	resorted := 0
	h := minHeap[*mergeRun]{items: make([]*mergeRun, 0, len(runs)), less: mergeBefore}
	for ord := range runs {
		m := &mergeRun{Run: runs[ord], ord: ord}
		if m.Next == nil {
			var n int
			m.Events, n = sortedByLE(m.Events)
			resorted += n
		}
		ok, err := m.advance()
		if err != nil {
			return resorted, err
		}
		if ok {
			m.in = e.inputs[m.Source]
			h.push(m)
		}
	}
	for len(h.items) > 0 {
		m := h.items[0]
		e.push(m.in, m.cur)
		ok, err := m.advance()
		if err != nil {
			return resorted, err
		}
		if ok {
			h.fixTop()
		} else {
			h.pop()
		}
	}
	return resorted, nil
}

// mergeRun is one run's cursor in the merge: cur is its next event, Events
// what a resident run has left after it, and in its source's entry
// sink.
type mergeRun struct {
	Run
	ord int // position in runs — the merge's stability tie-break
	cur Event
	in  Sink
}

func mergeBefore(a, b *mergeRun) bool {
	if a.cur.LE != b.cur.LE {
		return a.cur.LE < b.cur.LE
	}
	return a.ord < b.ord
}

// advance loads the run's next event into cur.
func (m *mergeRun) advance() (ok bool, err error) {
	if m.Next != nil {
		m.cur, ok, err = m.Next()
		return ok, err
	}
	if len(m.Events) == 0 {
		return false, nil
	}
	m.cur, m.Events = m.Events[0], m.Events[1:]
	return true, nil
}

// sortedByLE returns evs itself when it is in nondecreasing LE order, and
// otherwise a stable-sorted copy and 1.
func sortedByLE(evs []Event) ([]Event, int) {
	byLE := func(a, b Event) int { return cmp.Compare(a.LE, b.LE) }
	if slices.IsSortedFunc(evs, byLE) {
		return evs, 0
	}
	evs = slices.Clone(evs)
	slices.SortStableFunc(evs, byLE)
	return evs, 1
}
