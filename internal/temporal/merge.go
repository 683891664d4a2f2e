package temporal

import (
	"cmp"
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

// feedRunCap bounds the batches FeedMerged cuts: large enough to amortize
// per-batch costs to noise, small enough that the buffers operators size to
// a batch stay cache-resident.
const feedRunCap = 1024

// FeedMerged feeds the k-way merge of runs: events in nondecreasing LE
// order, ties broken by position in runs and then by position in the run —
// the order a stable LE sort of the concatenated runs produces — cut into
// same-source stretches of at most feedRunCap events, each pushed through
// FeedBatch. It is the one place time order is established: the TiMR
// reducer hands it a cursor per shuffle run, RunPlan a run per input, the
// streaming barrier each released stretch.
//
// A resident run that is not in LE order is stable-sorted on a copy first
// (the caller's slice is never written); resorted counts those runs, so the
// slow path is observable. A cursor error aborts the feed and is returned
// as is; the engine must then be discarded.
func (e *Engine) FeedMerged(runs []Run) (int, error) {
	if len(runs) == 1 && runs[0].Next == nil {
		// One resident run is its own merged order: cut it in place.
		evs, resorted := sortedByLE(runs[0].Events)
		for len(evs) > 0 {
			n := min(len(evs), feedRunCap)
			e.feedBatch = Batch{Events: evs[:n]}
			e.FeedBatch(runs[0].Source, &e.feedBatch)
			evs = evs[n:]
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
			h.push(m)
		}
	}
	buf := make([]Event, 0, feedRunCap)
	cur := ""
	flush := func() {
		if len(buf) > 0 {
			e.feedBatch = Batch{Events: buf}
			e.FeedBatch(cur, &e.feedBatch)
			buf = buf[:0]
		}
	}
	for len(h.items) > 0 {
		m := h.items[0]
		if m.Source != cur || len(buf) == feedRunCap {
			flush()
			cur = m.Source
		}
		buf = append(buf, m.cur)
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
	flush()
	return resorted, nil
}

// mergeRun is one run's cursor in the merge: cur is its next event, Events
// what a resident run has left after it.
type mergeRun struct {
	Run
	ord int // position in runs — the merge's stability tie-break
	cur Event
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
