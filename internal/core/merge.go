package core

import (
	"container/heap"
	"sort"

	"timr/internal/mapreduce"
	"timr/internal/temporal"
)

// runRange marks one run inside the reducer's feed: the half-open index
// interval [start, end) of consecutive feed entries that arrived as one
// shuffle run (a contiguous chunk of one upstream partition, in its
// original order).
type runRange struct{ start, end int }

// mergeRunOrder returns the feed order that a stable sort by LE would
// produce, computed as a k-way merge of the runs instead of a global
// re-sort. Runs must be disjoint, in ascending index order, and cover
// [0, len(les)) — which the reducer guarantees by construction.
//
// Equivalence to sort.SliceStable on LE: a stable sort orders equal-LE
// entries by original index. Runs are contiguous ascending index blocks,
// so "by original index" is exactly "by (run ordinal, position in run)" —
// the merge's tie-break. A run that is not itself LE-sorted (an upstream
// partition without time order) is stable-sorted in place first, which
// restores the same (LE, index) order within the run; onFallback is
// called once per such run so the slow path is observable.
func mergeRunOrder(les []temporal.Time, runs []runRange, onFallback func()) []int32 {
	order := make([]int32, len(les))
	for i := range order {
		order[i] = int32(i)
	}
	live := make([]runRange, 0, len(runs))
	for _, r := range runs {
		if r.end > r.start {
			live = append(live, r)
		}
	}
	for _, r := range live {
		if !sortedRange(les, r) {
			if onFallback != nil {
				onFallback()
			}
			w := order[r.start:r.end]
			sort.SliceStable(w, func(i, j int) bool { return les[w[i]] < les[w[j]] })
		}
	}
	if len(live) <= 1 {
		// Zero or one run: order is already sorted in place.
		return order
	}
	h := &mergeHeap{les: les, order: order}
	h.items = make([]mergeItem, 0, len(live))
	for ord, r := range live {
		h.items = append(h.items, mergeItem{pos: r.start, end: r.end, ord: ord})
	}
	heap.Init(h)
	out := make([]int32, 0, len(les))
	for h.Len() > 0 {
		it := h.items[0]
		out = append(out, order[it.pos])
		it.pos++
		if it.pos < it.end {
			h.items[0] = it
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return out
}

// sortedRange reports whether les is nondecreasing over [r.start, r.end).
func sortedRange(les []temporal.Time, r runRange) bool {
	for i := r.start + 1; i < r.end; i++ {
		if les[i] < les[i-1] {
			return false
		}
	}
	return true
}

// eventRun is one shuffle run's streaming cursor in the k-way event
// merge: a resident row slice, a pre-sorted materialized event slice
// (the fallback for runs without RunKey order), or a spilled segment
// decoding one row frame at a time. cur holds the run's next event
// after a successful advance.
type eventRun struct {
	ord int // global run ordinal — the merge's stability tie-break
	src int // stage input the run came from (selects the scan name)
	cur temporal.Event

	toEvent func(mapreduce.Row) temporal.Event
	rows    []mapreduce.Row      // sorted resident run …
	evs     []temporal.Event     // … or pre-sorted materialized events …
	rd      *mapreduce.RowReader // … or a sorted spilled stream
	i       int
}

// newEventRun builds a cursor over one segment. Runs without RunKey
// order are materialized and stable-sorted by LE (onFallback observes
// the slow path, mirroring mergeRunOrder); sorted runs stream — spilled
// ones straight off disk, resident ones in place with zero copies.
func newEventRun(seg *mapreduce.Segment, ord, src int, toEvent func(mapreduce.Row) temporal.Event, onFallback func()) (*eventRun, error) {
	er := &eventRun{ord: ord, src: src, toEvent: toEvent}
	switch {
	case seg.Sorted() && !seg.Spilled():
		er.rows = seg.Resident()
	case seg.Sorted():
		er.rd = seg.Open()
	default:
		rows, err := seg.Materialize()
		if err != nil {
			return nil, err
		}
		evs := make([]temporal.Event, len(rows))
		for i, r := range rows {
			evs[i] = toEvent(r)
		}
		// A stable sort restores the same (LE, original index) order the
		// resident merge path would produce.
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].LE < evs[j].LE })
		if onFallback != nil {
			onFallback()
		}
		er.evs = evs
	}
	return er, nil
}

// advance loads the run's next event into cur.
func (er *eventRun) advance() (bool, error) {
	switch {
	case er.rows != nil:
		if er.i >= len(er.rows) {
			return false, nil
		}
		er.cur = er.toEvent(er.rows[er.i])
		er.i++
		return true, nil
	case er.evs != nil:
		if er.i >= len(er.evs) {
			return false, nil
		}
		er.cur = er.evs[er.i]
		er.i++
		return true, nil
	case er.rd != nil:
		r, ok, err := er.rd.Next()
		if err != nil || !ok {
			return false, err
		}
		er.cur = er.toEvent(r)
		return true, nil
	default:
		return false, nil
	}
}

// mergeEventRuns streams the k-way merge of runs into emit in
// nondecreasing LE order, breaking LE ties by run ordinal — the same
// order mergeRunOrder materializes (and so the same order as a stable
// LE sort of the concatenated runs), but pulled one event at a time, so
// spilled runs never need to be resident at once.
func mergeEventRuns(runs []*eventRun, emit func(*eventRun) error) error {
	live := make([]*eventRun, 0, len(runs))
	for _, er := range runs {
		ok, err := er.advance()
		if err != nil {
			return err
		}
		if ok {
			live = append(live, er)
		}
	}
	if len(live) == 1 {
		// Single run: drain straight through, no heap.
		er := live[0]
		for {
			if err := emit(er); err != nil {
				return err
			}
			ok, err := er.advance()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
	}
	h := &eventRunHeap{runs: live}
	heap.Init(h)
	for h.Len() > 0 {
		er := h.runs[0]
		if err := emit(er); err != nil {
			return err
		}
		ok, err := er.advance()
		if err != nil {
			return err
		}
		if ok {
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return nil
}

type eventRunHeap struct{ runs []*eventRun }

func (h *eventRunHeap) Len() int { return len(h.runs) }
func (h *eventRunHeap) Less(i, j int) bool {
	a, b := h.runs[i], h.runs[j]
	if a.cur.LE != b.cur.LE {
		return a.cur.LE < b.cur.LE
	}
	return a.ord < b.ord
}
func (h *eventRunHeap) Swap(i, j int)      { h.runs[i], h.runs[j] = h.runs[j], h.runs[i] }
func (h *eventRunHeap) Push(x interface{}) { h.runs = append(h.runs, x.(*eventRun)) }
func (h *eventRunHeap) Pop() interface{} {
	old := h.runs
	n := len(old)
	er := old[n-1]
	h.runs = old[:n-1]
	return er
}

// mergeItem is one run's cursor in the merge heap.
type mergeItem struct{ pos, end, ord int }

type mergeHeap struct {
	les   []temporal.Time
	order []int32
	items []mergeItem
}

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	la, lb := h.les[h.order[a.pos]], h.les[h.order[b.pos]]
	if la != lb {
		return la < lb
	}
	return a.ord < b.ord
}
func (h *mergeHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x interface{}) { h.items = append(h.items, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
