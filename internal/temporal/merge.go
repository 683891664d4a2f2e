package temporal

import "fmt"

// Run is one input of Engine.FeedMerged: events of one source. A resident
// run is given as Events, in any order; a streamed one — a spilled shuffle
// run, rows converted lazily — as Next, which must deliver nondecreasing
// LE order and supersedes Events when set. Next returns false once the run
// is exhausted.
type Run struct {
	Source string
	Events []Event
	Next   func() (Event, bool, error)
}

// FeedMerged feeds the merge of runs (startMerge): events in nondecreasing
// LE order, ties broken by position in runs and then by position in the
// run — the order a stable LE sort of the concatenated runs produces —
// each pushed as Feed would push it.
//
// A cursor error aborts the feed and is returned as is; the engine must
// then be discarded. A run whose source the plan does not scan is an
// error naming it, and then nothing is fed.
func (e *Engine) FeedMerged(runs []Run) error {
	ins := make([]Sink, len(runs))
	for i, r := range runs {
		in, ok := e.inputs[r.Source]
		if !ok {
			return fmt.Errorf("temporal: engine has no source %s", r.Source)
		}
		ins[i] = in
	}
	defer e.fold()
	h, err := startMerge(runs)
	for err == nil && len(h.items) > 0 {
		m := h.items[0]
		e.push(ins[m.run], m.cur)
		if len(h.items) == 1 && m.next == nil {
			// The last run left is resident: the rest of it follows.
			for _, ev := range m.evs {
				e.push(ins[m.run], ev)
			}
			break
		}
		err = stepMerge(&h)
	}
	return err
}

// startMerge is the one code that puts events in time order. It returns
// the k-way merge of runs as a heap whose least run, h.items[0], holds the
// next event in cur; stepMerge moves past it. Events come in
// nondecreasing LE order, ties broken by position in runs and then by
// position in the run: the order a stable LE sort of the concatenated runs
// gives, which is unique. A resident run is cut at its LE inversions into
// pieces merged as runs of their own, each ranked after the one before
// it; the caller's slices are only read.
func startMerge(runs []Run) (minHeap[*mergeRun], error) {
	ms := make([]mergeRun, 0, len(runs))
	for r, run := range runs {
		if run.Next != nil {
			ms = append(ms, mergeRun{next: run.Next, run: r, ord: len(ms)})
		}
		for evs := run.Events; len(evs) > 0 && run.Next == nil; {
			n := 1
			for n < len(evs) && evs[n].LE >= evs[n-1].LE {
				n++
			}
			ms = append(ms, mergeRun{evs: evs[:n], run: r, ord: len(ms)})
			evs = evs[n:]
		}
	}
	h := minHeap[*mergeRun]{items: make([]*mergeRun, 0, len(ms)), less: func(a, b *mergeRun) bool {
		return a.cur.LE < b.cur.LE || a.cur.LE == b.cur.LE && a.ord < b.ord
	}}
	for i := range ms {
		if ok, err := ms[i].advance(); err != nil {
			return h, err
		} else if ok {
			h.push(&ms[i])
		}
	}
	return h, nil
}

// stepMerge moves the merge's least run past its current event; a
// cursor's error ends the merge.
func stepMerge(h *minHeap[*mergeRun]) error {
	ok, err := h.items[0].advance()
	if ok {
		h.fixTop()
	} else if err == nil {
		h.pop()
	}
	return err
}

// mergeRun is one run's cursor in the merge, or one piece of a resident
// run: cur is its next event, evs what a piece has left after it.
type mergeRun struct {
	evs  []Event
	next func() (Event, bool, error)
	run  int // index of the run in the merge's input
	ord  int // position among all runs and pieces — the tie-break
	cur  Event
}

// advance loads the run's next event into cur.
func (m *mergeRun) advance() (ok bool, err error) {
	if m.next != nil {
		m.cur, ok, err = m.next()
		return ok, err
	}
	if len(m.evs) == 0 {
		return false, nil
	}
	m.cur, m.evs = m.evs[0], m.evs[1:]
	return true, nil
}
