package temporal

// The stateless kernel (TiLT-style, ROADMAP item 2) is the one
// implementation of Select, Project and AlterLifetime(window, hop, shift).
// The compiler collapses every maximal run of them — at the top level and
// inside GroupApply sub-plans, observed or not — into one fusedOp; a lone
// Select is a one-member kernel. (ToPoint keeps continuation state and is
// its own operator, alterLifetimeOp.) The kernel has two entries:
//
//   - Row entry: OnEvent/OnBatch/OnCTI/OnFlush, the Batch push contract.
//     One loop applies every stage per event, so a run of k members costs
//     one dispatch and at most one copy per batch.
//   - Columnar entry: OnColBatch consumes a ColBatch directly. Filters
//     evaluate as selection scans over the column vectors (ColPredicate,
//     pred.go), direct projections remap column views without touching
//     data, and lifetime transforms rewrite the LE/RE vectors; surviving
//     rows are materialized at most once, at the run's downstream
//     boundary (the first stateful operator). When the downstream is
//     itself a ColBatchSink (the engine's Collector) and every row of a
//     batch survives, the column views pass straight through and no rows
//     are built on the feed path at all.
//
// Both entries produce the same downstream call sequence — bit-identical
// events, identically shifted CTIs (TestFused*, fused_test.go). When a
// batch's column shapes fall outside what the vectorized predicates
// handle exactly (nulls, mixed columns, unvectorized predicates),
// OnColBatch materializes rows — into a fresh per-call slab, so a
// downstream operator that defers the batch never observes slab reuse —
// and runs the row entry.
//
// Metering: under a scope the kernel meters itself (kernelMeter,
// op_meter.go), each member into its own "opNN.Kind" scope, from counts
// the loops keep in locals; no sink is interposed, so an observed
// pipeline runs this same code and keeps its columnar entry.
//
// Checkpoints: the kernel holds no state. The snapshot layout is a
// function of the logical plan alone and gives every AlterLifetime node a
// section, so each window/hop/shift member registers an alterSection.

type fuseKind uint8

const (
	fuseFilter fuseKind = iota
	fuseProject
	fuseWindow // the lifetime transforms, in LifetimeMode order
	fuseHop
	fuseShift
)

// fusedStage is one member of the run. Per-group kernels make this the
// most replicated struct in a BT job: what only the columnar entry needs
// lives in fusedCols.
type fusedStage struct {
	kind               fuseKind
	pred               func(Row) bool // fuseFilter
	proj               *fusedProject  // fuseProject
	window, hop, shift Time           // the lifetime transforms
}

type fusedProject struct {
	fns   []func(Row) Value
	arena rowArena
}

func (p *fusedProject) row(in Row) Row {
	row := p.arena.alloc(len(p.fns))
	for i, fn := range p.fns {
		row[i] = fn(in)
	}
	return row
}

// shiftCTI translates a punctuation across the stage: only a backward
// shift moves it.
func (st *fusedStage) shiftCTI(t Time) Time {
	if st.kind == fuseShift && st.shift < 0 {
		t += st.shift
	}
	return t
}

// fusedOp is the compiled kernel for one stateless run.
type fusedOp struct {
	stages []fusedStage
	tail   *Plan // the run's last node; the members are tail and its Inputs[0] chain
	out    Sink
	bo     batchOut
	cols   *fusedCols   // allocated by the first OnColBatch
	m      *kernelMeter // nil unless observed
}

// newFusedOp compiles the k-node run ending at tail.
func newFusedOp(tail *Plan, k int, out Sink) *fusedOp {
	f := &fusedOp{stages: make([]fusedStage, k), tail: tail, out: out}
	n := tail
	for i := k - 1; i >= 0; i, n = i-1, n.Inputs[0] {
		in := n.Inputs[0].Out
		st := &f.stages[i]
		switch n.Kind {
		case OpSelect:
			st.kind = fuseFilter
			st.pred = n.Pred.compile(in)
		case OpProject:
			st.kind = fuseProject
			st.proj = &fusedProject{fns: make([]func(Row) Value, len(n.Projs))}
			for j, pr := range n.Projs {
				if pr.Source != "" {
					col := in.MustIndex(pr.Source)
					st.proj.fns[j] = func(r Row) Value { return r[col] }
				} else {
					st.proj.fns[j] = pr.Make(in.Indexes(pr.Cols...))
				}
			}
		case OpAlterLifetime:
			st.kind = fuseWindow + fuseKind(n.Mode)
			st.window, st.hop, st.shift = n.Window, n.Hop, n.Shift
		}
	}
	return f
}

// applyRow runs every stage against one event in place; false drops it.
// seen (nil unless observed) records what reached each stage.
func (f *fusedOp) applyRow(e *Event, seen []stageSeen) bool {
	for si := range f.stages {
		st := &f.stages[si]
		if seen != nil {
			seen[si].n++
			seen[si].le = e.LE // input LE is nondecreasing and every stage monotone
		}
		switch st.kind {
		case fuseFilter:
			if !st.pred(e.Payload) {
				return false
			}
			continue
		case fuseProject:
			e.Payload = st.proj.row(e.Payload)
			continue
		case fuseWindow:
			e.RE = e.LE + st.window
		case fuseHop:
			// An event at time s contributes to the windows of width w ending
			// at multiples of h in (s, s+w]; each result is valid for one hop.
			s := e.LE
			e.LE = floorDiv(s, st.hop)*st.hop + st.hop
			e.RE = floorDiv(s+st.window, st.hop)*st.hop + st.hop
		case fuseShift:
			e.LE += st.shift
			e.RE += st.shift
		}
		if e.RE <= e.LE {
			e.RE = e.LE + Tick
		}
	}
	if seen != nil {
		seen[len(f.stages)].n++
	}
	return true
}

func (f *fusedOp) OnEvent(e Event) {
	ok := f.applyRow(&e, f.m.scratch())
	f.m.commit()
	if ok {
		f.out.OnEvent(e)
	}
}

func (f *fusedOp) OnCTI(t Time) {
	f.out.OnCTI(f.cti(t))
}

// cti meters a punctuation and translates it across the run: by the sum
// of the backward shifts, what chaining the members would apply.
func (f *fusedOp) cti(t Time) Time {
	f.m.cti(t, f.stages)
	for si := range f.stages {
		t = f.stages[si].shiftCTI(t)
	}
	return t
}

func (f *fusedOp) OnFlush() { f.out.OnFlush() }

// pureFilter: every stage is a filter, so a batch nothing is dropped from
// is forwarded as it came, without a copy.
func (f *fusedOp) pureFilter() bool {
	for si := range f.stages {
		if f.stages[si].kind != fuseFilter {
			return false
		}
	}
	return true
}

func (f *fusedOp) OnBatch(b *Batch) {
	seen := f.m.scratch()
	evs := b.Events
	outEvs := f.bo.buf[:0]
	start := 0
	if f.pureFilter() {
		for start < len(evs) && f.applyRow(&evs[start], seen) {
			start++
		}
		if start == len(evs) {
			// Nothing dropped: forward the producer's batch untouched (a
			// filter-only run does not move the CTI either).
			f.m.commit()
			if b.HasCTI {
				f.cti(b.CTI)
			}
			if len(evs) > 0 || b.HasCTI {
				f.bo.resolve(f.out).OnBatch(b)
			}
			return
		}
		outEvs = append(outEvs, evs[:start]...)
		start++ // the scan saw evs[start] dropped
	}
	for _, e := range evs[start:] {
		if f.applyRow(&e, seen) {
			outEvs = append(outEvs, e)
		}
	}
	f.m.commit()
	cti := b.CTI
	if b.HasCTI {
		cti = f.cti(cti)
	}
	f.bo.emit(f.out, outEvs, cti, b.HasCTI)
}

// fusedCols is what only the columnar entry needs: the members' column
// forms and the scratch vectors. A kernel inside a GroupApply sub-plan is
// never handed a ColBatch and never allocates one.
type fusedCols struct {
	// out is non-nil when the run's downstream consumes columns directly
	// (the engine's Collector): batches that survive intact are handed
	// through as column views.
	out ColBatchSink
	// ok: every stage vectorizes (each filter has a ColPredicate, each
	// project only copies columns).
	ok    bool
	preds []ColPredicate // per stage; filters only
	src   [][]int        // per stage; the source column of each projected one
	// scratch, reused across batches (single-goroutine)
	sel    []bool
	idx    []int32
	le, re []Time
}

func (f *fusedOp) newCols() *fusedCols {
	k := len(f.stages)
	c := &fusedCols{ok: true, preds: make([]ColPredicate, k), src: make([][]int, k)}
	c.out, _ = f.out.(ColBatchSink)
	n := f.tail
	for i := k - 1; i >= 0; i, n = i-1, n.Inputs[0] {
		in := n.Inputs[0].Out
		switch n.Kind {
		case OpSelect:
			c.preds[i] = n.Pred.compileCol(in)
			c.ok = c.ok && c.preds[i] != nil
		case OpProject:
			c.src[i] = make([]int, len(n.Projs))
			for j, pr := range n.Projs {
				if pr.Source == "" {
					c.ok = false
					break
				}
				c.src[i][j] = in.MustIndex(pr.Source)
			}
		}
	}
	return c
}

// OnColBatch is the columnar entry point.
func (f *fusedOp) OnColBatch(cb *ColBatch) {
	n := cb.Len()
	if n == 0 {
		return
	}
	if f.cols == nil {
		f.cols = f.newCols()
	}
	c := f.cols
	if !c.ok {
		f.colFallback(cb)
		return
	}
	if cap(c.sel) < n {
		c.sel = make([]bool, n)
	}
	sel := c.sel[:n]
	for i := range sel {
		sel[i] = true
	}
	seen := f.m.scratch()
	live, last := n, n-1 // selected rows, and the last of them
	lifetimesOwned := false
	cur := cb
	le, re := cb.LE, cb.RE
	for si := range f.stages {
		st := &f.stages[si]
		if seen != nil && live > 0 {
			seen[si] = stageSeen{n: int64(live), le: le[last]}
		}
		switch st.kind {
		case fuseFilter:
			if !c.preds[si](cur, sel) {
				// A column shape the vectorized predicate does not handle
				// exactly: discard partial progress and run the row path.
				f.colFallback(cb)
				return
			}
			live = 0
			for _, keep := range sel {
				if keep {
					live++
				}
			}
			for last >= 0 && !sel[last] {
				last--
			}
		case fuseProject:
			mapped := make([]ColVec, len(c.src[si]))
			for j, col := range c.src[si] {
				mapped[j] = cur.Cols[col]
			}
			cur = &ColBatch{Cols: mapped, n: n}
		default:
			if !lifetimesOwned {
				// First lifetime rewrite copies the (immutable) input
				// vectors into scratch; later stages mutate in place.
				c.le = append(c.le[:0], le...)
				c.re = append(c.re[:0], re...)
				le, re = c.le, c.re
				lifetimesOwned = true
			}
			alterVec(st, le, re)
		}
	}
	if seen != nil {
		seen[len(f.stages)].n = int64(live)
		f.m.commit()
	}
	nc := len(cur.Cols)
	if live == n {
		if c.out != nil {
			// Full survival into a columnar consumer: hand the columns
			// through as views and never build rows on the feed path.
			// Lifetime vectors living in the kernel's reusable scratch are
			// copied out first — the consumer may retain the batch, and
			// everything it retains must be sealed storage.
			if lifetimesOwned {
				le = append([]Time(nil), le...)
				re = append([]Time(nil), re...)
			}
			c.out.OnColBatch(&ColBatch{LE: le, RE: re, Cols: cur.Cols, n: n})
			return
		}
		outEvs := materializeAll(f.bo.buf[:0], cur, le, re, n, nc)
		f.bo.emit(f.out, outEvs, 0, false)
		return
	}
	outEvs := f.bo.buf[:0]
	idx := c.idx[:0]
	for i, keep := range sel {
		if keep {
			idx = append(idx, int32(i))
		}
	}
	c.idx = idx
	if len(idx) > 0 {
		if nc == 0 {
			for _, i := range idx {
				outEvs = append(outEvs, Event{LE: le[i], RE: re[i]})
			}
		} else {
			slab := make([]Value, len(idx)*nc)
			for col := range cur.Cols {
				cur.Cols[col].fillIdx(slab[col:], nc, idx)
			}
			for j, i := range idx {
				outEvs = append(outEvs, Event{LE: le[i], RE: re[i], Payload: Row(slab[j*nc : (j+1)*nc : (j+1)*nc])})
			}
		}
	}
	f.bo.emit(f.out, outEvs, 0, false)
}

// materializeAll transposes all n rows of cur (no selection) into fresh
// event payloads appended to outEvs.
func materializeAll(outEvs []Event, cur *ColBatch, le, re []Time, n, nc int) []Event {
	if nc == 0 {
		for i := 0; i < n; i++ {
			outEvs = append(outEvs, Event{LE: le[i], RE: re[i]})
		}
		return outEvs
	}
	slab := make([]Value, n*nc)
	for c := range cur.Cols {
		cur.Cols[c].fill(slab[c:], nc, n)
	}
	for i := 0; i < n; i++ {
		outEvs = append(outEvs, Event{LE: le[i], RE: re[i], Payload: Row(slab[i*nc : (i+1)*nc : (i+1)*nc])})
	}
	return outEvs
}

// colFallback materializes the batch into a fresh per-call slab and runs
// the row path, which meters the batch from the start. The fresh slab
// (never a shared reusable buffer) is what makes deferred retention by a
// downstream operator safe.
func (f *fusedOp) colFallback(cb *ColBatch) {
	clear(f.m.scratch())
	b := Batch{Events: cb.MaterializeEvents(nil)}
	f.OnBatch(&b)
}

// alterVec applies one lifetime transform to the le/re vectors in place,
// including the RE<=LE clamp every such stage ends with.
func alterVec(st *fusedStage, le, re []Time) {
	switch st.kind {
	case fuseWindow:
		w := st.window
		for i, s := range le {
			re[i] = s + w
		}
	case fuseHop:
		h, w := st.hop, st.window
		for i := range le {
			s := le[i]
			le[i] = floorDiv(s, h)*h + h
			re[i] = floorDiv(s+w, h)*h + h
		}
	case fuseShift:
		d := st.shift
		for i := range le {
			le[i] += d
			re[i] += d
		}
	}
	for i := range le {
		if re[i] <= le[i] {
			re[i] = le[i] + Tick
		}
	}
}

// alterSection is the checkpoint section of a kernel's window, hop or
// shift member: the empty continuation table a ToPoint operator with
// nothing pending writes. A value of it carries nothing, so it costs a
// per-group sub-pipeline no memory.
type alterSection struct{}

func (alterSection) liveState() int { return 0 }

func (alterSection) Snapshot(w *SnapshotWriter) {
	w.Byte(ckAlterLife)
	w.Uvarint(0)
}

func (alterSection) Restore(r *SnapshotReader) error {
	if err := r.Expect(ckAlterLife, "alter-lifetime"); err != nil {
		return err
	}
	if n := r.Count("pending points"); n != 0 {
		return r.Failf("%d pending points for a lifetime transform that keeps none", n)
	}
	return r.Err()
}

// ColBatchSink is the columnar-entry contract: a sink that can consume a
// ColBatch directly, without the caller materializing rows first. The
// batch is immutable and remains owned by the caller; implementations
// must not mutate its vectors and must finish reading before returning
// (views made with Slice may be retained — they share sealed storage).
type ColBatchSink interface {
	OnColBatch(cb *ColBatch)
}
