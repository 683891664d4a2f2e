package temporal

// The stateless kernel (TiLT-style, ROADMAP item 2) is the one
// implementation of Select, Project and AlterLifetime(window, hop, shift).
// The compiler collapses every maximal run of them — at the top level and
// inside GroupApply sub-plans, observed or not — into one fusedOp; a lone
// Select is a one-member kernel. Inside a GroupApply a run reads rows
// that lead with the group key and keeps the key in front (newFusedOp's
// kw), or runs inside a grouped kernel, before or after its stateful core,
// on the rows without it. (ToPoint keeps continuation state and is
// its own operator, alterLifetimeOp.) One loop applies every stage per
// event, so a run of k members costs one dispatch per event, and produces
// the downstream call sequence chaining the members would — bit-identical
// events, identically shifted CTIs (TestFused*, fused_test.go).
//
// Metering: under a scope the kernel meters itself (kernelMeter, op_meter.go),
// each member into its own "opNN.Kind" scope, as the loop passes it; no sink
// is interposed, so an observed pipeline runs this same code.
//
// Rows written once: a join writes the rows of a pick-only Project that is
// its only consumer (compiler.build). A member keeping a prefix of its
// input's columns in order (the key first; the identity counts), after no
// Select or copying Project, returns the input clipped to it, cap == len.
// No operator writes an emitted row again — after Flush the TiMR reducer, its
// owner, fills its two lifetime slots — or hands a kernel a reused scratch
// row: groupedAggOp.res, seen by post, is copied by groupOutput.stage.
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

// fusedStage is one member of the run.
type fusedStage struct {
	kind               fuseKind
	pred               func(Row) bool // fuseFilter
	proj               *fusedProject  // fuseProject
	window, hop, shift Time           // the lifetime transforms
}

type fusedProject struct {
	fns   []func(Row) Value
	alias bool // fns pick in's first len(fns) columns in order
	arena rowArena
}

func (p *fusedProject) row(in Row) Row {
	if p.alias {
		return in[:len(p.fns):len(p.fns)]
	}
	row := p.arena.alloc(len(p.fns))
	for i, fn := range p.fns {
		row[i] = fn(in)
	}
	return row
}

// column projects column c.
func column(c int) func(Row) Value { return func(r Row) Value { return r[c] } }

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
	out    Sink
	m      *kernelMeter // nil unless observed
}

// newFusedOp compiles a run of stateless nodes, first member first, over
// rows that lead with a kw-column group key (0 outside a GroupApply): every
// member reads its columns behind the key, and a Project keeps it in front.
func newFusedOp(run []*Plan, kw int, out Sink) *fusedOp {
	f := &fusedOp{stages: make([]fusedStage, len(run)), out: out}
	cols := func(in *Schema, names []string) []int { return keyCols(kw, in.Indexes(names...))[kw:] }
	alias := true // no member before dropped a row or wrote one: an alias pins only what arrived
	for i, n := range run {
		in := n.Inputs[0].Out
		st := &f.stages[i]
		switch n.Kind {
		case OpSelect:
			st.kind = fuseFilter
			st.pred = n.Pred.Make(cols(in, n.Pred.Cols))
			alias = false
		case OpProject:
			st.kind = fuseProject
			st.proj = &fusedProject{alias: alias}
			for _, c := range keyCols(kw, nil) {
				st.proj.fns = append(st.proj.fns, column(c))
			}
			for i, pr := range n.Projs {
				st.proj.alias = st.proj.alias && pr.Source != "" && in.MustIndex(pr.Source) == i
				if pr.Source != "" {
					st.proj.fns = append(st.proj.fns, column(kw+in.MustIndex(pr.Source)))
				} else {
					st.proj.fns = append(st.proj.fns, pr.Make(cols(in, pr.Cols)))
				}
			}
			alias = st.proj.alias
		case OpAlterLifetime:
			st.kind = fuseWindow + fuseKind(n.Mode)
			st.window, st.hop, st.shift = n.Window, n.Hop, n.Shift
		}
	}
	return f
}

// applyRow runs every stage against one event in place; false drops it.
func (f *fusedOp) applyRow(e *Event) bool {
	for si := range f.stages {
		st := &f.stages[si]
		if f.m != nil {
			f.m.reach(si, e.LE)
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
	if f.m != nil {
		f.m.reach(len(f.stages), e.LE)
	}
	return true
}

func (f *fusedOp) OnEvent(e Event) {
	if f.applyRow(&e) {
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

// alterSection is the checkpoint section of a kernel's window, hop or
// shift member: the empty continuation table a ToPoint operator with
// nothing pending writes. A value of it carries nothing.
type alterSection struct{}

func (alterSection) Snapshot(w *Encoder) {
	w.Byte(ckAlterLife)
	w.Uvarint(0)
}

func (alterSection) Restore(r *Decoder) error {
	if err := r.Expect(ckAlterLife, "alter-lifetime"); err != nil {
		return err
	}
	if n := r.Count("pending points"); n != 0 {
		return r.Failf("%d pending points for a lifetime transform that keeps none", n)
	}
	return r.Err()
}
