package temporal

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The GroupApply differential: drawn sub-plans of every shape the lowering
// distributes over, each run under a drawn punctuation schedule, feed path
// and checkpoint→restore point, and judged after every step by an oracle
// that evaluates the sub-plan under snapshot semantics per key, by
// enumeration — no operator, watermark, slot or merge order in it.

// snapshots evaluates fn at every elementary interval between the
// endpoints of evs — over the events whose lifetime contains it — and
// returns the rows it yields there, coalesced.
func snapshots(evs []Event, fn func(active []Event) []Row) []Event {
	var pts []Time
	for _, e := range evs {
		pts = append(pts, e.LE, e.RE)
	}
	slices.Sort(pts)
	pts = slices.Compact(pts)
	var out []Event
	for i := 0; i+1 < len(pts); i++ {
		var active []Event
		for _, e := range evs {
			if e.LE <= pts[i] && pts[i+1] <= e.RE {
				active = append(active, e)
			}
		}
		for _, row := range fn(active) {
			out = append(out, Event{LE: pts[i], RE: pts[i+1], Payload: row})
		}
	}
	return Coalesce(out)
}

// aggregateOf is a snapshot aggregate over the values of column col of the
// active events (Count ignores col).
func aggregateOf(agg AggKind, active []Event, col int) (Value, bool) {
	if len(active) == 0 {
		return Null, false
	}
	res := active[0].Payload[col]
	var sum float64
	for _, e := range active {
		v := e.Payload[col]
		sum += v.AsFloat()
		if agg == AggMin && v.Compare(res) < 0 || agg == AggMax && v.Compare(res) > 0 {
			res = v
		}
	}
	switch {
	case agg == AggCount:
		res = Int(int64(len(active)))
	case agg == AggAvg:
		res = Float(sum / float64(len(active)))
	case agg == AggSum && res.Kind() == KindFloat:
		res = Float(sum)
	case agg == AggSum:
		res = Int(int64(sum))
	}
	return res, true
}

// lifetimes applies a lifetime change to every event, as the plan's
// AlterLifetime does to each one.
func lifetimes(evs []Event, fn func(le, re Time) (Time, Time)) []Event {
	out := make([]Event, len(evs))
	for i, e := range evs {
		le, re := fn(e.LE, e.RE)
		out[i] = Event{LE: le, RE: max(re, le+1), Payload: e.Payload}
	}
	return out
}

// points is ToPoint: defined on the relation, so on its coalesced form.
func points(rel []Event) []Event {
	return lifetimes(Coalesce(slices.Clone(rel)), func(le, _ Time) (Time, Time) { return le, le + 1 })
}

func window(w Time) func(le, re Time) (Time, Time) {
	return func(le, _ Time) (Time, Time) { return le, le + w }
}

func hop(w, h Time) func(le, re Time) (Time, Time) {
	return func(le, _ Time) (Time, Time) { return floorDiv(le, h)*h + h, floorDiv(le+w, h)*h + h }
}

func shift(d Time) func(le, re Time) (Time, Time) {
	return func(le, re Time) (Time, Time) { return le + d, re + d }
}

func where(evs []Event, keep func(Row) bool) []Event {
	var out []Event
	for _, e := range evs {
		if keep(e.Payload) {
			out = append(out, e)
		}
	}
	return out
}

// diffBranch is one aggregate branch of a drawn sub-plan, in a form both
// the plan builder and the oracle read.
type diffBranch struct {
	minV      int64 // pre-filter V > minV (-1: everything passes)
	window    Time  // 0: lifetimes as fed (arbitrary RE — the heap fallback)
	hop       Time  // > 0: hopping window of width window
	agg       AggKind
	col       string // "V", "F", or "" under Count
	postFloor Value  // post-filter result > postFloor; Null: none
}

func (b diffBranch) plan(g *Plan, as string) *Plan {
	if b.minV >= 0 {
		g = g.Where(ColGtInt("V", b.minV))
	}
	switch {
	case b.hop > 0:
		g = g.WithHop(b.window, b.hop)
	case b.window > 0:
		g = g.WithWindow(b.window)
	}
	g = g.aggregate(b.agg, b.col, as)
	if b.postFloor.Kind() != KindNull {
		g = g.Where(FnPred(as+">floor", func(v []Value) bool { return v[0].Compare(b.postFloor) > 0 }, as))
	}
	return g
}

// rel is the oracle's side of plan: the branch over one key's events.
func (b diffBranch) rel(evs []Event) []Event {
	in := where(evs, func(r Row) bool { return r[2].AsInt() > b.minV })
	switch {
	case b.hop > 0:
		in = lifetimes(in, hop(b.window, b.hop))
	case b.window > 0:
		in = lifetimes(in, window(b.window))
	}
	col := reclaimSchema().MustIndex(cmp.Or(b.col, "V"))
	return snapshots(in, func(active []Event) []Row {
		res, ok := aggregateOf(b.agg, active, col)
		if !ok || b.postFloor.Kind() != KindNull && res.Compare(b.postFloor) <= 0 {
			return nil
		}
		return []Row{{res}}
	})
}

// diffUDO reports, per window, its first and last row's Time, the row count
// and the sum of V: sensitive to the order rows are handed over in, not to
// how LE ties are ordered. A window summing to 0 yields nothing.
func diffUDO(w, h Time) UDOSpec {
	return UDOSpec{
		Name: "firstlast", Window: w, Hop: h,
		Out: NewSchema(Field{Name: "First", Kind: KindInt}, Field{Name: "Last", Kind: KindInt},
			Field{Name: "N", Kind: KindInt}, Field{Name: "S", Kind: KindInt}),
		Fn: func(ws, we Time, rows []Row) []Row {
			var s int64
			for _, r := range rows {
				s += r[2].AsInt()
			}
			if s == 0 {
				return nil
			}
			return []Row{{rows[0][0], rows[len(rows)-1][0], Int(int64(len(rows))), Int(s)}}
		},
	}
}

// udoRel is diffUDO by enumeration: every window end a multiple of h.
func udoRel(evs []Event, w, h Time) []Event {
	if len(evs) == 0 {
		return nil
	}
	spec := diffUDO(w, h)
	var out []Event
	for end := floorDiv(evs[0].LE, h)*h + h; end-w <= evs[len(evs)-1].LE; end += h {
		var rows []Row
		for _, e := range evs { // LE order, as fed
			if end-w <= e.LE && e.LE < end {
				rows = append(rows, e.Payload)
			}
		}
		if len(rows) > 0 {
			for _, r := range spec.Fn(end-w, end, rows) {
				out = append(out, Event{LE: end, RE: end + h, Payload: r})
			}
		}
	}
	return out
}

// The drawn sub-plan shapes.
const (
	shapeAgg       = iota // one aggregate branch
	shapeUnion            // two, tagged and unioned
	shapeJoin             // two, joined without keys
	shapeUDO              // a UDO branch
	shapeAbove            // ToPoint, ToPoint+window or a shift above a branch
	shapeAggKeyed         // an aggregate over a branch's windowed points
	shapeKeyJoin          // a keyed join of two windowed input streams, with a condition or not
	shapeAntiSemi         // input points, less those a windowed input stream covers
	shapeNested           // GroupApply inside: over the input, or over a branch's points
	shapeStateless        // no stateful node at all
	nshapes
)

// keylessShapes are the shapes that also run key-less: the sub-plan over
// the whole input, with no GroupApply.
var keylessShapes = []int{shapeAgg, shapeUnion, shapeJoin, shapeUDO, shapeAbove, shapeAggKeyed, shapeStateless}

// diffDraw is one seeded case: a sub-plan and its input.
type diffDraw struct {
	shape    int
	variant  int  // a choice within the shape
	keyless  bool // the sub-plan over Scan("in") itself, one key
	branches [2]diffBranch
	w, h     Time // the shape's own extents
	events   []Event
}

func drawDiff(r *rand.Rand, shape int) diffDraw {
	d := diffDraw{shape: shape, variant: r.Intn(3), w: 1 + Time(r.Intn(8)), h: 1 + Time(r.Intn(4))}
	agg, col := []AggKind{AggCount, AggSum, AggSum, AggAvg, AggMin, AggMax}[r.Intn(6)], []string{"V", "F"}[r.Intn(2)]
	for i := range d.branches {
		b := diffBranch{minV: int64(r.Intn(4)) - 1, agg: agg, col: col, postFloor: Null}
		if d.shape == shapeJoin { // a union's sides share a schema, a join's need not
			b.agg, b.col = []AggKind{AggCount, AggSum, AggAvg, AggMin, AggMax}[r.Intn(5)], []string{"V", "F"}[r.Intn(2)]
		}
		if d.shape == shapeAggKeyed && b.agg == AggAvg { // a sum of averages is not exact
			b.agg = AggMax
		}
		if b.agg == AggCount {
			b.col = ""
		}
		switch r.Intn(3) {
		case 0:
			b.window = 1 + Time(r.Intn(9))
		case 1:
			b.hop = 1 + Time(r.Intn(5))
			b.window = b.hop * Time(1+r.Intn(3))
		}
		if r.Intn(2) == 0 {
			if b.postFloor = Int(1); b.agg == AggAvg || b.col == "F" && b.agg != AggCount {
				b.postFloor = Float(1)
			}
		}
		d.branches[i] = b
	}
	// Small LE, key and value domains force ties. F is in quarters, so every
	// sum is exact and the oracle, which adds in another order, agrees to
	// the bit.
	t := Time(0)
	for i, n := 0, 20+r.Intn(40); i < n; i++ {
		t += Time(r.Intn(3))
		row := Row{Int(t), Int(int64(r.Intn(3))), Int(int64(r.Intn(6))), Float(float64(r.Intn(40)-8) / 4)}
		d.events = append(d.events, Event{LE: t, RE: t + 1 + Time(r.Intn(12)), Payload: row})
	}
	return d
}

var fLess = &JoinPred{LeftCols: []string{"F"}, RightCols: []string{"F"}, Desc: "F < r.F",
	Make: func(li, ri []int) func(l, r Row) bool {
		return func(l, r Row) bool { return l[li[0]].Compare(r[ri[0]]) < 0 }
	}}

func (d diffDraw) plan() *Plan {
	build := reclaimPlan
	if d.keyless {
		build = func(sub func(g *Plan) *Plan) *Plan { return sub(Scan("in", reclaimSchema())) }
	}
	return build(func(g *Plan) *Plan {
		a, b := d.branches[0], d.branches[1]
		filtered := g
		if a.minV >= 0 {
			filtered = g.Where(ColGtInt("V", a.minV))
		}
		switch d.shape {
		case shapeUnion: // tagged, so equal results of the two sides stay distinct
			left, right := a.plan(g, "A"), b.plan(g, "A")
			if d.variant == 2 { // one branch read twice
				right = left
			}
			return left.Project(Keep("A"), ConstInt("Side", 0)).Union(right.Project(Keep("A"), ConstInt("Side", 1)))
		case shapeJoin:
			return a.plan(g, "A").Join(b.plan(g, "B"), nil, nil, nil)
		case shapeUDO:
			u := filtered.Apply(diffUDO(d.w, d.h))
			if d.variant == 1 {
				u = u.Where(ColGtInt("N", 1))
			}
			return u
		case shapeAbove:
			return [...]*Plan{a.plan(g, "A").ToPoint(), a.plan(g, "A").ToPoint().WithWindow(d.w), a.plan(g, "A").ShiftLifetime(d.h - 3)}[d.variant]
		case shapeAggKeyed:
			p := a.plan(g, "A").ToPoint().WithWindow(d.w)
			if d.variant == 0 {
				return p.Count("N")
			}
			return p.Sum("A", "N")
		case shapeKeyJoin:
			var cond *JoinPred
			if d.variant == 1 {
				cond = fLess
			}
			return filtered.WithWindow(d.w).Join(g.WithWindow(d.h), []string{"V"}, []string{"V"}, cond).
				Project(Keep("Time"), Keep("V"), Keep("F"), Keep("r.Time"), Keep("r.F")) // the key is the GroupApply's to add
		case shapeAntiSemi:
			right := filtered.WithWindow(d.w)
			if d.variant == 1 {
				right = right.ShiftLifetime(-d.h)
			}
			return g.ToPoint().AntiSemiJoin(right, []string{"V"}, []string{"V"}).Project(Keep("Time"), Keep("V"), Keep("F"))
		case shapeNested:
			if d.variant == 0 {
				return g.GroupApply([]string{"V"}, func(h *Plan) *Plan { return a.plan(h, "A") })
			}
			return a.plan(g, "A").ToPoint().GroupApply([]string{"A"}, func(h *Plan) *Plan { return h.WithWindow(d.w).Count("N") })
		case shapeStateless:
			s := [...]*Plan{filtered.WithWindow(d.w), filtered.WithHop(d.w*d.h, d.h), filtered.ShiftLifetime(d.h - 3)}[d.variant]
			if d.w%2 == 0 {
				return s.Project(Keep("V"), Keep("F"))
			}
			return s.Project(Keep("Time"), Keep("V"), Keep("F"))
		}
		return a.plan(g, "A")
	})
}

// rel is the oracle's side of plan over one key's events.
func (d diffDraw) rel(evs []Event) []Event {
	a, b := d.branches[0], d.branches[1]
	filtered := where(evs, func(r Row) bool { return r[2].AsInt() > a.minV })
	tag := func(rel []Event, side int64) []Event {
		out := make([]Event, len(rel))
		for i, e := range rel {
			out[i] = Event{LE: e.LE, RE: e.RE, Payload: Row{e.Payload[0], Int(side)}}
		}
		return out
	}
	count := func(active []Event) []Row { return []Row{{Int(int64(len(active)))}} }
	cols := func(rel []Event, cols ...int) []Event {
		out := make([]Event, len(rel))
		for i, e := range rel {
			out[i] = Event{LE: e.LE, RE: e.RE, Payload: make(Row, len(cols))}
			for j, c := range cols {
				out[i].Payload[j] = e.Payload[c]
			}
		}
		return out
	}
	switch d.shape {
	case shapeUnion:
		if d.variant == 2 {
			b = a
		}
		return append(tag(a.rel(evs), 0), tag(b.rel(evs), 1)...)
	case shapeJoin:
		return overlapJoin(a.rel(evs), b.rel(evs), 0, nil, 0)
	case shapeUDO:
		out := udoRel(filtered, d.w, d.h)
		if d.variant == 1 {
			out = where(out, func(r Row) bool { return r[2].AsInt() > 1 })
		}
		return out
	case shapeAbove:
		return [...][]Event{points(a.rel(evs)), lifetimes(points(a.rel(evs)), window(d.w)), lifetimes(a.rel(evs), shift(d.h-3))}[d.variant]
	case shapeAggKeyed:
		return snapshots(lifetimes(points(a.rel(evs)), window(d.w)), func(active []Event) []Row {
			if len(active) == 0 {
				return nil
			}
			if d.variant == 0 {
				return count(active)
			}
			sum, _ := aggregateOf(AggSum, active, 0)
			return []Row{{sum}}
		})
	case shapeKeyJoin:
		return cols(overlapJoin(lifetimes(filtered, window(d.w)), lifetimes(evs, window(d.h)), 0, func(l, r Row) bool {
			return l[2].Equal(r[2]) && (d.variant != 1 || l[3].Compare(r[3]) < 0)
		}, 0), 0, 2, 3, 4, 7)
	case shapeAntiSemi:
		right := lifetimes(filtered, window(d.w))
		if d.variant == 1 {
			right = lifetimes(right, shift(-d.h))
		}
		var out []Event
	next:
		for _, p := range points(evs) {
			for _, c := range right {
				if c.LE <= p.LE && p.LE < c.RE && c.Payload[2].Equal(p.Payload[2]) {
					continue next
				}
			}
			out = append(out, p)
		}
		return cols(out, 0, 2, 3)
	case shapeNested:
		var out []Event
		if d.variant == 0 {
			for v := int64(0); v < 6; v++ {
				out = append(out, keyed(Int(v), a.rel(where(evs, func(r Row) bool { return r[2].AsInt() == v })))...)
			}
			return out
		}
		pts := points(a.rel(evs))
		var vals []Value
		for _, p := range pts {
			if !slices.ContainsFunc(vals, p.Payload[0].Equal) {
				vals = append(vals, p.Payload[0])
			}
		}
		for _, v := range vals {
			mine := where(pts, func(r Row) bool { return r[0].Equal(v) })
			out = append(out, keyed(v, snapshots(lifetimes(mine, window(d.w)), func(active []Event) []Row {
				if len(active) == 0 {
					return nil
				}
				return count(active)
			}))...)
		}
		return out
	case shapeStateless:
		out := lifetimes(filtered, [...]func(le, re Time) (Time, Time){window(d.w), hop(d.w*d.h, d.h), shift(d.h - 3)}[d.variant])
		if d.w%2 == 0 {
			return cols(out, 2, 3)
		}
		return cols(out, 0, 2, 3)
	}
	return a.rel(evs)
}

// keyed prefixes every row of rel with key.
func keyed(key Value, rel []Event) []Event {
	out := make([]Event, len(rel))
	for i, e := range rel {
		out[i] = Event{LE: e.LE, RE: e.RE, Payload: append(Row{key}, e.Payload...)}
	}
	return out
}

// oracle evaluates d under snapshot semantics with no operator: per key,
// relationally, or over the whole stream when d is key-less.
func (d diffDraw) oracle() []Event {
	if d.keyless {
		return Coalesce(d.rel(d.events))
	}
	var out []Event
	for k := int64(0); k < 3; k++ {
		out = append(out, keyed(Int(k), d.rel(where(d.events, func(r Row) bool { return r[1].AsInt() == k })))...)
	}
	return Coalesce(out)
}

// below is the relation rel holds before t, coalesced.
func below(rel []Event, t Time) []Event {
	var out []Event
	for _, e := range rel {
		if e.LE < t {
			e.RE = min(e.RE, t)
			out = append(out, e)
		}
	}
	return Coalesce(out)
}

// TestGroupApplyLoweringDifferential draws sub-plans of every shape
// GroupApply distributes over and runs each under one drawn punctuation
// schedule, feed path and checkpoint→restore point. After every step, what
// has been delivered below the watermark must be the oracle's relation
// there; after Flush, all of it. The same draws of the key-less shapes run
// again with no GroupApply: a top-level aggregate, UDO and their
// combinations, judged over the whole stream.
func TestGroupApplyLoweringDifferential(t *testing.T) {
	var outputs [2][nshapes]int
	for i := 0; i < 800; i++ {
		seed, mode := int64(i%400+1), i/400 // mode 1: key-less
		keyless := mode == 1
		if keyless && !slices.Contains(keylessShapes, int(seed)%nshapes) {
			continue
		}
		r := rand.New(rand.NewSource(seed))
		d := drawDiff(r, int(seed)%nshapes)
		d.keyless = keyless
		period := []Time{0, 0, 1, 7}[r.Intn(4)] // 0: explicit Advance only, or none
		advanceOdds := r.Intn(3) * 4            // 0 (never), 1 in 4, 1 in 8 events
		feedPath, split := r.Intn(3), r.Intn(len(d.events)+1)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d (shape %d/%d, key-less %t, period %d, feed path %d, restore at %d): %s\n%v%+v w=%d h=%d", seed, d.shape, d.variant,
				keyless, period, feedPath, split, fmt.Sprintf(format, args...), d.plan(), d.branches, d.w, d.h)
		}
		want := d.oracle()
		outputs[mode][d.shape] += len(want)

		sink := &seqSink{}
		build := func() *Engine {
			eng, err := NewEngine(d.plan(), WithSink(sink), WithCTIPeriod(period))
			if err != nil {
				fail("compile: %v", err)
			}
			return eng
		}
		eng := build()
		wm := MinTime // a merger forwards a repeated CTI once: compare at the watermark
		var got []Event
		seen := 0
		compare := func(step string, flushed bool) {
			for _, tok := range sink.tokens[seen:] {
				if tok.isCTI {
					wm = tok.t
				} else {
					got = append(got, tok.ev)
				}
			}
			seen = len(sink.tokens)
			upto := wm
			if flushed {
				upto = MaxTime
			}
			if g, w := below(got, upto), below(want, upto); !EventsEqual(g, w) {
				fail("%s: delivered below %d\n%v\nthe oracle's relation there\n%v", step, upto, g, w)
			}
		}
		for from := 0; ; {
			if from == split {
				snap := eng.Checkpoint()
				if eng = build(); eng.Restore(snap) != nil || !bytes.Equal(eng.Checkpoint(), snap) {
					fail("restore at %d fails (%v) or is lossy", from, build().Restore(snap))
				}
			}
			if from == len(d.events) {
				break
			}
			// One step: events up to the restore point, the end, or a drawn
			// explicit punctuation at the next event's time.
			to, advance := from+1, false
			for ; to < len(d.events) && to != split && !advance; to++ {
				advance = advanceOdds > 0 && r.Intn(advanceOdds) == 0
			}
			if advance {
				to--
			}
			run := d.events[from:to]
			switch feedPath {
			case 0:
				for _, e := range run {
					eng.Feed("in", e)
				}
			case 1:
				if err := eng.FeedMerged([]Run{{Source: "in", Events: run}}); err != nil {
					fail("FeedMerged: %v", err)
				}
			case 2: // two runs, the later half first: LE ties across the cut swap
				cut := len(run) / 2
				if err := eng.FeedMerged([]Run{{Source: "in", Events: run[cut:]}, {Source: "in", Events: run[:cut]}}); err != nil {
					fail("FeedMerged: %v", err)
				}
			}
			if advance {
				eng.Advance(d.events[to].LE)
			}
			compare(fmt.Sprintf("after events [%d,%d)", from, to), false)
			from = to
		}
		eng.Flush()
		compare("flush", true)
	}
	t.Logf("oracle events per shape, grouped then key-less: %v", outputs)
	for shape := range nshapes {
		for mode, n := range outputs {
			if n[shape] < 100 && (mode == 0 || slices.Contains(keylessShapes, shape)) {
				t.Errorf("shape %d (key-less %t): the oracle produced %d events over all its draws; too few to mean anything", shape, mode == 1, n[shape])
			}
		}
	}
}
