package temporal

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// diffBranch is one aggregate branch of a drawn GroupApply sub-plan, in a
// form both the plan builder and the brute-force oracle read.
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

// lifetime is what the branch's AlterLifetime makes of e's.
func (b diffBranch) lifetime(e Event) (le, re Time) {
	switch {
	case b.hop > 0:
		return floorDiv(e.LE, b.hop)*b.hop + b.hop, floorDiv(e.LE+b.window, b.hop)*b.hop + b.hop
	case b.window > 0:
		return e.LE, e.LE + b.window
	}
	return e.LE, e.RE
}

// eval is the oracle's side of plan: the branch's result over one key's
// events at the snapshot [lo, hi), by enumeration.
func (b diffBranch) eval(events []Event, lo, hi Time) (Value, bool) {
	var vals []Value
	for _, e := range events {
		if le, re := b.lifetime(e); e.Payload[2].AsInt() > b.minV && le <= lo && hi <= re {
			vals = append(vals, e.Payload[reclaimSchema().MustIndex(cmp.Or(b.col, "V"))])
		}
	}
	if len(vals) == 0 {
		return Null, false
	}
	res := vals[0]
	var sum float64
	for _, v := range vals {
		sum += v.AsFloat()
		if b.agg == AggMin && v.Compare(res) < 0 || b.agg == AggMax && v.Compare(res) > 0 {
			res = v
		}
	}
	switch {
	case b.agg == AggCount:
		res = Int(int64(len(vals)))
	case b.agg == AggAvg:
		res = Float(sum / float64(len(vals)))
	case b.agg == AggSum && b.col == "F":
		res = Float(sum)
	case b.agg == AggSum:
		res = Int(int64(sum))
	}
	return res, b.postFloor.Kind() == KindNull || res.Compare(b.postFloor) > 0
}

// diffDraw is one seeded case: a sub-plan that is a branch, a union of two
// or a keyless join of two, and its input.
type diffDraw struct {
	shape    OpKind // OpAggregate (one branch), OpUnion, OpTemporalJoin
	branches [2]diffBranch
	events   []Event
	exact    bool // float arithmetic is exact: the oracle applies to the bit
}

func drawDiff(r *rand.Rand) diffDraw {
	d := diffDraw{shape: []OpKind{OpAggregate, OpUnion, OpTemporalJoin}[r.Intn(3)]}
	agg, col := []AggKind{AggCount, AggSum, AggSum, AggAvg, AggMin, AggMax}[r.Intn(6)], []string{"V", "F"}[r.Intn(2)]
	for i := range d.branches {
		b := diffBranch{minV: int64(r.Intn(4)) - 1, agg: agg, col: col, postFloor: Null}
		if d.shape == OpTemporalJoin { // a union's sides share a schema, a join's need not
			b.agg, b.col = []AggKind{AggCount, AggSum, AggAvg, AggMin, AggMax}[r.Intn(5)], []string{"V", "F"}[r.Intn(2)]
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
	// Small LE, key and value domains force ties. In half the draws F is
	// dyadic, so that every sum is exact and the oracle, which adds in
	// another order, agrees to the bit; in the rest it is in twelfths, whose
	// rounding residue only the two lowerings have to agree on.
	t, frac := Time(0), float64(1+2*r.Intn(2))
	d.exact = frac == 1 || d.branches[0].col != "F" && d.branches[1].col != "F"
	for i, n := 0, 20+r.Intn(40); i < n; i++ {
		t += Time(r.Intn(3))
		row := Row{Int(t), Int(int64(r.Intn(3))), Int(int64(r.Intn(6))), Float(float64(r.Intn(40)-8) / 4 / frac)}
		d.events = append(d.events, Event{LE: t, RE: t + 1 + Time(r.Intn(12)), Payload: row})
	}
	return d
}

func (d diffDraw) plan() *Plan {
	return reclaimPlan(func(g *Plan) *Plan {
		a, b := d.branches[0].plan(g, "A"), d.branches[1]
		switch d.shape {
		case OpUnion: // tagged, so equal results of the two sides stay distinct
			return a.Project(Keep("A"), ConstInt("Side", 0)).Union(b.plan(g, "A").Project(Keep("A"), ConstInt("Side", 1)))
		case OpTemporalJoin:
			return a.Join(b.plan(g, "B"), nil, nil, nil)
		}
		return a
	})
}

// oracle evaluates d under snapshot semantics with no operator: per key,
// at every interval between lifetime endpoints, relationally.
func (d diffDraw) oracle() []Event {
	var out []Event
	for k := int64(0); k < 3; k++ {
		var evs []Event
		pts := []Time{}
		for _, e := range d.events {
			if e.Payload[1].AsInt() == k {
				evs = append(evs, e)
				for _, b := range d.branches {
					le, re := b.lifetime(e)
					pts = append(pts, le, re)
				}
			}
		}
		slices.Sort(pts)
		pts = slices.Compact(pts)
		for i := 0; i+1 < len(pts); i++ {
			a, aok := d.branches[0].eval(evs, pts[i], pts[i+1])
			b, bok := d.branches[1].eval(evs, pts[i], pts[i+1])
			emit := func(row ...Value) {
				out = append(out, Event{LE: pts[i], RE: pts[i+1], Payload: append(Row{Int(k)}, row...)})
			}
			switch {
			case d.shape == OpAggregate && aok:
				emit(a)
			case d.shape == OpTemporalJoin && aok && bok:
				emit(a, b)
			case d.shape == OpUnion:
				if aok {
					emit(a, Int(0))
				}
				if bok {
					emit(b, Int(1))
				}
			}
		}
	}
	return Coalesce(out)
}

// TestGroupApplyLoweringDifferential draws sub-plans of every shape the
// compiler lowers to grouped kernels and runs each twice, lowered and as
// the generic per-key groupApplyOp (built directly), under one drawn
// punctuation schedule, feed path and checkpoint→restore point. After
// every step the two must have delivered the same events, raw — in the
// same order for a single branch, up to LE ties for a distributed union or
// join, whose merger orders ties by side — under the same watermark; the
// coalesced whole must equal the brute-force oracle.
func TestGroupApplyLoweringDifferential(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := drawDiff(r)
		period := []Time{0, 0, 1, 7}[r.Intn(4)] // 0: explicit Advance only, or none
		advanceOdds := r.Intn(3) * 4            // 0 (never), 1 in 4, 1 in 8 events
		feedPath, split := r.Intn(3), r.Intn(len(d.events)+1)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d (period %d, feed path %d, restore at %d): %s\n%v%+v", seed, period, feedPath, split,
				fmt.Sprintf(format, args...), d.plan(), d.branches)
		}

		sinks := [2]*seqSink{{}, {}} // lowered, generic
		build := func(i int) *Engine {
			if i == 0 {
				eng, err := NewEngine(d.plan(), WithSink(sinks[0]), WithCTIPeriod(period))
				if err != nil {
					fail("compile: %v", err)
				}
				if _, ok := eng.pipeline.ckpts[0].(subOps); !ok {
					fail("not lowered: %T", eng.pipeline.ckpts[0])
				}
				return eng
			}
			pl := &Pipeline{inputs: map[string]Sink{}, schemas: map[string]*Schema{"in": reclaimSchema()}}
			g := newGroupApplyOp(d.plan(), &pl.auto, sinks[1])
			pl.inputs["in"], pl.ckpts = g, []Checkpointer{g}
			return &Engine{pipeline: pl, sink: sinks[1], CTIPeriod: period, lastCTI: MinTime}
		}
		engines := [2]*Engine{build(0), build(1)}
		// A hopping lifetime starts ahead of its event. The kernel, sweeping
		// all keys on every event, may then have closed a segment beyond a
		// punctuation that per-key evaluation, which sweeps a key on its own
		// events only, still cuts it at: what has been delivered is then the
		// same relation only below the watermark (everything, after Flush).
		hopped := d.branches[0].hop > 0 || d.shape != OpAggregate && d.branches[1].hop > 0
		var seen [2]int
		var all [2][]Event
		var wm [2]Time // a merger forwards a repeated CTI once: compare the watermark
		compare := func(step string, flushed bool) {
			var evs [2][]Event
			for i, s := range sinks {
				for _, tok := range s.tokens[seen[i]:] {
					if tok.isCTI {
						wm[i] = tok.t
					} else {
						evs[i] = append(evs[i], tok.ev)
					}
				}
				seen[i] = len(s.tokens)
				all[i] = append(all[i], evs[i]...)
				switch {
				case hopped:
					evs[i] = nil
					for _, e := range all[i] {
						if !flushed {
							e.RE = min(e.RE, wm[i])
						}
						if e.LE < e.RE {
							evs[i] = append(evs[i], e)
						}
					}
					evs[i] = Coalesce(evs[i])
				case d.shape != OpAggregate:
					SortEvents(evs[i])
				}
			}
			if !EventsEqual(evs[0], evs[1]) || wm[0] != wm[1] {
				fail("%s: lowered delivered %v under CTI %d, generic %v under CTI %d", step, evs[0], wm[0], evs[1], wm[1])
			}
		}
		for from := 0; ; {
			if from == split {
				for i, eng := range engines {
					snap := eng.Checkpoint()
					engines[i] = build(i)
					if err := engines[i].Restore(snap); err != nil {
						fail("restore of engine %d: %v", i, err)
					}
					if !bytes.Equal(engines[i].Checkpoint(), snap) {
						fail("restore of engine %d is lossy", i)
					}
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
			for _, eng := range engines {
				switch feedPath {
				case 0:
					for _, e := range run {
						eng.Feed("in", e)
					}
				case 1:
					eng.FeedBatch("in", &Batch{Events: run})
				case 2: // two runs, the later half first: LE ties across the cut swap
					cut := len(run) / 2
					if _, err := eng.FeedMerged([]Run{{Source: "in", Events: run[cut:]}, {Source: "in", Events: run[:cut]}}); err != nil {
						fail("FeedMerged: %v", err)
					}
				}
				if advance {
					eng.Advance(d.events[to].LE)
				}
			}
			compare(fmt.Sprintf("after events [%d,%d)", from, to), false)
			from = to
		}
		for _, eng := range engines {
			eng.Flush()
		}
		compare("flush", true)
		if got, want := Coalesce(all[0]), d.oracle(); d.exact && !EventsEqual(got, want) {
			fail("coalesced result\n%v\ndiverges from the oracle\n%v", got, want)
		}
	}
}
