package temporal

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// bruteSnapshotCount computes the canonical windowed-count output of a set
// of interval events by explicit snapshot enumeration: for every maximal
// interval between lifetime endpoints, count the events containing it.
// This is the oracle the incremental aggregate kernel must match.
func bruteSnapshotCount(events []Event) []Event {
	if len(events) == 0 {
		return nil
	}
	var pts []Time
	for _, e := range events {
		pts = append(pts, e.LE, e.RE)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	uniq := pts[:0]
	for i, p := range pts {
		if i == 0 || p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	var out []Event
	for i := 0; i+1 < len(uniq); i++ {
		lo, hi := uniq[i], uniq[i+1]
		n := int64(0)
		for _, e := range events {
			if e.LE <= lo && hi <= e.RE {
				n++
			}
		}
		if n > 0 {
			out = append(out, Event{LE: lo, RE: hi, Payload: Row{Int(n)}})
		}
	}
	return Coalesce(out)
}

// genEvents builds a random batch of point events at small timestamps so
// windows overlap heavily.
func genEvents(r *rand.Rand, n int) []Event {
	sch := []Field{{Name: "Time", Kind: KindInt}, {Name: "V", Kind: KindInt}}
	_ = sch
	out := make([]Event, n)
	t := Time(0)
	for i := range out {
		t += Time(r.Intn(5))
		out[i] = PointEvent(t, Row{Int(t), Int(int64(r.Intn(10)))})
	}
	return out
}

func propSchema() *Schema {
	return NewSchema(Field{Name: "Time", Kind: KindInt}, Field{Name: "V", Kind: KindInt})
}

func TestPropertyWindowedCountMatchesOracle(t *testing.T) {
	err := quick.Check(func(seed int64, nRaw uint8, wRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 1
		w := Time(wRaw%20) + 1
		events := genEvents(r, n)

		plan := Scan("in", propSchema()).WithWindow(w).Count("C")
		got, err := RunPlan(plan, map[string][]Event{"in": events})
		if err != nil {
			return false
		}
		// Oracle: widen the same events and enumerate snapshots.
		widened := make([]Event, len(events))
		for i, e := range events {
			widened[i] = Event{LE: e.LE, RE: e.LE + w, Payload: e.Payload}
		}
		want := bruteSnapshotCount(widened)
		return EventsEqual(got, want)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// schedulePlans are GroupApply plans over reclaimSchema, keyed by K: the
// reclaim tests' sub-plans plus a nested GroupApply, each also followed by
// ToPoint (whose raw output, not only the coalesced one, must be stable:
// it suppresses the continuations punctuation cuts).
func schedulePlans() map[string]func() *Plan {
	subs := map[string]func(g *Plan) *Plan{
		"nested": func(g *Plan) *Plan {
			return g.GroupApply([]string{"V"}, func(h *Plan) *Plan { return h.WithWindow(6).Count("C") })
		},
	}
	for _, name := range []string{"count", "hopping", "sum", "avg", "min", "max", "union"} {
		subs[name] = reclaimSubPlans[name]
	}
	plans := map[string]func() *Plan{}
	for name, sub := range subs {
		sub := sub
		plans[name] = func() *Plan { return reclaimPlan(sub) }
		plans[name+"/topoint"] = func() *Plan { return reclaimPlan(sub).ToPoint() }
	}
	return plans
}

func TestPropertyCTIFrequencyInvariance(t *testing.T) {
	// The paper's repeatability guarantee (§III-C.1): results depend only
	// on application time. How often — and by whom — a run is punctuated
	// is a physical concern and must not alter the output: not the
	// automatic schedule at periods on both sides of GroupApply's thinning
	// gap (the sub-plan's extent), not a caller's Advance after every
	// event, not the absence of any CTI before Flush.
	for name, mk := range schedulePlans() {
		mk := mk
		t.Run(name, func(t *testing.T) {
			extent := mk().MaxWindow()
			for seed := int64(1); seed <= 6; seed++ {
				events := genBursty(rand.New(rand.NewSource(seed)), 8)
				run := func(period Time, explicit bool) (coalesced []Event, raw int) {
					eng, err := NewEngine(mk(), WithCTIPeriod(period))
					if err != nil {
						t.Fatal(err)
					}
					for _, ev := range events {
						eng.Feed("in", ev)
						if explicit {
							eng.Advance(ev.LE)
						}
					}
					eng.Flush()
					return eng.Results(), len(eng.collect.Events)
				}
				want, wantRaw := run(0, false) // flush-driven
				check := func(schedule string, got []Event, raw int) {
					if !EventsEqual(got, want) {
						t.Fatalf("seed %d, %s: %d events, unpunctuated %d:\n%v\n%v", seed, schedule, len(got), len(want), got, want)
					}
					if strings.HasSuffix(name, "/topoint") && raw != wantRaw {
						t.Fatalf("seed %d, %s: %d raw points, unpunctuated %d", seed, schedule, raw, wantRaw)
					}
				}
				for _, period := range []Time{1, max(1, extent/8), extent, 10 * extent} {
					got, raw := run(period, false)
					check(fmt.Sprintf("auto period %d", period), got, raw)
				}
				got, raw := run(0, true)
				check("Advance after every event", got, raw)
			}
		})
	}
}

// TestExplicitAdvanceIsNeverSwallowed: a caller acts on Advance(t) having
// returned (a streaming stage punctuates its consumer at t), so the CTI
// must have crossed every GroupApply on the way to the sink — chained and
// nested ones too, however close t is to the previous punctuation — moved
// only by the lifetime shifts on its path.
func TestExplicitAdvanceIsNeverSwallowed(t *testing.T) {
	count := reclaimSubPlans["count"]
	plans := map[string]struct {
		plan  *Plan
		shift Time
	}{
		"single":  {reclaimPlan(count), 0},
		"nested":  {schedulePlans()["nested"](), 0},
		"shifted": {reclaimPlan(count).ShiftLifetime(-3), -3},
		"chained": {reclaimPlan(count).ToPoint().GroupApply([]string{"C"}, func(g *Plan) *Plan {
			return g.WithWindow(20).Count("N")
		}), 0},
	}
	events := genBursty(rand.New(rand.NewSource(3)), 8)
	for name, c := range plans {
		// Under an automatic schedule as well: its thinning must not leak
		// into the explicit punctuations interleaved with it.
		for _, period := range []Time{0, 2} {
			out := &seqSink{}
			eng, err := NewEngine(c.plan, WithSink(out), WithCTIPeriod(period))
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range events {
				eng.Feed("in", ev)
				eng.Advance(ev.LE)
				if n := len(out.tokens); n == 0 || !out.tokens[n-1].isCTI || out.tokens[n-1].t != ev.LE+c.shift {
					t.Fatalf("%s, auto period %d: Advance(%d) returned without its CTI at the sink (last of %d tokens: %+v)",
						name, period, ev.LE, n, out.tokens[max(n, 1)-1:])
				}
			}
		}
	}
}

func TestPropertySumMatchesCountTimesValue(t *testing.T) {
	// Feeding constant values, Sum == k * Count over every snapshot.
	err := quick.Check(func(seed int64, nRaw, wRaw uint8, k int16) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%30) + 1
		w := Time(wRaw%10) + 1
		kk := int64(k)
		events := genEvents(r, n)
		for i := range events {
			events[i].Payload[1] = Int(kk)
		}
		sumPlan := Scan("in", propSchema()).WithWindow(w).Sum("V", "S")
		cntPlan := Scan("in", propSchema()).WithWindow(w).Count("C")
		sums, err1 := RunPlan(sumPlan, map[string][]Event{"in": events})
		cnts, err2 := RunPlan(cntPlan, map[string][]Event{"in": events})
		if err1 != nil || err2 != nil {
			return false
		}
		if kk == 0 {
			// Sum of zeros coalesces into long runs of 0; just check all
			// payloads are zero.
			for _, e := range sums {
				if e.Payload[0].AsInt() != 0 {
					return false
				}
			}
			return true
		}
		if len(sums) != len(cnts) {
			return false
		}
		for i := range sums {
			if sums[i].LE != cnts[i].LE || sums[i].RE != cnts[i].RE {
				return false
			}
			if sums[i].Payload[0].AsInt() != kk*cnts[i].Payload[0].AsInt() {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Error(err)
	}
}

func TestPropertyMinMaxEnvelope(t *testing.T) {
	// Over every snapshot, Min <= Avg <= Max.
	err := quick.Check(func(seed int64, nRaw, wRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 1
		w := Time(wRaw%12) + 1
		events := genEvents(r, n)
		src := propSchema()
		mins, _ := RunPlan(Scan("in", src).WithWindow(w).Min("V", "M"), map[string][]Event{"in": events})
		maxs, _ := RunPlan(Scan("in", src).WithWindow(w).Max("V", "M"), map[string][]Event{"in": events})
		avgs, _ := RunPlan(Scan("in", src).WithWindow(w).Avg("V", "A"), map[string][]Event{"in": events})
		at := func(evs []Event, t Time) (Value, bool) {
			for _, e := range evs {
				if e.Contains(t) {
					return e.Payload[0], true
				}
			}
			return Null, false
		}
		for _, e := range events {
			t0 := e.LE
			mn, ok1 := at(mins, t0)
			mx, ok2 := at(maxs, t0)
			av, ok3 := at(avgs, t0)
			if !ok1 || !ok2 || !ok3 {
				return false // every event's LE must be covered
			}
			if float64(mn.AsInt()) > av.AsFloat()+1e-9 || av.AsFloat() > float64(mx.AsInt())+1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestPropertyUnionPreservesEvents(t *testing.T) {
	// Union output = multiset union of inputs (here: disjoint filters over
	// one source must reconstruct it exactly).
	err := quick.Check(func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%60) + 1
		events := genEvents(r, n)
		src := Scan("in", propSchema())
		plan := src.Where(ColGtInt("V", 4)).Union(src.Where(Not(ColGtInt("V", 4))))
		out, err := RunPlan(plan, map[string][]Event{"in": events})
		if err != nil {
			return false
		}
		in := Coalesce(append([]Event(nil), events...))
		return EventsEqual(out, in)
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Error(err)
	}
}

func TestPropertyJoinMatchesNestedLoop(t *testing.T) {
	// TemporalJoin output must equal the nested-loop temporal join.
	err := quick.Check(func(seed int64, nRaw, wRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%25) + 1
		w := Time(wRaw%10) + 2
		le := genEvents(r, n)
		re := genEvents(r, n)
		// Key by V (values 0..9 → plenty of collisions).
		left := Scan("l", propSchema()).WithWindow(w)
		right := Scan("r", propSchema()).WithWindow(w)
		plan := left.Join(right, []string{"V"}, []string{"V"}, nil)
		got, err := RunPlan(plan, map[string][]Event{"l": le, "r": re})
		if err != nil {
			return false
		}
		var want []Event
		for _, a := range le {
			for _, b := range re {
				if !a.Payload[1].Equal(b.Payload[1]) {
					continue
				}
				lo := max(a.LE, b.LE)
				hi := min(a.LE+w, b.LE+w)
				if lo < hi {
					want = append(want, Event{LE: lo, RE: hi, Payload: append(a.Payload.Clone(), b.Payload...)})
				}
			}
		}
		want = Coalesce(want)
		return EventsEqual(got, want)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestPropertyAntiSemiJoinComplement(t *testing.T) {
	// ASJ(l, r) ∪ PointJoin-filtered(l, r) partitions l: every left point
	// either survives the ASJ or intersects a matching right interval.
	err := quick.Check(func(seed int64, nRaw, wRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%30) + 1
		w := Time(wRaw%8) + 1
		le := genEvents(r, n)
		re := genEvents(r, n/2+1)
		plan := Scan("l", propSchema()).
			AntiSemiJoin(Scan("r", propSchema()).WithWindow(w), []string{"V"}, []string{"V"})
		got, err := RunPlan(plan, map[string][]Event{"l": le, "r": re})
		if err != nil {
			return false
		}
		covered := func(p Event) bool {
			for _, b := range re {
				if b.Payload[1].Equal(p.Payload[1]) && b.LE <= p.LE && p.LE < b.LE+w {
					return true
				}
			}
			return false
		}
		var want []Event
		for _, p := range le {
			if !covered(p) {
				want = append(want, p)
			}
		}
		want = Coalesce(want)
		return EventsEqual(got, want)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}
