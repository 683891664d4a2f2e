package temporal

import (
	"strings"
	"testing"

	"timr/internal/obs"
)

// End-to-end instrumentation check: run a known small plan through an
// observed engine and pin the exact per-operator in/out event counts.
//
// Plan (pre-order ids): op00.Aggregate ← op01.AlterLifetime ← op02.Select
// ← op03.Scan. Four point events are fed; one fails the predicate; the
// remaining three open 10-tick windows at t=0, 2, 5, whose count changes
// at t = 0, 2, 5, 10, 12 produce five snapshot segments.
func TestObservedOperatorCounts(t *testing.T) {
	schema := NewSchema(Field{Name: "Time", Kind: KindInt}, Field{Name: "V", Kind: KindInt})
	plan := Scan("s", schema).Where(ColGtInt("V", 0)).WithWindow(10).Count("C")

	root := obs.New("engine")
	eng, err := NewEngine(plan, WithObs(root))
	if err != nil {
		t.Fatal(err)
	}
	feed := []struct{ tm, v int64 }{{0, 1}, {1, -1}, {2, 1}, {5, 1}}
	for _, f := range feed {
		eng.Feed("s", PointEvent(Time(f.tm), Row{Int(f.tm), Int(f.v)}))
	}
	eng.Flush()
	if got := len(eng.Results()); got != 5 {
		t.Fatalf("results = %d events, want 5", got)
	}

	counts := func(op string) (in, out int64) {
		sc := root.Child(op)
		return sc.Counter("events_in").Value(), sc.Counter("events_out").Value()
	}
	for _, want := range []struct {
		op      string
		in, out int64
	}{
		{"op02.Select", 4, 3},
		{"op01.AlterLifetime", 3, 3},
		{"op00.Aggregate", 3, 5},
	} {
		in, out := counts(want.op)
		if in != want.in || out != want.out {
			t.Errorf("%s: in/out = %d/%d, want %d/%d", want.op, in, out, want.in, want.out)
		}
	}
	if got := root.Child("source.s").Counter("events").Value(); got != 4 {
		t.Errorf("source.s events = %d, want 4", got)
	}
	// The aggregate held three open lifetimes at its peak.
	if got := root.Child("op00.Aggregate").Gauge("state").Value(); got != 3 {
		t.Errorf("aggregate state high-watermark = %d, want 3", got)
	}
}

// Shared scopes across engine instances must aggregate (one engine per
// partition is TiMR's parallelism model) and stay race-clean; this is the
// single-threaded half of that contract — counts from two sequential
// engines simply add up.
func TestObservedScopeSharedAcrossEngines(t *testing.T) {
	schema := NewSchema(Field{Name: "Time", Kind: KindInt})
	plan := Scan("s", schema).WithWindow(5).Count("C")
	root := obs.New("shared")
	for i := 0; i < 2; i++ {
		eng, err := NewEngine(plan, WithObs(root))
		if err != nil {
			t.Fatal(err)
		}
		eng.Feed("s", PointEvent(0, Row{Int(0)}))
		eng.Flush()
	}
	if got := root.Child("source.s").Counter("events").Value(); got != 2 {
		t.Fatalf("shared source counter = %d, want 2", got)
	}
}

// The snapshot table for an observed run must name every operator.
func TestObservedTableNamesOperators(t *testing.T) {
	schema := NewSchema(Field{Name: "Time", Kind: KindInt}, Field{Name: "V", Kind: KindInt})
	plan := Scan("s", schema).Where(ColGtInt("V", 0)).WithWindow(10).Count("C")
	root := obs.New("engine")
	eng, err := NewEngine(plan, WithObs(root))
	if err != nil {
		t.Fatal(err)
	}
	eng.Feed("s", PointEvent(0, Row{Int(0), Int(1)}))
	eng.Flush()
	tab := root.Table()
	for _, want := range []string{"op00.Aggregate", "op01.AlterLifetime", "op02.Select", "source.s"} {
		if !strings.Contains(tab, want) {
			t.Fatalf("table missing %q:\n%s", want, tab)
		}
	}
}

// An observed compile must produce identical results to a plain one:
// instrumentation may never change semantics.
func TestObservedMatchesUnobserved(t *testing.T) {
	schema := NewSchema(Field{Name: "Time", Kind: KindInt}, Field{Name: "V", Kind: KindInt})
	mk := func() *Plan {
		return Scan("s", schema).Where(ColGtInt("V", -5)).WithWindow(7).Sum("V", "S")
	}
	var evs []Event
	for i := int64(0); i < 50; i++ {
		evs = append(evs, PointEvent(Time(i*3%17), Row{Int(i * 3 % 17), Int(i - 25)}))
	}
	SortEvents(evs)

	plain, err := RunPlan(mk(), map[string][]Event{"s": evs})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(mk(), WithObs(obs.New("x")))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evs {
		eng.Feed("s", e)
	}
	eng.Flush()
	if !EventsEqual(plain, eng.Results()) {
		t.Fatalf("observed run diverged from plain run")
	}
}

// GroupApply's punctuation counters: two keys with a 10-tick window, key 1
// fed every 4 ticks from 0 and key 2 one tick later, the automatic
// schedule at period 2. It punctuates at t = 0, 4, … 36 (at key 1's
// events); the operator broadcasts the first and then one per extent
// (t = 0, 12, 24, 36), swallowing six. Key 1's count has just changed at
// each of these, so only key 2's open segment is cut — three times, there
// being none at t = 0. An explicit Advance is broadcast however closely it
// follows (t = 37, at key 2's last event) and cuts key 1's.
func TestObservedGroupApplyPunctuation(t *testing.T) {
	root := obs.New("engine")
	eng, err := NewEngine(reclaimPlan(func(g *Plan) *Plan { return g.WithWindow(10).Count("C") }),
		WithObs(root), WithCTIPeriod(2))
	if err != nil {
		t.Fatal(err)
	}
	for ts := Time(0); ts <= 36; ts += 4 {
		eng.Feed("in", PointEvent(ts, Row{Int(ts), Int(1), Int(0), Float(0)}))
		eng.Feed("in", PointEvent(ts+1, Row{Int(ts + 1), Int(2), Int(0), Float(0)}))
	}
	eng.Advance(37)
	sc := root.Child("op00.GroupApply")
	for name, want := range map[string]int64{"cti_broadcasts": 5, "cti_swallowed": 6, "fragments": 4} {
		if got := sc.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
