package temporal

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"timr/internal/obs"
)

// readingSchema mimics the power-meter example of paper Figures 2-4.
func readingSchema() *Schema {
	return NewSchema(
		Field{Name: "Time", Kind: KindInt},
		Field{Name: "ID", Kind: KindString},
		Field{Name: "Power", Kind: KindInt},
	)
}

// emitted returns the events eng's internal collector holds, as emitted
// (fragmented at CTI boundaries) and sorted.
func emitted(eng *Engine) []Event {
	out := slices.Clone(eng.collect.Events)
	SortEvents(out)
	return out
}

// restoreEngine compiles plan into a fresh engine and loads snap into it.
func restoreEngine(plan *Plan, snap []byte, opts ...Option) (*Engine, error) {
	eng, err := NewEngine(plan, opts...)
	if err != nil {
		return nil, err
	}
	return eng, eng.Restore(snap)
}

func reading(t Time, id string, power int64) Event {
	return PointEvent(t, Row{Int(t), String(id), Int(power)})
}

func run(t *testing.T, plan *Plan, inputs map[string][]Event) []Event {
	t.Helper()
	out, err := RunPlan(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSelect(t *testing.T) {
	// Paper Figure 2: detect non-zero power readings.
	plan := Scan("in", readingSchema()).Where(ColGtInt("Power", 0))
	in := []Event{reading(1, "m", 0), reading(2, "m", 5), reading(3, "m", 0), reading(4, "m", 9)}
	out := run(t, plan, map[string][]Event{"in": in})
	if len(out) != 2 || out[0].Payload[2].AsInt() != 5 || out[1].Payload[2].AsInt() != 9 {
		t.Fatalf("out = %v", out)
	}
}

func TestProject(t *testing.T) {
	plan := Scan("in", readingSchema()).Project(
		Keep("Time"),
		Rename("ID", "Meter"),
		Compute("Doubled", KindInt, func(v []Value) Value { return Int(v[0].AsInt() * 2) }, "Power"),
	)
	if plan.Out.String() != "(Time:int, Meter:string, Doubled:int)" {
		t.Fatalf("schema = %s", plan.Out)
	}
	out := run(t, plan, map[string][]Event{"in": {reading(5, "m1", 21)}})
	if len(out) != 1 || out[0].Payload[2].AsInt() != 42 || out[0].Payload[1].AsString() != "m1" {
		t.Fatalf("out = %v", out)
	}
}

func TestWindowedCount(t *testing.T) {
	// Paper Figure 3: count of non-zero readings in the last 3 seconds,
	// reported whenever the count changes.
	plan := Scan("in", readingSchema()).
		Where(ColGtInt("Power", 0)).
		WithWindow(3).
		Count("Cnt")
	in := []Event{reading(1, "m", 10), reading(2, "m", 0), reading(3, "m", 7)}
	out := run(t, plan, map[string][]Event{"in": in})
	// Active windows: event@1 alive [1,4), event@3 alive [3,6).
	// Snapshots: [1,3)=1, [3,4)=2, [4,6)=1.
	want := []Event{
		{LE: 1, RE: 3, Payload: Row{Int(1)}},
		{LE: 3, RE: 4, Payload: Row{Int(2)}},
		{LE: 4, RE: 6, Payload: Row{Int(1)}},
	}
	if !EventsEqual(out, want) {
		t.Fatalf("out = %v, want %v", out, want)
	}
}

func TestCountEmptyGapsProduceNoOutput(t *testing.T) {
	plan := Scan("in", readingSchema()).WithWindow(2).Count("Cnt")
	in := []Event{reading(1, "m", 1), reading(10, "m", 1)}
	out := run(t, plan, map[string][]Event{"in": in})
	want := []Event{
		{LE: 1, RE: 3, Payload: Row{Int(1)}},
		{LE: 10, RE: 12, Payload: Row{Int(1)}},
	}
	if !EventsEqual(out, want) {
		t.Fatalf("out = %v, want %v", out, want)
	}
}

func TestSumMinMaxAvg(t *testing.T) {
	sch := readingSchema()
	in := []Event{reading(1, "m", 10), reading(2, "m", 4), reading(3, "m", 7)}
	cases := []struct {
		name string
		plan *Plan
		// value of the snapshot [3,4) when all three events are active
		// (window 5 keeps them all alive through t=3).
		want Value
	}{
		{"sum", Scan("in", sch).WithWindow(5).Sum("Power", "S"), Int(21)},
		{"min", Scan("in", sch).WithWindow(5).Min("Power", "M"), Int(4)},
		{"max", Scan("in", sch).WithWindow(5).Max("Power", "M"), Int(10)},
		{"avg", Scan("in", sch).WithWindow(5).Avg("Power", "A"), Float(7)},
	}
	for _, c := range cases {
		out := run(t, c.plan, map[string][]Event{"in": in})
		found := false
		for _, e := range out {
			if e.Contains(3) {
				found = true
				if !e.Payload[0].Equal(c.want) {
					t.Errorf("%s: snapshot@3 = %v, want %v", c.name, e.Payload[0], c.want)
				}
			}
		}
		if !found {
			t.Errorf("%s: no snapshot covering t=3: %v", c.name, out)
		}
	}
}

func TestMinMaxUnderExpiry(t *testing.T) {
	// Min must recover the correct value after the minimum expires.
	plan := Scan("in", readingSchema()).WithWindow(2).Min("Power", "M")
	in := []Event{reading(1, "m", 3), reading(2, "m", 8)}
	out := run(t, plan, map[string][]Event{"in": in})
	want := []Event{
		{LE: 1, RE: 3, Payload: Row{Int(3)}}, // min 3 while event@1 alive
		{LE: 3, RE: 4, Payload: Row{Int(8)}}, // after expiry min is 8
	}
	if !EventsEqual(out, want) {
		t.Fatalf("out = %v, want %v", out, want)
	}
}

func TestGroupApplyWindowedCount(t *testing.T) {
	// Paper Figure 4 (left): per-meter windowed count.
	plan := Scan("in", readingSchema()).GroupApply([]string{"ID"}, func(g *Plan) *Plan {
		return g.WithWindow(3).Count("Cnt")
	})
	if plan.Out.String() != "(ID:string, Cnt:int)" {
		t.Fatalf("schema = %s", plan.Out)
	}
	in := []Event{
		reading(1, "a", 1), reading(1, "b", 1),
		reading(2, "a", 1),
		reading(9, "b", 1),
	}
	out := run(t, plan, map[string][]Event{"in": in})
	// Group a: counts [1,2)=1 [2,4)=2 [4,5)=1 ; group b: [1,4)=1 [9,12)=1.
	var a, b []Event
	for _, e := range out {
		if e.Payload[0].AsString() == "a" {
			a = append(a, e)
		} else {
			b = append(b, e)
		}
	}
	wantA := []Event{
		{LE: 1, RE: 2, Payload: Row{String("a"), Int(1)}},
		{LE: 2, RE: 4, Payload: Row{String("a"), Int(2)}},
		{LE: 4, RE: 5, Payload: Row{String("a"), Int(1)}},
	}
	wantB := []Event{
		{LE: 1, RE: 4, Payload: Row{String("b"), Int(1)}},
		{LE: 9, RE: 12, Payload: Row{String("b"), Int(1)}},
	}
	if !EventsEqual(a, wantA) {
		t.Errorf("group a = %v, want %v", a, wantA)
	}
	if !EventsEqual(b, wantB) {
		t.Errorf("group b = %v, want %v", b, wantB)
	}
}

func TestGroupApplyOutputOrdered(t *testing.T) {
	// The downstream of a GroupApply must see nondecreasing LE even when
	// groups progress at different rates. Chain a second aggregate over
	// the group output to make order violations fatal.
	plan := Scan("in", readingSchema()).
		GroupApply([]string{"ID"}, func(g *Plan) *Plan {
			return g.WithWindow(5).Count("Cnt")
		}).
		ToPoint().
		WithWindow(10).
		Count("Total")
	var in []Event
	for i := 0; i < 50; i++ {
		in = append(in, reading(Time(i), fmt.Sprintf("m%d", i%5), 1))
	}
	out := run(t, plan, map[string][]Event{"in": in})
	if len(out) == 0 {
		t.Fatal("no output")
	}
	for i := 1; i < len(out); i++ {
		if out[i].LE < out[i-1].LE {
			t.Fatalf("output disordered at %d: %v after %v", i, out[i], out[i-1])
		}
	}
}

func TestUnion(t *testing.T) {
	sch := readingSchema()
	a := Scan("a", sch)
	b := Scan("b", sch)
	plan := a.Union(b)
	out := run(t, plan, map[string][]Event{
		"a": {reading(1, "x", 1), reading(5, "x", 2)},
		"b": {reading(2, "y", 3), reading(4, "y", 4)},
	})
	if len(out) != 4 {
		t.Fatalf("out = %v", out)
	}
	for i := 1; i < len(out); i++ {
		if out[i].LE < out[i-1].LE {
			t.Fatalf("union output disordered: %v", out)
		}
	}
}

func TestUnionSchemaMismatchPanics(t *testing.T) {
	a := Scan("a", readingSchema())
	b := Scan("b", NewSchema(Field{Name: "X", Kind: KindInt}))
	mustPanic(t, func() { a.Union(b) })
}

func TestTemporalJoinPowerIncrease(t *testing.T) {
	// Paper Figure 4 (right): periods when the reading increased by more
	// than 100 compared to 5 seconds back. Left = current readings with
	// window 5... the paper shifts one branch 5s forward and joins.
	sch := readingSchema()
	src := Scan("in", sch)
	shifted := src.WithWindow(5).ShiftLifetime(5)
	cur := src.WithWindow(5)
	cond := &JoinPred{
		LeftCols: []string{"Power"}, RightCols: []string{"Power"},
		Make: func(li, ri []int) func(l, r Row) bool {
			return func(l, r Row) bool { return l[li[0]].AsInt() > r[ri[0]].AsInt()+100 }
		},
		Desc: "left.Power > right.Power+100",
	}
	plan := cur.Join(shifted, []string{"ID"}, []string{"ID"}, cond)
	in := []Event{reading(0, "m", 50), reading(6, "m", 200)}
	out := run(t, plan, map[string][]Event{"in": in})
	// reading@0 shifted is alive [5,10); reading@6 (window 5) alive [6,11);
	// 200 > 50+100, so the join fires over [6,10).
	if len(out) != 1 || out[0].LE != 6 || out[0].RE != 10 {
		t.Fatalf("out = %v", out)
	}
	if out[0].Payload[2].AsInt() != 200 || out[0].Payload[5].AsInt() != 50 {
		t.Fatalf("payload = %v", out[0].Payload)
	}
}

func TestTemporalJoinPointFilter(t *testing.T) {
	// "A common application of TemporalJoin is when the left input
	// consists of point events — it effectively filters out events on the
	// left that do not intersect any matching event in the right synopsis."
	sch := readingSchema()
	left := Scan("pts", sch)
	right := Scan("intervals", sch).WithWindow(10)
	plan := left.Join(right, []string{"ID"}, []string{"ID"}, nil)
	out := run(t, plan, map[string][]Event{
		"pts":       {reading(5, "m", 1), reading(50, "m", 2), reading(6, "other", 3)},
		"intervals": {reading(1, "m", 9)},
	})
	// Only the point@5 with ID "m" overlaps the interval [1,11).
	if len(out) != 1 || out[0].LE != 5 || !out[0].IsPoint() {
		t.Fatalf("out = %v", out)
	}
}

func TestAntiSemiJoin(t *testing.T) {
	sch := readingSchema()
	left := Scan("pts", sch)
	right := Scan("bad", sch).WithWindow(10)
	plan := left.AntiSemiJoin(right, []string{"ID"}, []string{"ID"})
	out := run(t, plan, map[string][]Event{
		"pts": {reading(2, "m", 1), reading(5, "m", 2), reading(15, "m", 3), reading(5, "z", 4)},
		"bad": {reading(4, "m", 0)}, // suppresses ID "m" during [4,14)
	})
	// Survivors: m@2 (before), m@15 (after), z@5 (different key).
	if len(out) != 3 {
		t.Fatalf("out = %v", out)
	}
	var got []int64
	for _, e := range out {
		got = append(got, e.Payload[2].AsInt())
	}
	if got[0] != 1 || got[1] != 4 || got[2] != 3 {
		t.Fatalf("payloads = %v", got)
	}
}

func TestAntiSemiJoinTieRightFirst(t *testing.T) {
	// A suppressing interval that OPENS at exactly the left event's time
	// must win: bot elimination depends on it.
	sch := readingSchema()
	plan := Scan("pts", sch).AntiSemiJoin(Scan("bad", sch).WithWindow(10), []string{"ID"}, []string{"ID"})
	out := run(t, plan, map[string][]Event{
		"pts": {reading(4, "m", 1)},
		"bad": {reading(4, "m", 0)},
	})
	if len(out) != 0 {
		t.Fatalf("point at interval start should be suppressed, got %v", out)
	}
}

func TestMulticastDiamond(t *testing.T) {
	// One source feeding two branches that union back (the shape of the
	// paper's BotElim sub-query, Figure 11).
	sch := readingSchema()
	src := Scan("in", sch)
	high := src.Where(ColGtInt("Power", 100)).Project(Keep("Time"), Keep("ID"), ConstInt("Tag", 1))
	low := src.Where(Not(ColGtInt("Power", 100))).Project(Keep("Time"), Keep("ID"), ConstInt("Tag", 0))
	plan := high.Union(low)
	in := []Event{reading(1, "m", 200), reading(2, "m", 50), reading(3, "m", 300)}
	out := run(t, plan, map[string][]Event{"in": in})
	if len(out) != 3 {
		t.Fatalf("out = %v", out)
	}
	tags := []int64{out[0].Payload[2].AsInt(), out[1].Payload[2].AsInt(), out[2].Payload[2].AsInt()}
	if tags[0] != 1 || tags[1] != 0 || tags[2] != 1 {
		t.Fatalf("tags = %v", tags)
	}
}

func TestHoppingWindowCount(t *testing.T) {
	// Hopping window w=4, h=2: result for the window ending at t is valid
	// for [t, t+2).
	plan := Scan("in", readingSchema()).WithHop(4, 2).Count("Cnt")
	in := []Event{reading(1, "m", 1), reading(2, "m", 1), reading(5, "m", 1)}
	out := run(t, plan, map[string][]Event{"in": in})
	// Windows (end -> members): 2->{1}, 4->{1,2}, 6->{2,5}, 8->{5}.
	// The windows ending at 4 and 6 both count 2, so their report events
	// coalesce into one [4,8) under canonical (coalesced) output.
	want := []Event{
		{LE: 2, RE: 4, Payload: Row{Int(1)}},
		{LE: 4, RE: 8, Payload: Row{Int(2)}},
		{LE: 8, RE: 10, Payload: Row{Int(1)}},
	}
	if !EventsEqual(out, want) {
		t.Fatalf("out = %v, want %v", out, want)
	}
}

func TestUDOHoppingWindows(t *testing.T) {
	sch := readingSchema()
	outSchema := NewSchema(Field{Name: "WinSum", Kind: KindInt})
	spec := UDOSpec{
		Name: "sum", Window: 4, Hop: 2, Out: outSchema,
		Fn: func(ws, we Time, rows []Row) []Row {
			var s int64
			for _, r := range rows {
				s += r[2].AsInt()
			}
			return []Row{{Int(s)}}
		},
	}
	plan := Scan("in", sch).Apply(spec)
	in := []Event{reading(1, "m", 10), reading(2, "m", 20), reading(5, "m", 30)}
	out := run(t, plan, map[string][]Event{"in": in})
	want := []Event{
		{LE: 2, RE: 4, Payload: Row{Int(10)}},
		{LE: 4, RE: 6, Payload: Row{Int(30)}},
		{LE: 6, RE: 8, Payload: Row{Int(50)}},
		{LE: 8, RE: 10, Payload: Row{Int(30)}},
	}
	if !EventsEqual(out, want) {
		t.Fatalf("out = %v, want %v", out, want)
	}
}

func TestUDOSkipsIdleGaps(t *testing.T) {
	calls := 0
	spec := UDOSpec{
		Name: "count", Window: 2, Hop: 2,
		Out: NewSchema(Field{Name: "N", Kind: KindInt}),
		Fn: func(ws, we Time, rows []Row) []Row {
			calls++
			return []Row{{Int(int64(len(rows)))}}
		},
	}
	plan := Scan("in", readingSchema()).Apply(spec)
	in := []Event{reading(1, "m", 1), reading(1000001, "m", 1)}
	out := run(t, plan, map[string][]Event{"in": in})
	if calls != 2 {
		t.Fatalf("UDO invoked %d times; idle windows must be skipped", calls)
	}
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
}

func TestShiftLifetime(t *testing.T) {
	plan := Scan("in", readingSchema()).WithWindow(3).ShiftLifetime(-2)
	out := run(t, plan, map[string][]Event{"in": {reading(10, "m", 1)}})
	if len(out) != 1 || out[0].LE != 8 || out[0].RE != 11 {
		t.Fatalf("out = %v", out)
	}
}

func TestCoalesce(t *testing.T) {
	events := []Event{
		{LE: 1, RE: 3, Payload: Row{Int(7)}},
		{LE: 3, RE: 5, Payload: Row{Int(7)}},
		{LE: 5, RE: 6, Payload: Row{Int(8)}},
		{LE: 7, RE: 9, Payload: Row{Int(7)}}, // gap: not merged
	}
	got := Coalesce(events)
	want := []Event{
		{LE: 1, RE: 5, Payload: Row{Int(7)}},
		{LE: 5, RE: 6, Payload: Row{Int(8)}},
		{LE: 7, RE: 9, Payload: Row{Int(7)}},
	}
	if !EventsEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestEngineIncrementalFeed(t *testing.T) {
	// Drive the engine event-by-event with explicit CTIs, as a real-time
	// deployment would, and check results match the batch run.
	plan := Scan("in", readingSchema()).WithWindow(3).Count("Cnt")
	in := []Event{reading(1, "m", 1), reading(2, "m", 1), reading(7, "m", 1)}

	batch, err := RunPlan(plan, map[string][]Event{"in": in})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range in {
		eng.Feed("in", e)
		eng.Advance(e.LE) // aggressive punctuation
	}
	eng.Flush()
	if !EventsEqual(eng.Results(), batch) {
		t.Fatalf("incremental %v != batch %v", eng.Results(), batch)
	}
}

func TestEngineToCallbackSink(t *testing.T) {
	var n int
	sink := &FuncSink{Event: func(Event) { n++ }}
	plan := Scan("in", readingSchema()).Where(ColGtInt("Power", 0))
	eng, err := NewEngine(plan, WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	eng.Feed("in", reading(1, "m", 5))
	eng.Feed("in", reading(2, "m", 0))
	eng.Flush()
	if n != 1 {
		t.Fatalf("callback fired %d times", n)
	}
}

func TestRunPlanUnknownSourceIgnored(t *testing.T) {
	plan := Scan("in", readingSchema())
	out, err := RunPlan(plan, map[string][]Event{
		"in":    {reading(1, "m", 1)},
		"other": {reading(2, "m", 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
}

func TestRowsToPointEvents(t *testing.T) {
	rows := []Row{{Int(5), String("u"), Int(0)}, {Int(9), String("v"), Int(1)}}
	evs := RowsToPointEvents(rows, 0)
	if evs[0].LE != 5 || evs[1].LE != 9 || !evs[0].IsPoint() {
		t.Fatalf("evs = %v", evs)
	}
}

func TestPlanValidationPanics(t *testing.T) {
	sch := readingSchema()
	mustPanic(t, func() { Scan("in", sch).Where(ColEqInt("Nope", 1)) })
	mustPanic(t, func() { Scan("in", sch).WithHop(0, 5) })
	mustPanic(t, func() { Scan("in", sch).GroupApply([]string{"Nope"}, func(g *Plan) *Plan { return g }) })
	mustPanic(t, func() {
		Scan("in", sch).Join(Scan("b", sch), []string{"ID", "Time"}, []string{"ID"}, nil)
	})
}

// A plan leaf out of place is the caller's error, reported by NewEngine /
// Compile — not a panic, at compile time or at the first event.
func TestGroupInputOutsideGroupApplyIsAnError(t *testing.T) {
	plan := GroupInput(readingSchema()).WithWindow(3).Count("C")
	if _, err := NewEngine(plan); err == nil || !strings.Contains(err.Error(), "GroupInput leaf outside") {
		t.Fatalf("NewEngine over a bare GroupInput: %v", err)
	}
}

func TestScanInsideGroupApplyIsAnError(t *testing.T) {
	sch := readingSchema()
	plan := Scan("in", sch).GroupApply([]string{"ID"}, func(g *Plan) *Plan {
		return g.Union(Scan("other", sch)).WithWindow(3).Count("C")
	})
	if _, err := NewEngine(plan); err == nil || !strings.Contains(err.Error(), "Scan(other) leaf inside") {
		t.Fatalf("NewEngine with a Scan in a sub-plan: %v", err)
	}
}

func TestPlanString(t *testing.T) {
	plan := Scan("in", readingSchema()).
		Where(ColGtInt("Power", 0)).
		GroupApply([]string{"ID"}, func(g *Plan) *Plan { return g.WithWindow(3).Count("Cnt") })
	s := plan.String()
	for _, want := range []string{"GroupApply[ID]", "Select[Power > 0]", "Scan(in)", "Count"} {
		if !contains(s, want) {
			t.Errorf("plan string missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestMaxWindow(t *testing.T) {
	plan := Scan("in", readingSchema()).
		WithWindow(6 * Hour).
		Count("C")
	if plan.MaxWindow() != 6*Hour {
		t.Errorf("MaxWindow = %d", plan.MaxWindow())
	}
	p2 := Scan("in", readingSchema()).ShiftLifetime(-5 * Minute)
	if p2.MaxWindow() != 5*Minute {
		t.Errorf("MaxWindow(shift) = %d", p2.MaxWindow())
	}
}

// TestSourcesAndSharedScan: a scan shared by two branches is one node of
// the plan DAG, which Walk visits once.
func TestSourcesAndSharedScan(t *testing.T) {
	sch := readingSchema()
	src := Scan("in", sch)
	plan := src.Where(ColGtInt("Power", 0)).Union(src.Where(Not(ColGtInt("Power", 0))))
	var srcs []string
	plan.Walk(func(n *Plan) {
		if n.Kind == OpScan {
			srcs = append(srcs, n.Source)
		}
	})
	if len(srcs) != 1 || srcs[0] != "in" {
		t.Fatalf("sources = %v", srcs)
	}
}

// An engine with further outputs builds the nodes they share with its
// plan once: a shared operator sees each event once, even when an output
// is the shared node itself, and each output delivers what RunPlan makes
// of its root alone — across a checkpoint restored into an engine built
// with the same outputs.
func TestEngineWithOutputSharesNodes(t *testing.T) {
	counts := Scan("in", readingSchema()).GroupApply([]string{"ID"}, func(g *Plan) *Plan {
		return g.WithWindow(3).Count("Cnt")
	})
	roots := []*Plan{counts.Where(ColGtInt("Cnt", 1)), counts, counts.ShiftLifetime(-1)}
	var in []Event
	for i := 0; i < 40; i++ {
		in = append(in, reading(Time(i/2), fmt.Sprint("m", i%3), int64(i)))
	}
	scope := obs.New("t")
	outs := make([]*Collector, len(roots))
	build := func(snap []byte) *Engine {
		opts := []Option{WithSink(outs[0]), WithObs(scope)}
		for i := 1; i < len(roots); i++ {
			opts = append(opts, WithOutput(roots[i], outs[i]))
		}
		eng, err := NewEngine(roots[0], opts...)
		if snap != nil {
			eng, err = restoreEngine(roots[0], snap, opts...)
		}
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	for i := range outs {
		outs[i] = &Collector{}
	}
	eng := build(nil)
	for _, e := range in[:20] {
		eng.Feed("in", e)
	}
	eng = build(eng.Checkpoint())
	for _, e := range in[20:] {
		eng.Feed("in", e)
	}
	eng.Flush()
	for i, root := range roots {
		if want := run(t, root, map[string][]Event{"in": in}); !EventsEqual(Coalesce(outs[i].Events), want) {
			t.Fatalf("output %d: %v, RunPlan %v", i, Coalesce(outs[i].Events), want)
		}
	}
	seen := 0
	for _, pt := range scope.Snapshot() {
		if strings.HasSuffix(pt.Scope, ".GroupApply") && pt.Name == "events_in" {
			if seen++; pt.Value != int64(len(in)) {
				t.Fatalf("the shared GroupApply saw %d events, fed %d", pt.Value, len(in))
			}
		}
	}
	if seen != 1 {
		t.Fatalf("%d GroupApply operators metered, want the one", seen)
	}
}
