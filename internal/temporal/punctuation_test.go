package temporal

import (
	"strings"
	"testing"
)

// driveWithCTIs feeds events one at a time, punctuating after each, then
// flushes — the way a live DSMS deployment is driven.
func driveWithCTIs(t *testing.T, plan *Plan, inputs map[string][]Event) []Event {
	t.Helper()
	var all []srcEvent
	for src, evs := range inputs {
		for _, e := range evs {
			all = append(all, srcEvent{Source: src, Event: e})
		}
	}
	sortSrcEvents(all)
	eng, err := NewEngine(plan, WithCTIPeriod(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, se := range all {
		eng.Feed(se.Source, se.Event)
		eng.Advance(se.Event.LE) // aggressive punctuation after every event
	}
	eng.Flush()
	return eng.Results()
}

func sortSrcEvents(evs []srcEvent) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].Event.LE < evs[j-1].Event.LE; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

func TestCTIThroughJoin(t *testing.T) {
	sch := readingSchema()
	left := Scan("l", sch)
	right := Scan("r", sch).WithWindow(10)
	plan := left.Join(right, []string{"ID"}, []string{"ID"}, nil)
	inputs := map[string][]Event{
		"l": {reading(5, "m", 1), reading(12, "m", 2), reading(30, "m", 3)},
		"r": {reading(1, "m", 9), reading(25, "m", 8)},
	}
	want, err := RunPlan(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	got := driveWithCTIs(t, plan, inputs)
	if !EventsEqual(got, want) {
		t.Fatalf("punctuated run diverges: %v vs %v", got, want)
	}
}

func TestCTIThroughUnionAndUDO(t *testing.T) {
	sch := readingSchema()
	a := Scan("a", sch)
	b := Scan("b", sch)
	spec := UDOSpec{
		Name: "count", Window: 10, Hop: 5,
		Out: NewSchema(Field{Name: "N", Kind: KindInt}),
		Fn: func(ws, we Time, rows []Row) []Row {
			return []Row{{Int(int64(len(rows)))}}
		},
	}
	plan := a.Union(b).Apply(spec)
	inputs := map[string][]Event{
		"a": {reading(1, "m", 1), reading(8, "m", 1), reading(22, "m", 1)},
		"b": {reading(3, "m", 1), reading(15, "m", 1)},
	}
	want, err := RunPlan(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	got := driveWithCTIs(t, plan, inputs)
	if !EventsEqual(got, want) {
		t.Fatalf("punctuated run diverges: %v vs %v", got, want)
	}
}

func TestCTIThroughShiftAndFilter(t *testing.T) {
	// Negative shifts translate punctuations; the chain must still agree
	// with the unpunctuated run.
	sch := readingSchema()
	plan := Scan("in", sch).
		Where(ColGtInt("Power", 0)).
		WithWindow(5).
		ShiftLifetime(-3).
		Count("C")
	inputs := map[string][]Event{
		"in": {reading(10, "m", 1), reading(11, "m", 0), reading(14, "m", 2), reading(20, "m", 3)},
	}
	want, err := RunPlan(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	got := driveWithCTIs(t, plan, inputs)
	if !EventsEqual(got, want) {
		t.Fatalf("punctuated run diverges: %v vs %v", got, want)
	}
}

func TestToPointSuppressesContinuations(t *testing.T) {
	// ToPoint is event-identity-sensitive; the operator must treat
	// abutting equal-payload fragments (as produced by aggregates at CTI
	// boundaries) as one logical event and emit a single point.
	plan := Scan("in", readingSchema()).
		GroupApply([]string{"ID"}, func(g *Plan) *Plan {
			return g.WithWindow(100).Count("C")
		}).
		ToPoint()
	in := []Event{reading(10, "m", 1), reading(400, "m", 1)}
	want, err := RunPlan(plan, map[string][]Event{"in": in})
	if err != nil {
		t.Fatal(err)
	}
	got := driveWithCTIs(t, plan, map[string][]Event{"in": in})
	if !EventsEqual(got, want) {
		t.Fatalf("punctuated ToPoint diverges: %v vs %v", got, want)
	}
	// Two logical count segments (one per reading) → two points.
	if len(want) != 2 {
		t.Fatalf("want = %v", want)
	}
}

func TestCTIBoundsJoinSynopsis(t *testing.T) {
	// State cleanup: after punctuation passes an event's RE, the synopsis
	// must shrink (the engine's memory is bounded by the window, not the
	// stream length).
	col := &Collector{}
	sch := NewSchema(Field{Name: "Time", Kind: KindInt}, Field{Name: "ID", Kind: KindString})
	j := newJoin(Scan("l", sch).Join(Scan("r", sch), []string{"ID"}, []string{"ID"}, nil), nil, 0, col)
	left, right := j.m.input(sideLeft), j.m.input(sideRight)
	for i := 0; i < 100; i++ {
		tm := Time(i * 10)
		right.OnEvent(Event{LE: tm, RE: tm + 10, Payload: Row{Int(tm), String("k")}})
		left.OnEvent(PointEvent(tm+1, Row{Int(tm + 1), String("k")}))
		left.OnCTI(tm + 2)
		right.OnCTI(tm + 2)
	}
	if j.syn[sideRight].size > 4 {
		t.Errorf("right synopsis holds %d events after punctuation; state not bounded", j.syn[sideRight].size)
	}
	if j.syn[sideLeft].size > 4 {
		t.Errorf("left synopsis holds %d events; state not bounded", j.syn[sideLeft].size)
	}
	if len(col.Events) != 100 {
		t.Errorf("join produced %d results, want 100", len(col.Events))
	}
}

func TestMergerCompaction(t *testing.T) {
	// Feeding many events on one side with the other side's watermark
	// advancing must not retain the consumed prefix.
	u := newUnionOp(&Collector{})
	l, r := u.m.input(sideLeft), u.m.input(sideRight)
	for i := 0; i < 1000; i++ {
		l.OnEvent(PointEvent(Time(i), Row{Int(int64(i))}))
		r.OnCTI(Time(i + 1)) // releases the left head each time
	}
	if n := len(u.m.bufs[sideLeft]); n > 600 {
		t.Errorf("merger buffer holds %d events; compaction failed", n)
	}
}

// autoCTICount drives an engine over point events at the given times
// (period P) through one of the feed entry points and counts the CTIs
// the sink observes.
func autoCTICount(t *testing.T, P Time, drive func(eng *Engine)) int {
	t.Helper()
	var ctis int
	sink := &FuncSink{CTI: func(Time) { ctis++ }}
	eng, err := NewEngine(Scan("s", readingSchema()), WithSink(sink), WithCTIPeriod(P))
	if err != nil {
		t.Fatal(err)
	}
	drive(eng)
	return ctis
}

// ctiFeeds returns one driver per feed entry point (Feed, FeedMerged),
// all over the same point events; every entry must punctuate on the
// identical schedule.
func ctiFeeds(feed []Time) map[string]func(eng *Engine) {
	evs := make([]Event, len(feed))
	for i, tm := range feed {
		evs[i] = reading(tm, "m", 1)
	}
	return map[string]func(eng *Engine){
		"per-event": func(eng *Engine) {
			for _, e := range evs {
				eng.Feed("s", e)
			}
		},
		"batched": func(eng *Engine) {
			if err := eng.FeedMerged([]Run{{Source: "s", Events: evs}}); err != nil {
				panic(err)
			}
		},
	}
}

// The automatic CTI schedule is anchored at the last period boundary
// strictly before the first event and advances by whole periods. The old
// derivation (lastCTI = triggering event time) drifted the schedule
// toward sparse events and under-punctuated; the old anchor (lastCTI =
// first event time, no emission) additionally swallowed the boundary a
// first event landed exactly on. With period P and events at 0, 1.5P,
// 2.2P the schedule now fires at 0, 1.5P (boundary P passed) and 2.2P
// (boundary 2P passed).
func TestAutoCTIScheduleAnchored(t *testing.T) {
	const P = Time(100)
	feed := []Time{0, 3 * P / 2, 11 * P / 5} // 0, 1.5P, 2.2P
	for name, drive := range ctiFeeds(feed) {
		if got := autoCTICount(t, P, drive); got != 3 {
			t.Errorf("%s feed: %d auto CTIs, want 3 (schedule drifted)", name, got)
		}
	}
}

// A first event landing exactly on a period boundary must punctuate at
// that boundary; before the anchor fix it only seeded the schedule and
// the boundary was silently skipped.
func TestAutoCTIFirstEventOnBoundary(t *testing.T) {
	const P = Time(100)
	for name, drive := range ctiFeeds([]Time{P, P + 50}) {
		if got := autoCTICount(t, P, drive); got != 1 {
			t.Errorf("%s feed: %d auto CTIs, want 1 (boundary landing skipped)", name, got)
		}
	}
	// A wave strictly inside one period still has no boundary to fire at.
	for name, drive := range ctiFeeds([]Time{P + 30, P + 50}) {
		if got := autoCTICount(t, P, drive); got != 0 {
			t.Errorf("%s feed: %d auto CTIs, want 0", name, got)
		}
	}
}

// A sparse single wave starting on a boundary is punctuated at that
// boundary rather than ending the feed with no CTI at all.
func TestAutoCTISingleWavePunctuated(t *testing.T) {
	const P = Time(100)
	for name, drive := range ctiFeeds([]Time{2 * P, 2*P + 10, 3*P - 1}) {
		if got := autoCTICount(t, P, drive); got != 1 {
			t.Errorf("%s feed: %d auto CTIs, want 1 (single wave un-punctuated)", name, got)
		}
	}
}

func TestEngineAccessors(t *testing.T) {
	sch := readingSchema()
	plan := Scan("in", sch).WithWindow(3).Count("C")
	eng, err := NewEngine(plan)
	if err != nil {
		t.Fatal(err)
	}
	// An unknown source fails FeedMerged by name, before anything is fed.
	err = eng.FeedMerged([]Run{{Source: "in", Events: []Event{reading(0, "m", 1)}}, {Source: "nope", Events: []Event{reading(0, "m", 1)}}})
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("FeedMerged with an unknown source: %v, want an error naming it", err)
	}
	if eng.fed {
		t.Error("FeedMerged with an unknown source fed the engine")
	}
	mustPanic(t, func() { eng.Feed("nope", reading(1, "m", 1)) })

	eng.Feed("in", reading(1, "m", 1))
	eng.Advance(10)
	eng.Flush()
	raw := eng.collect.Events
	if len(raw) == 0 {
		t.Fatal("no raw results")
	}
	// Raw results may be fragmented; coalesced results must not be longer.
	if len(eng.Results()) > len(raw) {
		t.Error("coalesced longer than raw")
	}
}

func TestEventHelpers(t *testing.T) {
	a := Event{LE: 1, RE: 5, Payload: Row{Int(1)}}
	b := Event{LE: 4, RE: 9, Payload: Row{Int(2)}}
	if a.String() == "" || a.IsPoint() {
		t.Error("String/IsPoint")
	}
	if !PointEvent(3, nil).IsPoint() {
		t.Error("PointEvent")
	}
	if EventsEqual([]Event{a}, []Event{b}) {
		t.Error("EventsEqual false positive")
	}
	if !EventsEqual([]Event{a}, []Event{{LE: 1, RE: 5, Payload: Row{Int(1)}}}) {
		t.Error("EventsEqual false negative")
	}
}

func TestMinMaxFloatAndStringValues(t *testing.T) {
	sch := NewSchema(
		Field{Name: "Time", Kind: KindInt},
		Field{Name: "Name", Kind: KindString},
	)
	plan := Scan("in", sch).WithWindow(10).Min("Name", "M")
	in := []Event{
		PointEvent(1, Row{Int(1), String("zebra")}),
		PointEvent(2, Row{Int(2), String("ant")}),
	}
	out, err := RunPlan(plan, map[string][]Event{"in": in})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range out {
		if e.Contains(2) && e.Payload[0].AsString() != "ant" {
			t.Errorf("min@2 = %v", e.Payload[0])
		}
	}
	// Sum over floats.
	fsch := NewSchema(Field{Name: "Time", Kind: KindInt}, Field{Name: "X", Kind: KindFloat})
	fplan := Scan("in", fsch).WithWindow(10).Sum("X", "S")
	fin := []Event{
		PointEvent(1, Row{Int(1), Float(1.5)}),
		PointEvent(2, Row{Int(2), Float(2.25)}),
	}
	fout, err := RunPlan(fplan, map[string][]Event{"in": fin})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range fout {
		if e.Contains(2) {
			found = true
			if e.Payload[0].AsFloat() != 3.75 {
				t.Errorf("float sum = %v", e.Payload[0])
			}
		}
	}
	if !found {
		t.Error("no snapshot at t=2")
	}
}

func TestAvgEmptyAndPredicateCombinators(t *testing.T) {
	s := &avgState{col: 0}
	if s.Result().AsFloat() != 0 {
		t.Error("empty avg")
	}
	// Or / And / FnPred coverage.
	sch := NewSchema(
		Field{Name: "Time", Kind: KindInt},
		Field{Name: "Name", Kind: KindString},
		Field{Name: "X", Kind: KindFloat},
	)
	plan := Scan("in", sch).Where(Or(
		FnPred("Name == keep", func(v []Value) bool { return v[0].AsString() == "keep" }, "Name"),
		And(FnPred("Time < 5", func(v []Value) bool { return v[0].AsInt() < 5 }, "Time"),
			FnPred("X >= 2", func(v []Value) bool { return v[0].AsFloat() >= 2 }, "X")),
	))
	in := []Event{
		PointEvent(1, Row{Int(1), String("keep"), Float(0)}),
		PointEvent(2, Row{Int(2), String("drop"), Float(3)}), // t<5 && x>=2
		PointEvent(9, Row{Int(9), String("drop"), Float(3)}), // fails both
	}
	out, err := RunPlan(plan, map[string][]Event{"in": in})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
}

// TestGroupApplyTranslatesCTI: a sub-plan that shifts lifetimes back moves
// the punctuation with them, through a combiner above the kernel too. It
// used to be forwarded unshifted — 20 here, and then [16,19).
func TestGroupApplyTranslatesCTI(t *testing.T) {
	for name, sub := range map[string]func(g *Plan) *Plan{
		"kernel":  func(g *Plan) *Plan { return g.ShiftLifetime(-5).WithWindow(3).Count("C") },
		"topoint": func(g *Plan) *Plan { return g.ShiftLifetime(-5).WithWindow(3).Count("C").ToPoint() },
	} {
		out := &seqSink{}
		eng, err := NewEngine(Scan("in", propSchema()).GroupApply([]string{"V"}, sub), WithSink(out), WithCTIPeriod(0))
		if err != nil {
			t.Fatal(err)
		}
		eng.Feed("in", PointEvent(10, Row{Int(10), Int(1)}))
		eng.Advance(20)
		eng.Feed("in", PointEvent(21, Row{Int(21), Int(1)}))
		eng.Flush()
		watermark, events := MinTime, 0
		for _, tok := range out.tokens {
			switch {
			case tok.isCTI:
				watermark = tok.t
			case tok.ev.LE < watermark:
				t.Errorf("%s: %v delivered after CTI %d", name, tok.ev, watermark)
			default:
				events++
			}
		}
		if watermark != 15 || events != 2 {
			t.Errorf("%s: %d events under CTI %d, want 2 under 15: %v", name, events, watermark, out.tokens)
		}
	}
}
