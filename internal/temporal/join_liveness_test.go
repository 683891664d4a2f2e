package temporal

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"timr/internal/obs"
)

// The joins store only what can still match (merger.dead). These tests
// compare them, under every way of feeding and punctuating an engine, with
// evaluators that enumerate all pairs of events and know nothing of
// watermarks, synopses or merge order.

func liveSchema(val string) *Schema {
	return NewSchema(Field{Name: "K", Kind: KindInt}, Field{Name: val, Kind: KindInt})
}

// overlapJoin is TemporalJoin by enumeration: every pair with equal
// leading nk columns, intersecting lifetimes and a true cond (nil: none)
// yields l ++ r[rdrop:] over the intersection.
func overlapJoin(l, r []Event, nk int, cond func(l, r Row) bool, rdrop int) []Event {
	var out []Event
	for _, a := range l {
		for _, b := range r {
			le, re := max(a.LE, b.LE), min(a.RE, b.RE)
			if le < re && a.Payload[:nk].Equal(b.Payload[:nk]) && (cond == nil || cond(a.Payload, b.Payload)) {
				out = append(out, Event{LE: le, RE: re, Payload: append(a.Payload.Clone(), b.Payload[rdrop:]...)})
			}
		}
	}
	return out
}

// uncovered is AntiSemiJoin by enumeration: the left points no right event
// with equal leading nk columns contains. An interval opening at t contains
// a point at t: the right-first tie rule is the definition, not an order.
func uncovered(l, r []Event, nk int) []Event {
	var out []Event
next:
	for _, a := range l {
		for _, b := range r {
			if b.LE <= a.LE && a.LE < b.RE && a.Payload[:nk].Equal(b.Payload[:nk]) {
				continue next
			}
		}
		out = append(out, a)
	}
	return out
}

// liveVariant is one plan over sources "l" and "r" and what it computes.
type liveVariant struct {
	name string
	plan *Plan
	want func(l, r []Event) []Event
	// fragments: the plan's aggregates cut their output at CTIs, so
	// results compare coalesced; the others compare event for event.
	fragments bool
}

func mapRows(evs []Event, fn func(Row) (Row, bool)) []Event {
	var out []Event
	for _, e := range evs {
		if row, ok := fn(e.Payload); ok {
			out = append(out, Event{LE: e.LE, RE: e.RE, Payload: row})
		}
	}
	return out
}

func liveVariants(t *testing.T) []liveVariant {
	l, r := Scan("l", liveSchema("A")), Scan("r", liveSchema("B"))
	k := []string{"K"}
	parity := &JoinPred{
		LeftCols: []string{"A"}, RightCols: []string{"B"}, Desc: "A+B even",
		Make: func(li, ri []int) func(l, r Row) bool {
			return func(l, r Row) bool { return (l[li[0]].AsInt()+r[ri[0]].AsInt())%2 == 0 }
		},
	}
	// Right points made the intervals [t-3, t+2): a backward shift moves the
	// right side's punctuations too, so its bound trails the left's.
	cover := func(r []Event) []Event {
		out := make([]Event, len(r))
		for i, e := range r {
			out[i] = Event{LE: e.LE - 3, RE: e.LE + 2, Payload: e.Payload}
		}
		return out
	}
	// The keyless join inside a GroupApply is lowered to a join of the keyed
	// branch outputs that drops the right copy of the key (rdrop). Its
	// inputs are the branches' own results, run one at a time.
	branchA := func(g *Plan) *Plan { return g.WithWindow(5).Count("N") }
	branchB := func(g *Plan) *Plan { return g.Where(ColGtInt("A", 3)).WithWindow(3).Sum("A", "S") }
	branch := func(sub func(*Plan) *Plan, evs []Event) []Event {
		res, err := RunPlan(l.GroupApply(k, sub), map[string][]Event{"l": evs})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	vs := []liveVariant{
		{name: "join", plan: l.Join(r, k, k, nil),
			want: func(l, r []Event) []Event { return overlapJoin(l, r, 1, nil, 0) }},
		{name: "join-cond", plan: l.Join(r, k, k, parity),
			want: func(l, r []Event) []Event {
				return overlapJoin(l, r, 1, func(l, r Row) bool { return (l[1].AsInt()+r[1].AsInt())%2 == 0 }, 0)
			}},
		{name: "join-where", plan: l.Join(r, k, k, nil).Where(ColGtInt("B", 2)),
			want: func(l, r []Event) []Event {
				return mapRows(overlapJoin(l, r, 1, nil, 0), func(p Row) (Row, bool) { return p, p[3].AsInt() > 2 })
			}},
		{name: "join-shifted", plan: l.Join(r.WithWindow(5).ShiftLifetime(-3), k, k, nil),
			want: func(l, r []Event) []Event { return overlapJoin(l, cover(r), 1, nil, 0) }},
		{name: "join-rdrop", fragments: true,
			plan: l.GroupApply(k, func(g *Plan) *Plan { return branchA(g).Join(branchB(g), nil, nil, nil) }),
			want: func(l, _ []Event) []Event {
				return overlapJoin(branch(branchA, l), branch(branchB, l), 1, nil, 1)
			}},
		{name: "antisemi", plan: l.AntiSemiJoin(r, k, k),
			want: func(l, r []Event) []Event { return uncovered(l, r, 1) }},
		{name: "antisemi-shifted", plan: l.AntiSemiJoin(r.WithWindow(5).ShiftLifetime(-3), k, k),
			want: func(l, r []Event) []Event { return uncovered(l, cover(r), 1) }},
	}
	// A Project over a join: a pick-only one is folded into the join, which
	// writes its rows; one with a computed member is not. Each shape runs over
	// the top-level join of l and r, and inside a GroupApply over K, where
	// the join of l with its own windowed rows is keyed and drops the right
	// copy of the group key. K is renamed L on both sides, a name the
	// GroupApply's output does not hold already: the joined row is L, A,
	// r.L, B.
	lk := []string{"L"}
	named := func(p *Plan, val string) *Plan { return p.Project(Rename("K", "L"), Rename(p.Out.Field(1).Name, val)) }
	win3 := func(l []Event) []Event {
		out := make([]Event, len(l))
		for i, e := range l {
			out[i] = Event{LE: e.LE, RE: e.LE + 3, Payload: e.Payload}
		}
		return out
	}
	for _, sh := range []struct {
		name string
		over func(j *Plan) *Plan
		pick func(p Row) (Row, bool)
	}{
		{"reorder", func(j *Plan) *Plan { return j.Project(Keep("B"), Keep("L"), Keep("A")) },
			func(p Row) (Row, bool) { return Row{p[3], p[0], p[1]}, true }},
		{"rename", func(j *Plan) *Plan { return j.Project(Rename("A", "X"), Keep("B")) },
			func(p Row) (Row, bool) { return Row{p[1], p[3]}, true }},
		{"right-only", func(j *Plan) *Plan { return j.Project(Keep("B")) },
			func(p Row) (Row, bool) { return Row{p[3]}, true }},
		{"both-keys", func(j *Plan) *Plan { return j.Project(Keep("L"), Keep("r.L")) },
			func(p Row) (Row, bool) { return Row{p[0], p[2]}, true }},
		{"prefix", func(j *Plan) *Plan { return j.Project(Keep("L"), Keep("A")) },
			func(p Row) (Row, bool) { return Row{p[0], p[1]}, true }},
		{"const", func(j *Plan) *Plan { return j.Project(Keep("B"), ConstInt("C", 7), Keep("L")) },
			func(p Row) (Row, bool) { return Row{p[3], Int(7), p[0]}, true }},
		{"where-prefix", func(j *Plan) *Plan { return j.Where(ColGtInt("B", 2)).Project(Keep("L"), Keep("A")) },
			func(p Row) (Row, bool) { return Row{p[0], p[1]}, p[3].AsInt() > 2 }},
		{"where-reorder", func(j *Plan) *Plan { return j.Where(ColGtInt("B", 2)).Project(Keep("A"), Keep("L")) },
			func(p Row) (Row, bool) { return Row{p[1], p[0]}, p[3].AsInt() > 2 }},
		{"project-where", func(j *Plan) *Plan { return j.Project(Keep("B"), Keep("L")).Where(ColGtInt("B", 2)) },
			func(p Row) (Row, bool) { return Row{p[3], p[0]}, p[3].AsInt() > 2 }},
	} {
		vs = append(vs, liveVariant{name: "join-project-" + sh.name, plan: sh.over(named(l, "A").Join(named(r, "B"), lk, lk, nil)),
			want: func(l, r []Event) []Event { return mapRows(overlapJoin(l, r, 1, nil, 0), sh.pick) }},
			liveVariant{name: "grouped-join-project-" + sh.name,
				plan: l.GroupApply(k, func(g *Plan) *Plan {
					return sh.over(named(g, "A").Join(named(g.WithWindow(3), "B"), lk, lk, nil))
				}),
				want: func(l, _ []Event) []Event {
					return mapRows(overlapJoin(l, win3(l), 1, nil, 0), func(p Row) (Row, bool) {
						row, ok := sh.pick(p)
						return append(Row{p[0]}, row...), ok
					})
				}})
	}
	return vs
}

// liveStream draws n events in LE order over a small time domain: points,
// windows and long intervals (points only when asked), three keys, the
// value column numbering the events.
func liveStream(rng *rand.Rand, n int, points bool) []Event {
	evs := make([]Event, n)
	t := Time(rng.Intn(3))
	for i := range evs {
		t += Time(rng.Intn(3)) // ties, and gaps of one
		w := Tick
		if !points {
			w = []Time{Tick, Tick, Time(2 + rng.Intn(5)), Time(5 + rng.Intn(20))}[rng.Intn(4)]
		}
		evs[i] = Event{LE: t, RE: t + w, Payload: Row{Int(int64(rng.Intn(3))), Int(int64(i))}}
	}
	return evs
}

type liveStep struct {
	src string
	ev  Event
}

// liveSteps merges the two streams into one LE order — what the automatic
// CTI schedule requires across sources — drawing which side goes first on
// a tie.
func liveSteps(rng *rand.Rand, l, r []Event) []liveStep {
	steps := make([]liveStep, 0, len(l)+len(r))
	for len(l) > 0 || len(r) > 0 {
		if len(r) == 0 || len(l) > 0 && (l[0].LE < r[0].LE || l[0].LE == r[0].LE && rng.Intn(2) == 0) {
			steps, l = append(steps, liveStep{"l", l[0]}), l[1:]
		} else {
			steps, r = append(steps, liveStep{"r", r[0]}), r[1:]
		}
	}
	return steps
}

// liveSchedule is one way of driving an engine over the steps.
type liveSchedule struct {
	mode      int  // 0 Feed, 1 FeedMerged over one run, 2 FeedMerged over both sides
	period    Time // automatic CTIs; 0: none
	advance   bool // explicit Advance calls at drawn steps
	restoreAt int  // checkpoint before this step and go on in a restored engine; -1: never
	observed  bool // compiled under a metrics scope
}

func (s liveSchedule) String() string {
	return fmt.Sprintf("%s/period %d/advance %v/restore at %d/observed %v", []string{"Feed", "FeedMerged one run", "FeedMerged"}[s.mode], s.period, s.advance, s.restoreAt, s.observed)
}

// runLive drives plan over the steps of its sources and returns everything
// emitted, in emission order. after, if set, sees the engine after every
// call into it.
func runLive(t *testing.T, rng *rand.Rand, plan *Plan, steps []liveStep, s liveSchedule, after func(*Engine)) []Event {
	t.Helper()
	uses := make(map[string]bool)
	plan.Walk(func(n *Plan) {
		if n.Kind == OpScan {
			uses[n.Source] = true
		}
	})
	var mine []liveStep
	for _, st := range steps {
		if uses[st.src] {
			mine = append(mine, st)
		}
	}
	opts := []Option{WithCTIPeriod(s.period)}
	if s.observed {
		opts = append(opts, WithObs(obs.New("live")))
	}
	eng, err := NewEngine(plan, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var out []Event
	did := func() {
		if after != nil {
			after(eng)
		}
	}
	for i := 0; i < len(mine); {
		if i == s.restoreAt {
			out = append(out, eng.collect.Events...)
			if eng, err = restoreEngine(plan, eng.Checkpoint(), opts...); err != nil {
				t.Fatalf("%v: restore: %v", s, err)
			}
			did()
		}
		if s.advance && rng.Intn(4) == 0 {
			eng.Advance(mine[i].ev.LE)
			did()
		}
		// The call takes mine[i:j]: one event, a same-source stretch, or a
		// piece of the merged order — never across the restore point.
		j := i + 1
		limit := len(mine)
		if i < s.restoreAt {
			limit = min(limit, s.restoreAt)
		}
		switch s.mode {
		case 0:
			eng.Feed(mine[i].src, mine[i].ev)
		case 1:
			for n := 1 + rng.Intn(5); j < limit && j-i < n && mine[j].src == mine[i].src; j++ {
			}
			run := Run{Source: mine[i].src}
			for _, st := range mine[i:j] {
				run.Events = append(run.Events, st.ev)
			}
			if err := eng.FeedMerged([]Run{run}); err != nil {
				t.Fatal(err)
			}
		case 2:
			j = min(limit, i+1+rng.Intn(12))
			runs := []Run{{Source: "l"}, {Source: "r"}}
			for _, st := range mine[i:j] {
				side := &runs[0]
				if st.src == "r" {
					side = &runs[1]
				}
				side.Events = append(side.Events, st.ev)
			}
			if !uses["r"] {
				runs = runs[:1]
			}
			if err := eng.FeedMerged(runs); err != nil {
				t.Fatal(err)
			}
		}
		did()
		i = j
	}
	eng.Flush()
	did()
	return append(out, eng.collect.Events...)
}

func liveSchedules(rng *rand.Rand, steps int) []liveSchedule {
	var out []liveSchedule
	for mode := 0; mode < 3; mode++ {
		for _, period := range []Time{1, 7, 0} {
			s := liveSchedule{mode: mode, period: period, advance: rng.Intn(2) == 0, restoreAt: -1, observed: len(out)%2 == 1}
			if rng.Intn(3) > 0 {
				s.restoreAt = rng.Intn(steps + 1)
			}
			out = append(out, s)
		}
	}
	return out
}

func TestJoinLivenessDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	variants := liveVariants(t)
	outputs := 0
	for trial := 0; trial < 40; trial++ {
		l := liveStream(rng, 5+rng.Intn(40), trial%2 == 0) // AntiSemiJoin wants points; the joins get both
		r := liveStream(rng, 5+rng.Intn(40), trial%4 == 1)
		steps := liveSteps(rng, l, r)
		for _, v := range variants {
			if v.plan.Kind == OpAntiSemiJoin && trial%2 != 0 {
				continue
			}
			canon := func(evs []Event) []Event {
				SortEvents(evs)
				if v.fragments {
					return coalesceReference(evs)
				}
				return evs
			}
			want := canon(v.want(l, r))
			outputs += len(want)
			for _, s := range liveSchedules(rng, len(steps)) {
				if got := canon(runLive(t, rng, v.plan, steps, s, nil)); !EventsEqual(got, want) {
					t.Fatalf("trial %d, %s, %v: engine differs from the enumeration\nl:    %v\nr:    %v\ngot:  %v\nwant: %v", trial, v.name, s, l, r, got, want)
				}
			}
		}
	}
	if outputs < 2000 {
		t.Fatalf("the draws produced %d result events in all; too few to mean anything", outputs)
	}
}

// A point is over before anything the other side can still deliver begins:
// a join whose left input is points keeps no left synopsis at all.
func TestJoinPointSideStoresNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	plan := liveVariants(t)[0].plan
	stored := 0
	for trial := 0; trial < 20; trial++ {
		l, r := liveStream(rng, 40, true), liveStream(rng, 40, false)
		steps := liveSteps(rng, l, r)
		for _, s := range liveSchedules(rng, len(steps)) {
			runLive(t, rng, plan, steps, s, func(eng *Engine) {
				j := eng.ckpts[0].(*temporalJoinOp)
				if n := j.syn[sideLeft].size; n != 0 {
					t.Fatalf("trial %d, %v: %d point events in the left synopsis", trial, s, n)
				}
				stored = max(stored, j.syn[sideRight].size)
			})
		}
	}
	if stored == 0 {
		t.Fatal("the right synopsis never held anything either: the test exercises nothing")
	}
}

// joinFixture is the plan and input of testdata/join_fb2058b.ckpt: bot
// intervals suppress left points, the survivors join right windows. The
// image was written by Engine.Checkpoint at commit fb2058b — before
// merger.dead — after the first half of the steps, and so holds what that
// build stored: every left point and every right event released so far.
func joinFixture() (*Plan, []liveStep) {
	k := []string{"K"}
	plan := Scan("l", liveSchema("A")).
		AntiSemiJoin(Scan("b", liveSchema("C")), k, k).
		Join(Scan("r", liveSchema("B")), k, k, nil)
	var steps []liveStep
	for i := 0; i < 120; i++ {
		t := Time(i / 2)
		row := Row{Int(int64(i % 3)), Int(int64(i))}
		switch i % 4 {
		case 0, 1:
			steps = append(steps, liveStep{"l", PointEvent(t, row)})
		case 2:
			steps = append(steps, liveStep{"r", Event{LE: t, RE: t + Time(1+i%7), Payload: row}})
		case 3:
			if i%12 == 3 {
				steps = append(steps, liveStep{"b", Event{LE: t, RE: t + 2, Payload: row}})
			}
		}
	}
	return plan, steps
}

func TestJoinRestoresParentImage(t *testing.T) {
	image, err := os.ReadFile("testdata/join_fb2058b.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	plan, steps := joinFixture()
	half := len(steps) / 2
	feed := func(eng *Engine, steps []liveStep) {
		for _, st := range steps {
			eng.Feed(st.src, st.ev)
		}
	}
	whole, err := NewEngine(plan, WithCTIPeriod(20))
	if err != nil {
		t.Fatal(err)
	}
	feed(whole, steps[:half])
	if own := whole.Checkpoint(); len(own) >= len(image) {
		t.Fatalf("this build's image at the same point is %d bytes, the parent's %d: the fixture holds no dead entries", len(own), len(image))
	}
	got := append([]Event(nil), whole.collect.Events...) // what had left the parent's engine too
	feed(whole, steps[half:])
	whole.Flush()

	resumed, err := restoreEngine(plan, image, WithCTIPeriod(20))
	if err != nil {
		t.Fatalf("restoring the parent's image: %v", err)
	}
	feed(resumed, steps[half:])
	resumed.Flush()
	got = append(got, resumed.collect.Events...)
	SortEvents(got)

	in := make(map[string][]Event)
	for _, st := range steps {
		in[st.src] = append(in[st.src], st.ev)
	}
	want := overlapJoin(uncovered(in["l"], in["b"], 1), in["r"], 1, nil, 0)
	SortEvents(want)
	if len(want) < 30 || !EventsEqual(emitted(whole), want) {
		t.Fatalf("an uninterrupted run differs from the enumeration\ngot:  %v\nwant: %v", emitted(whole), want)
	}
	if !EventsEqual(got, want) {
		t.Fatalf("resumed from the parent's image\ngot:  %v\nwant: %v", got, want)
	}
}

// spareIsZero reports whether buf holds nothing outside buf[from:].
func spareIsZero[T any](buf []T, from int) bool {
	for i := range buf[:cap(buf)] {
		if (i < from || i >= len(buf)) && !reflect.ValueOf(&buf[:cap(buf)][i]).Elem().IsZero() {
			return false
		}
	}
	return true
}

// A released event left in a merger buffer's consumed prefix or spare
// capacity keeps its whole arena block reachable for as long as the
// high-water capacity lasts; the same for a reset Collector.
func TestMergerClearsReleasedRows(t *testing.T) {
	var sink Collector
	l, r, key := Scan("l", liveSchema("A")), Scan("r", liveSchema("A")), []string{"K"}
	for name, m := range map[string]*merger{
		"Union":        newUnionOp(&sink).m,
		"TemporalJoin": newJoin(l.Join(r, key, key, nil), nil, 0, &sink).m,
		"AntiSemiJoin": newAntiSemiJoin(l.AntiSemiJoin(r, key, key), 0, &sink).m,
	} {
		for i := 0; i < 1000; i++ {
			m.input(sideLeft).OnEvent(PointEvent(Time(i), Row{Int(int64(i))}))
		}
		for _, upTo := range []Time{30, 990} { // below and above the compaction threshold
			m.input(sideRight).OnCTI(upTo)
			if n := len(m.bufs[sideLeft]) - m.heads[sideLeft]; n != int(1000-upTo) || !spareIsZero(m.bufs[sideLeft], m.heads[sideLeft]) {
				t.Errorf("%s: after releasing %d of 1000: %d buffered, released slots zeroed = %v", name, upTo, n, spareIsZero(m.bufs[sideLeft], m.heads[sideLeft]))
			}
		}
	}
	if len(sink.Events) == 0 {
		t.Fatal("nothing was released into the collector")
	}
	sink.Reset()
	if len(sink.Events) != 0 || !spareIsZero(sink.Events, 0) {
		t.Fatal("a reset Collector keeps the last run's events in its capacity")
	}
}

// The same for the loops that filter a slice in place: a join synopsis
// bucket on expiry, ToPoint's continuation table on every event and on
// every CTI, and a UDO's buffer on eviction (the grouped UDO's slots are the
// same udoSlot).
func TestSynopsisClearsExpiredRows(t *testing.T) {
	s := newSynopsis([]int{0})
	for i := 0; i < 10; i++ {
		s.insert(Event{LE: 0, RE: Time(i + 1), Payload: Row{Int(7), Int(int64(i))}})
	}
	s.expire(5)
	for _, bucket := range s.buckets {
		if len(bucket) != 5 || !spareIsZero(bucket, 0) {
			t.Fatalf("after expiring 5 of 10: %d kept, vacated capacity zeroed = %v", len(bucket), spareIsZero(bucket, 0))
		}
	}
}

func TestToPointClearsRetiredRows(t *testing.T) {
	a := &alterLifetimeOp{out: &Collector{}}
	for re := Time(1); re <= 10; re++ { // ten pending lifetimes of one payload, ending at 1..10
		a.OnEvent(Event{LE: 0, RE: re, Payload: Row{Int(7)}})
	}
	check := func(when string, want int) {
		t.Helper()
		for _, bucket := range a.pending {
			if len(bucket) != want || !spareIsZero(bucket, 0) {
				t.Fatalf("%s: %d pending, want %d; vacated capacity zeroed = %v", when, len(bucket), want, spareIsZero(bucket, 0))
			}
		}
	}
	a.OnEvent(Event{LE: 6, RE: 20, Payload: Row{Int(7)}}) // continues the one ending at 6; those ending before it retire
	check("after a continuation", 5)
	a.OnCTI(9)
	check("after a CTI", 3)
}

func TestUDOClearsEvictedRows(t *testing.T) {
	spec := &UDOSpec{Window: 4, Hop: 1, Fn: func(ws, we Time, rows []Row) []Row { return nil }}
	u := newGroupedUDOOp(&lowering{}, keying{}, nil, spec, nil, &Collector{}) // a top-level UDO's kernel
	var s *keySlot[udoSlot]
	for i := 0; i < 40; i++ {
		u.OnEvent(PointEvent(Time(i/4), Row{Int(int64(i))})) // four at a time: the windows evict four at once
		if s, _ = u.find(nil); len(s.slot.buf) > 20 || !spareIsZero(s.slot.buf, 0) {
			t.Fatalf("after event %d: %d buffered, vacated capacity zeroed = %v", i, len(s.slot.buf), spareIsZero(s.slot.buf, 0))
		}
	}
	u.OnCTI(100)
	if len(s.slot.buf) != 0 || !spareIsZero(s.slot.buf, 0) || u.nlive != 0 {
		t.Fatalf("after the last window: %d buffered, vacated capacity zeroed = %v, %d live slots", len(s.slot.buf), spareIsZero(s.slot.buf, 0), u.nlive)
	}
}
