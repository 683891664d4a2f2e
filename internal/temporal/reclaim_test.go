package temporal

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"timr/internal/obs"
)

// GroupApply holds state for live keys only: a grouped kernel drops a slot
// the instant it holds nothing — an aggregate's when its active set
// empties, a UDO's when a broadcast empties its buffer. These tests pin
// that this is invisible in output and checkpoints, and that it actually
// bounds state.

func reclaimSchema() *Schema {
	return NewSchema(
		Field{Name: "Time", Kind: KindInt},
		Field{Name: "K", Kind: KindInt},
		Field{Name: "V", Kind: KindInt},
		Field{Name: "F", Kind: KindFloat},
	)
}

// genBursty builds point events over sparse keys in bursts: a few keys are
// active for a while, then time jumps past any window (everything drains)
// and a new, overlapping set of keys takes over — keys go quiet and return.
func genBursty(r *rand.Rand, bursts int) []Event {
	var out []Event
	t := Time(0)
	for b := 0; b < bursts; b++ {
		active := make([]int64, 1+r.Intn(4))
		for i := range active {
			active[i] = int64(r.Intn(12))
		}
		for i, n := 0, 3+r.Intn(25); i < n; i++ {
			t += 1 + Time(r.Intn(4))
			k := active[r.Intn(len(active))]
			out = append(out, PointEvent(t, Row{Int(t), Int(k), Int(int64(r.Intn(10))), Float(r.Float64()*10 - 3)}))
		}
		t += Time(r.Intn(120)) // often, not always, beyond every window below
	}
	return out
}

// reclaimSubPlans are the GroupApply sub-plans under test; between them
// they contain both grouped kernels and the combiners between them.
var reclaimSubPlans = map[string]func(g *Plan) *Plan{
	"count":   func(g *Plan) *Plan { return g.WithWindow(9).Count("C") },
	"sum":     func(g *Plan) *Plan { return g.WithWindow(9).Sum("F", "S") },
	"avg":     func(g *Plan) *Plan { return g.WithWindow(7).Avg("F", "A") },
	"min":     func(g *Plan) *Plan { return g.WithWindow(11).Min("V", "M") },
	"max":     func(g *Plan) *Plan { return g.WithWindow(11).Max("V", "M") },
	"hopping": func(g *Plan) *Plan { return g.WithHop(12, 4).Count("C") },
	"union": func(g *Plan) *Plan {
		// Tagged, so that overlapping equal counts from the two branches
		// stay distinct events and the coalesced form is unique.
		return g.Where(ColGtInt("V", 4)).WithWindow(6).Count("C").Project(Keep("C"), ConstInt("Hi", 1)).
			Union(g.Where(Not(ColGtInt("V", 4))).WithHop(8, 4).Count("C").Project(Keep("C"), ConstInt("Hi", 0)))
	},
	"join": func(g *Plan) *Plan {
		return g.Where(ColGtInt("V", 4)).WithHop(8, 8).Count("Hi").
			Join(g.Where(Not(ColGtInt("V", 4))).WithHop(8, 8).Count("Lo"), nil, nil, nil)
	},
	"topoint": func(g *Plan) *Plan { return g.WithWindow(5).Sum("V", "S").ToPoint() },
	"udo": func(g *Plan) *Plan {
		return g.Apply(UDOSpec{
			Name: "sum", Window: 10, Hop: 5,
			Out: NewSchema(Field{Name: "S", Kind: KindFloat}),
			Fn: func(ws, we Time, rows []Row) []Row {
				var s float64
				for _, row := range rows {
					s += row[3].AsFloat()
				}
				return []Row{{Float(s)}}
			},
		})
	},
}

func reclaimPlan(sub func(g *Plan) *Plan) *Plan {
	return Scan("in", reclaimSchema()).GroupApply([]string{"K"}, sub)
}

// Punctuation schedules. Only the ones that punctuate ever reclaim.
const (
	ctiNone   = iota // nothing until Flush
	ctiEvery         // after every event, at its LE
	ctiRandom        // now and then, somewhere in the gap before the next event
)

// ctiAfter returns the punctuation (if any) a schedule places after
// events[i]. Deterministic in (seed, i) so two engines can be driven alike.
func ctiAfter(schedule int, seed int64, events []Event, i int) (Time, bool) {
	switch schedule {
	case ctiEvery:
		return events[i].LE, true
	case ctiRandom:
		r := rand.New(rand.NewSource(seed*7919 + int64(i)))
		if r.Intn(3) != 0 {
			return 0, false
		}
		hi := events[i].LE
		if i+1 < len(events) {
			hi = events[i+1].LE
		}
		return events[i].LE + Time(r.Int63n(int64(hi-events[i].LE)+1)), true
	}
	return 0, false
}

func driveSchedule(eng *Engine, schedule int, seed int64, events []Event, from, to int) {
	for i := from; i < to; i++ {
		eng.Feed("in", events[i])
		if t, ok := ctiAfter(schedule, seed, events, i); ok {
			eng.Advance(t)
		}
	}
}

// groupApplyOf returns the output halves of the pipeline's GroupApply.
func groupApplyOf(t *testing.T, eng *Engine) []*groupOutput {
	t.Helper()
	for _, ck := range eng.ckpts {
		if g, ok := ck.(*groupOps); ok {
			return g.outs
		}
	}
	t.Fatal("pipeline has no GroupApply")
	return nil
}

func TestReclamationIsInvisible(t *testing.T) {
	for name, sub := range reclaimSubPlans {
		sub := sub
		t.Run(name, func(t *testing.T) {
			reclaimedSomewhere := false
			for seed := int64(1); seed <= 12; seed++ {
				events := genBursty(rand.New(rand.NewSource(seed)), 8)
				var results [3][]Event
				for schedule := range results {
					sc := obs.New("t")
					eng, err := NewEngine(reclaimPlan(sub), WithCTIPeriod(0), WithObs(sc))
					if err != nil {
						t.Fatal(err)
					}
					driveSchedule(eng, schedule, seed, events, 0, len(events))
					reclaimed := sc.Child("op00.GroupApply").Counter("groups_reclaimed").Value()
					if name == "udo" && schedule == ctiNone && reclaimed != 0 { // a UDO slot dies at a broadcast only
						t.Fatalf("seed %d: reclaimed %d slots without a single CTI", seed, reclaimed)
					}
					reclaimedSomewhere = reclaimedSomewhere || schedule != ctiNone && reclaimed > 0
					eng.Flush()
					results[schedule] = eng.Results()
				}
				// (a) Punctuation — and therefore reclamation — is invisible
				// in the coalesced output, float payloads bit for bit.
				for schedule := ctiEvery; schedule <= ctiRandom; schedule++ {
					if !EventsEqual(results[schedule], results[ctiNone]) {
						t.Fatalf("seed %d: schedule %d gives %d events, unpunctuated %d:\n%v\n%v",
							seed, schedule, len(results[schedule]), len(results[ctiNone]), results[schedule], results[ctiNone])
					}
				}
				// (b) A checkpoint taken after reclamation restores into an
				// engine that continues exactly like the one it came from.
				reclaimRoundtrip(t, sub, seed, events)
			}
			if !reclaimedSomewhere {
				t.Fatal("no seed ever reclaimed a slot: the test exercises nothing")
			}
		})
	}
}

// reclaimRoundtrip splits a randomly punctuated run at a random point
// after the first reclamation: prefix, checkpoint, restore, suffix. The
// raw emission sequence and the final checkpoint bytes must match the
// uninterrupted run.
func reclaimRoundtrip(t *testing.T, sub func(g *Plan) *Plan, seed int64, events []Event) {
	t.Helper()
	clean := &seqSink{}
	sc := obs.New("t")
	e0, err := NewEngine(reclaimPlan(sub), WithSink(clean), WithCTIPeriod(0), WithObs(sc))
	if err != nil {
		t.Fatal(err)
	}
	reclaimed := sc.Child("op00.GroupApply").Counter("groups_reclaimed")
	first := -1
	for i := range events {
		driveSchedule(e0, ctiRandom, seed, events, i, i+1)
		if first < 0 && reclaimed.Value() > 0 {
			first = i + 1
		}
	}
	if first < 0 {
		return // this seed never reclaims under the random schedule
	}
	split := first + rand.New(rand.NewSource(seed)).Intn(len(events)-first+1)

	got := &seqSink{}
	e1, err := NewEngine(reclaimPlan(sub), WithSink(got), WithCTIPeriod(0))
	if err != nil {
		t.Fatal(err)
	}
	driveSchedule(e1, ctiRandom, seed, events, 0, split)
	snap := e1.Checkpoint()
	e2, err := restoreEngine(reclaimPlan(sub), snap, WithSink(got), WithCTIPeriod(0))
	if err != nil {
		t.Fatalf("seed %d: restore at %d/%d: %v", seed, split, len(events), err)
	}
	if !bytes.Equal(e2.Checkpoint(), snap) {
		t.Fatalf("seed %d: restore at %d/%d is lossy", seed, split, len(events))
	}
	driveSchedule(e2, ctiRandom, seed, events, split, len(events))
	if !bytes.Equal(e2.Checkpoint(), e0.Checkpoint()) {
		t.Fatalf("seed %d: final checkpoints differ after a restore at %d/%d", seed, split, len(events))
	}
	e0.Flush()
	e2.Flush()
	if d := diffTokens(got.tokens, clean.tokens); d != "" {
		t.Fatalf("seed %d: restore at %d/%d diverges: %s", seed, split, len(events), d)
	}
}

// TestFloatSumForgetsAcrossEmpty: 0.1+0.2+0.3 leaves a rounding residue
// when the same values are subtracted again. A group that empties and
// refills must not carry it — otherwise a run that reclaimed the slot in
// between (new accumulator) and one that kept it would disagree in the
// last bits.
func TestFloatSumForgetsAcrossEmpty(t *testing.T) {
	ev := func(ts Time, f float64) Event { return PointEvent(ts, Row{Int(ts), Int(1), Int(0), Float(f)}) }
	events := []Event{ev(0, 0.1), ev(1, 0.2), ev(2, 0.3), ev(100, 0.7)}
	var last [3]float64
	for schedule := range last {
		eng, err := NewEngine(reclaimPlan(reclaimSubPlans["sum"]), WithCTIPeriod(0))
		if err != nil {
			t.Fatal(err)
		}
		driveSchedule(eng, schedule, 1, events, 0, len(events))
		eng.Flush()
		res := eng.Results()
		last[schedule] = res[len(res)-1].Payload[1].AsFloat()
	}
	for schedule, f := range last {
		if math.Float64bits(f) != math.Float64bits(0.7) {
			t.Errorf("schedule %d: refilled sum = %v (bits %x), want exactly 0.7", schedule, f, math.Float64bits(f))
		}
	}
}

// TestGroupApplyDeliversRemainderBeforeWatermark reproduces a latent bug:
// quiescence used to be "a CTI has passed lastLE + the sub-plan's window",
// which ignores the input event's own lifetime. A [0,100) event under a
// plain Count was skipped by every CTI after the first, and its remainder
// surfaced only at Flush — after CTIs far beyond it had gone downstream.
func TestGroupApplyDeliversRemainderBeforeWatermark(t *testing.T) {
	plan := Scan("in", propSchema()).GroupApply([]string{"V"}, func(g *Plan) *Plan { return g.Count("C") })
	out := &seqSink{}
	eng, err := NewEngine(plan, WithSink(out), WithCTIPeriod(0))
	if err != nil {
		t.Fatal(err)
	}
	eng.Feed("in", Event{LE: 0, RE: 100, Payload: Row{Int(0), Int(7)}})
	for ts := Time(10); ts <= 200; ts += 10 {
		eng.Advance(ts)
	}
	var covered, watermark Time
	for _, tok := range out.tokens {
		if tok.isCTI {
			watermark = tok.t
			continue
		}
		if tok.ev.LE < watermark {
			t.Fatalf("event %v emitted after CTI %d", tok.ev, watermark)
		}
		if tok.ev.LE != covered {
			t.Fatalf("fragment %v does not continue at %d", tok.ev, covered)
		}
		covered = tok.ev.RE
	}
	if covered != 100 {
		t.Fatalf("before Flush the count covers [0,%d), want [0,100): %v", covered, out.tokens)
	}
	if n := eng.ckpts[0].(stateSizer).liveState(); n != 0 {
		t.Fatalf("liveState = %d after the group drained, want 0", n)
	}
}

// TestGroupApplyLiveStateIsLiveGroups: only keys that hold state have a
// slot, liveState is zero once none does, and a snapshot carries live slots
// only — with a combiner above the kernel too.
func TestGroupApplyLiveStateIsLiveGroups(t *testing.T) {
	for name, sub := range map[string]func(g *Plan) *Plan{
		"kernel":  reclaimSubPlans["count"],
		"topoint": func(g *Plan) *Plan { return g.WithWindow(9).Count("C").ToPoint() },
	} {
		sc := obs.New("t")
		eng, err := NewEngine(reclaimPlan(sub), WithCTIPeriod(0), WithObs(sc))
		if err != nil {
			t.Fatal(err)
		}
		g := groupApplyOf(t, eng)
		gsc := sc.Child("op00.GroupApply")
		feed := func(ts Time, keys ...int64) {
			for _, k := range keys {
				eng.Feed("in", PointEvent(ts, Row{Int(ts), Int(k), Int(0), Float(0)}))
			}
		}
		feed(0, 1, 2, 3, 4)
		eng.Advance(5) // windows [0,9) still open
		if liveGroups(g) != 4 {
			t.Fatalf("%s: %d live groups under open windows, want 4", name, liveGroups(g))
		}
		withFour := len(eng.Checkpoint())
		eng.Advance(50)
		if live := eng.ckpts[0].(stateSizer).liveState(); liveGroups(g) != 0 || live != 0 {
			t.Fatalf("%s: after the windows closed: %d live groups, liveState %d, want 0, 0", name, liveGroups(g), live)
		}
		if empty := len(eng.Checkpoint()); empty >= withFour {
			t.Fatalf("%s: checkpoint did not shrink: %d bytes with four groups, %d with none", name, withFour, empty)
		}
		feed(60, 5, 6)
		eng.Advance(61)
		got := [2]int64{gsc.Gauge("groups_live").Value(), gsc.Counter("groups_reclaimed").Value()}
		if got != [2]int64{2, 4} {
			t.Fatalf("%s: groups_live, groups_reclaimed = %v, want [2 4]", name, got)
		}
	}
}

// TestCheckpointWithUnsortedStaged: staged output is a sorted remainder
// (what earlier releases left behind — a hopping window's results start
// ahead of the watermark) plus an arrival-order tail. A snapshot writes it
// in canonical order, which must be invisible: the engine that took the
// checkpoint, the engine restored from it and an engine that never
// checkpointed all emit the identical sequence and end in identical bytes.
func TestCheckpointWithUnsortedStaged(t *testing.T) {
	plan := func() *Plan { return reclaimPlan(reclaimSubPlans["hopping"]) }
	partlySorted := func(g *groupOutput) bool {
		return g.sorted > 0 && g.sorted < len(g.staged) &&
			!sort.SliceIsSorted(g.staged, func(i, j int) bool { return eventBefore(g.staged[i], g.staged[j]) })
	}
	tested := 0
	for seed := int64(1); seed <= 12; seed++ {
		events := genBursty(rand.New(rand.NewSource(seed)), 8)
		engines := [3]*Engine{} // never checkpointed, checkpointed, restored
		sinks := [3]*seqSink{{}, {}, {}}
		for i := range engines[:2] {
			eng, err := NewEngine(plan(), WithSink(sinks[i]), WithCTIPeriod(0))
			if err != nil {
				t.Fatal(err)
			}
			engines[i] = eng
		}
		for i := range events {
			for _, eng := range engines {
				if eng != nil {
					driveSchedule(eng, ctiRandom, seed, events, i, i+1)
				}
			}
			if engines[2] == nil && partlySorted(groupApplyOf(t, engines[1])[0]) {
				snap := engines[1].Checkpoint()
				sinks[2].tokens = append(sinks[2].tokens, sinks[1].tokens...)
				restored, err := restoreEngine(plan(), snap, WithSink(sinks[2]), WithCTIPeriod(0))
				if err != nil {
					t.Fatalf("seed %d: restore after event %d: %v", seed, i, err)
				}
				if !bytes.Equal(restored.Checkpoint(), snap) {
					t.Fatalf("seed %d: restore after event %d is lossy", seed, i)
				}
				engines[2] = restored
			}
		}
		if engines[2] == nil {
			continue // this seed never leaves a remainder under an unsorted tail
		}
		tested++
		final := engines[0].Checkpoint()
		for i, eng := range engines {
			if i > 0 && !bytes.Equal(eng.Checkpoint(), final) {
				t.Fatalf("seed %d: final checkpoint of engine %d differs from the uninterrupted run's", seed, i)
			}
			eng.Flush()
			if d := diffTokens(sinks[i].tokens, sinks[0].tokens); d != "" {
				t.Fatalf("seed %d: engine %d diverges from the uninterrupted run: %s", seed, i, d)
			}
		}
	}
	if tested == 0 {
		t.Fatal("no seed reached a partly sorted staged buffer: the test exercises nothing")
	}
}

// TestGroupApplyPunctuationDoesNotAllocatePerEvent counts allocations of a
// serving wave — 1000 events into a warmed GroupApply(Count), then one
// broadcast. Staging, the expiration queue and the release must contribute
// none in steady state; what is left is the row arenas taking a new block
// now and then. (Boxed heaps cost four objects per event: 4000 a wave.)
func TestGroupApplyPunctuationDoesNotAllocatePerEvent(t *testing.T) {
	eng, err := NewEngine(reclaimPlan(func(g *Plan) *Plan { return g.WithWindow(64).Count("C") }),
		WithSink(&FuncSink{}), WithCTIPeriod(0))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 16)
	for k := range rows {
		rows[k] = Row{Int(0), Int(int64(k)), Int(0), Float(0)}
	}
	now := Time(0)
	wave := func() {
		for i := 0; i < 1000; i++ {
			now++
			eng.Feed("in", PointEvent(now, rows[i%len(rows)]))
		}
		eng.Advance(now)
	}
	wave() // warm: compile the groups, size the buffers
	if allocs := testing.AllocsPerRun(20, wave); allocs >= 100 {
		t.Fatalf("a 1000-event wave allocates %.0f objects, want < 100", allocs)
	}
}

// TestGroupedUDONewKeyAllocs: a key's first event in GroupApply(k, UDO)
// costs a slot, not a compiled sub-pipeline — its key row, the slot, its
// buffer and the row list of each of the two windows it fills: five
// objects, and the test's own input row makes six.
func TestGroupedUDONewKeyAllocs(t *testing.T) {
	out := []Row{{Int(1)}}
	spec := UDOSpec{Name: "one", Window: 4, Hop: 2, Out: NewSchema(Field{Name: "N", Kind: KindInt}),
		Fn: func(ws, we Time, rows []Row) []Row { return out }}
	eng, err := NewEngine(reclaimPlan(func(g *Plan) *Plan { return g.Apply(spec) }), WithSink(&FuncSink{}), WithCTIPeriod(0))
	if err != nil {
		t.Fatal(err)
	}
	k, now := int64(0), Time(0)
	newKey := func() { // an event of a new key, then a punctuation past its windows: the slot comes and goes
		k, now = k+1, now+100
		eng.Feed("in", PointEvent(now, Row{Int(now), Int(k), Int(0), Float(0)}))
		eng.Advance(now + 10)
	}
	for i := 0; i < 100; i++ {
		newKey() // warm: size the staging buffers and the slot table
	}
	if allocs := testing.AllocsPerRun(1000, newKey); allocs > 6 {
		t.Fatalf("a new key allocates %.2f objects, want at most 6", allocs)
	} else {
		t.Logf("a new key allocates %.2f objects", allocs)
	}
}
