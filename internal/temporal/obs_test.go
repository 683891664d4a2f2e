package temporal

import (
	"bytes"
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
//
// Select and AlterLifetime are members of one kernel, which meters itself;
// the counts are the same on every feed path.
func TestObservedOperatorCounts(t *testing.T) {
	schema := NewSchema(Field{Name: "Time", Kind: KindInt}, Field{Name: "V", Kind: KindInt})
	var evs []Event
	for _, f := range []struct{ tm, v int64 }{{0, 1}, {1, -1}, {2, 1}, {5, 1}} {
		evs = append(evs, PointEvent(Time(f.tm), Row{Int(f.tm), Int(f.v)}))
	}
	for _, c := range []struct {
		name string
		feed func(eng *Engine)
	}{
		{"per-event", func(eng *Engine) {
			for _, e := range evs {
				eng.Feed("s", e)
			}
		}},
		{"row-batch", func(eng *Engine) {
			if err := eng.FeedMerged([]Run{{Source: "s", Events: evs}}); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			root := obs.New("engine")
			eng, err := NewEngine(Scan("s", schema).Where(ColGtInt("V", 0)).WithWindow(10).Count("C"), WithObs(root))
			if err != nil {
				t.Fatal(err)
			}
			c.feed(eng)
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
		})
	}

	// A pick-only Project over a join is folded into it: the join writes
	// the Project's rows, and the Project still reports under its own
	// scope, taking in and giving out exactly what the join emits. Two of
	// the five events find a partner.
	t.Run("folded-project", func(t *testing.T) {
		root := obs.New("engine")
		k := []string{"K"}
		plan := Scan("l", liveSchema("A")).Join(Scan("r", liveSchema("B")), k, k, nil).Project(Keep("B"), Keep("K"))
		eng, err := NewEngine(plan, WithObs(root), WithCTIPeriod(2))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []struct {
			src    string
			le, re Time
			k      int64
		}{{"l", 0, 10, 1}, {"r", 1, 5, 1}, {"l", 2, 4, 2}, {"r", 3, 6, 2}, {"r", 7, 8, 3}} {
			eng.Feed(f.src, Event{LE: f.le, RE: f.re, Payload: Row{Int(f.k), Int(f.le)}})
		}
		eng.Flush()
		proj, join := root.Child("op00.Project"), root.Child("op01.TemporalJoin")
		if in, out := join.Counter("events_in").Value(), join.Counter("events_out").Value(); in != 5 || out != 2 {
			t.Fatalf("op01.TemporalJoin: in/out = %d/%d, want 5/2", in, out)
		}
		if in, out := proj.Counter("events_in").Value(), proj.Counter("events_out").Value(); in != 2 || out != 2 {
			t.Errorf("op00.Project: in/out = %d/%d, want the join's output, 2/2", in, out)
		}
		if pc, jc := proj.Counter("ctis").Value(), join.Counter("ctis").Value(); pc != jc || jc == 0 {
			t.Errorf("op00.Project passed %d punctuations, the join %d", pc, jc)
		}
		if got := eng.Results(); len(got) != 2 || !got[0].Payload.Equal(Row{Int(1), Int(1)}) || !got[1].Payload.Equal(Row{Int(3), Int(2)}) {
			t.Errorf("results = %v, want [B K] rows [1 1] and [3 2]", got)
		}
	})
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

// Observation must not change the pipeline: over the kernel plan table and
// every feed path, an engine with a scope and one without checkpoint to the
// same bytes half way through the input, and produce the same raw results.
func TestObservedMatchesUnobserved(t *testing.T) {
	for _, c := range kernelCases() {
		for _, f := range kernelFeeds {
			t.Run(c.name+"/"+f.name, func(t *testing.T) {
				var snaps [2][]byte
				var outs [2][]Event
				for i, opts := range [][]Option{nil, {WithObs(obs.New("x"))}} {
					eng, err := NewEngine(c.plan, append(opts, WithCTIPeriod(fusedTestCTIPeriod))...)
					if err != nil {
						t.Fatal(err)
					}
					half := len(c.evs) / 2
					f.feed(eng, c.evs[:half])
					snaps[i] = eng.Checkpoint()
					f.feed(eng, c.evs[half:])
					eng.Flush()
					outs[i] = emitted(eng)
				}
				if !bytes.Equal(snaps[0], snaps[1]) {
					t.Error("observed engine checkpoints to different bytes")
				}
				if !EventsEqual(outs[0], outs[1]) {
					t.Errorf("observed run diverged from plain run\n got %v\nwant %v", outs[1], outs[0])
				}
			})
		}
	}
}

// GroupApply's punctuation counters, read off the grouped kernel: two keys with a 10-tick window, key 1
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
	if got := sc.Gauge("groups_live").Value(); got != 2 {
		t.Errorf("groups_live = %d, want 2", got)
	}
}
