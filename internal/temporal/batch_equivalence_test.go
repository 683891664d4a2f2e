package temporal

import (
	"fmt"
	"math/rand"
	"testing"
)

// Feeding a stream in runs must be indistinguishable from feeding it event
// by event: run boundaries carry no semantics, and the automatic CTI
// schedule fires at the same events whichever entry a stream takes. These
// property tests drive every operator kind with randomized streams,
// randomized per-source punctuation, randomized run boundaries and an
// automatic schedule on or off, and require the *exact* downstream call
// sequence — each emitted event (lifetime and payload) and each CTI, in
// order — to match the per-event run. This is stronger than comparing
// coalesced results: it pins the engine's run entry, FeedMerged, to Feed.

// feedToken is one delivery step of a randomized input script.
type feedToken struct {
	src   string
	isCTI bool
	t     Time
	ev    Event
}

// seqSink records the exact call sequence it observes.
type seqSink struct {
	tokens []feedToken
}

func (r *seqSink) OnEvent(e Event) { r.tokens = append(r.tokens, feedToken{ev: e}) }
func (r *seqSink) OnCTI(t Time)    { r.tokens = append(r.tokens, feedToken{isCTI: true, t: t}) }
func (r *seqSink) OnFlush()        {}

func tokensEqual(a, b feedToken) bool {
	if a.isCTI != b.isCTI {
		return false
	}
	if a.isCTI {
		return a.t == b.t
	}
	if a.ev.LE != b.ev.LE || a.ev.RE != b.ev.RE || len(a.ev.Payload) != len(b.ev.Payload) {
		return false
	}
	for i := range a.ev.Payload {
		if !a.ev.Payload[i].Equal(b.ev.Payload[i]) {
			return false
		}
	}
	return true
}

func diffTokens(got, want []feedToken) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if !tokensEqual(got[i], want[i]) {
			return fmt.Sprintf("call %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("call count: got %d, want %d", len(got), len(want))
	}
	return ""
}

// genScript builds a random delivery script over the given sources:
// point events with globally nondecreasing LE (so each source's substream
// is in order), with CTIs injected at random positions at the current
// stream time.
func genScript(rng *rand.Rand, srcs []string, n int) []feedToken {
	t := Time(0)
	var toks []feedToken
	for i := 0; i < n; i++ {
		t += Time(rng.Intn(4))
		src := srcs[rng.Intn(len(srcs))]
		row := Row{Int(int64(t)), String(fmt.Sprintf("k%d", rng.Intn(3))), Int(int64(rng.Intn(11) - 5))}
		toks = append(toks, feedToken{src: src, ev: PointEvent(t, row)})
		if rng.Intn(4) == 0 {
			toks = append(toks, feedToken{src: srcs[rng.Intn(len(srcs))], isCTI: true, t: t})
		}
	}
	return toks
}

func feedPerEvent(eng *Engine, toks []feedToken) {
	for _, tk := range toks {
		if tk.isCTI {
			eng.inputs[tk.src].OnCTI(tk.t)
		} else {
			eng.Feed(tk.src, tk.ev)
		}
	}
	eng.Flush()
}

// feedRuns replays the same script through FeedMerged, in same-source
// stretches cut at every punctuation and at random extra points. A stretch
// goes in as one run or, cut in two, as two runs the merge must put back in
// order.
func feedRuns(t *testing.T, rng *rand.Rand, eng *Engine, toks []feedToken) {
	var run []Event
	cur := ""
	flush := func() {
		if len(run) == 0 {
			return
		}
		runs := []Run{{Source: cur, Events: run}}
		if cut := rng.Intn(len(run)); cut > 0 {
			runs = []Run{{Source: cur, Events: run[:cut]}, {Source: cur, Events: run[cut:]}}
		}
		if err := eng.FeedMerged(runs); err != nil {
			t.Fatal(err)
		}
		run = run[:0]
	}
	for _, tk := range toks {
		if tk.src != cur || tk.isCTI {
			flush()
			cur = tk.src
		}
		if tk.isCTI {
			eng.inputs[tk.src].OnCTI(tk.t)
			continue
		}
		run = append(run, tk.ev)
		if rng.Intn(3) == 0 {
			flush() // random boundary: must not be observable downstream
		}
	}
	flush()
	eng.Flush()
}

// checkBatchEquivalence compiles the plan twice and compares the exact
// output call sequence of a per-event run against a run-fed run of the
// same script, across several random seeds; odd seeds punctuate
// automatically too.
func checkBatchEquivalence(t *testing.T, name string, mk func() *Plan, srcs []string) {
	t.Helper()
	for seed := int64(0); seed < 8; seed++ {
		toks := genScript(rand.New(rand.NewSource(seed)), srcs, 120)
		period := []Time{0, 5}[seed%2]
		build := func(out Sink) *Engine {
			eng, err := NewEngine(mk(), WithSink(out), WithCTIPeriod(period))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return eng
		}

		ref := &seqSink{}
		feedPerEvent(build(ref), toks)
		got := &seqSink{}
		feedRuns(t, rand.New(rand.NewSource(seed+1000)), build(got), toks)

		if d := diffTokens(got.tokens, ref.tokens); d != "" {
			t.Fatalf("%s seed %d: run-fed engine diverged: %s", name, seed, d)
		}
	}
}

// scriptSchema matches genScript's rows: {Time, Key, V}.
func scriptSchema() *Schema {
	return NewSchema(
		Field{Name: "Time", Kind: KindInt},
		Field{Name: "Key", Kind: KindString},
		Field{Name: "V", Kind: KindInt},
	)
}

func TestBatchEquivalenceEveryOperator(t *testing.T) {
	sch := scriptSchema()
	one := []string{"s"}
	two := []string{"l", "r"}
	cases := []struct {
		name string
		srcs []string
		mk   func() *Plan
	}{
		{"Select", one, func() *Plan {
			return Scan("s", sch).Where(ColGtInt("V", 0))
		}},
		{"Project", one, func() *Plan {
			return Scan("s", sch).Project(Keep("Time"), Keep("V"))
		}},
		{"AlterLifetimeWindow", one, func() *Plan {
			return Scan("s", sch).WithWindow(10)
		}},
		{"AlterLifetimeHop", one, func() *Plan {
			return Scan("s", sch).WithHop(10, 4)
		}},
		{"AlterLifetimeShift", one, func() *Plan {
			return Scan("s", sch).WithWindow(6).ShiftLifetime(-3)
		}},
		{"AlterLifetimePoint", one, func() *Plan {
			return Scan("s", sch).WithWindow(5).Count("C").ToPoint()
		}},
		{"Aggregate", one, func() *Plan {
			return Scan("s", sch).WithWindow(10).Sum("V", "S")
		}},
		{"GroupApply", one, func() *Plan {
			return Scan("s", sch).GroupApply([]string{"Key"}, func(g *Plan) *Plan {
				return g.WithWindow(8).Count("C")
			})
		}},
		{"UDO", one, func() *Plan {
			return Scan("s", sch).Apply(UDOSpec{
				Name: "count", Window: 10, Hop: 5,
				Out: NewSchema(Field{Name: "N", Kind: KindInt}),
				Fn: func(ws, we Time, rows []Row) []Row {
					return []Row{{Int(int64(len(rows)))}}
				},
			})
		}},
		{"Union", two, func() *Plan {
			return Scan("l", sch).Union(Scan("r", sch))
		}},
		{"TemporalJoin", two, func() *Plan {
			return Scan("l", sch).Join(Scan("r", sch).WithWindow(12), []string{"Key"}, []string{"Key"}, nil)
		}},
		{"AntiSemiJoin", two, func() *Plan {
			return Scan("l", sch).AntiSemiJoin(Scan("r", sch).WithWindow(12), []string{"Key"}, []string{"Key"})
		}},
		{"Multicast", one, func() *Plan {
			// A shared node compiles to a physical multicast feeding both
			// sides of the union.
			base := Scan("s", sch).Where(ColGtInt("V", -10))
			return base.WithWindow(4).Count("C").Union(base.WithWindow(9).Count("C"))
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			checkBatchEquivalence(t, tc.name, tc.mk, tc.srcs)
		})
	}
}
