package temporal

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"
)

// Differential gates for the stateless kernel (op_fused.go): for any plan
// and either engine entry — Feed per event, FeedMerged over runs — an
// engine must produce exactly the output, and the checkpoint bytes, of two
// references that need no second engine mode: the same plan with its
// stateless runs split into one-member kernels (splitRuns), and, where the
// plan is stateless throughout, a per-event evaluator with no kernel in it
// (evalStateless).

// splitRuns copies the plan DAG (sub-plans included) with an Exchange
// annotation between every two adjacent stateless nodes. The compiler
// breaks runs at an Exchange and compiles nothing for it, so each
// k-member kernel becomes k one-member kernels pushing rows to each other.
func splitRuns(p *Plan) *Plan {
	memo := make(map[*Plan]*Plan)
	var rec func(n *Plan) *Plan
	rec = func(n *Plan) *Plan {
		if c, ok := memo[n]; ok {
			return c
		}
		c := *n
		c.Inputs = make([]*Plan, len(n.Inputs))
		for i, in := range n.Inputs {
			c.Inputs[i] = rec(in)
			if fusable(n) && fusable(in) {
				c.Inputs[i] = c.Inputs[i].Exchange(PartitionBy{})
			}
		}
		if n.Sub != nil {
			c.Sub = rec(n.Sub)
		}
		memo[n] = &c
		return &c
	}
	return rec(p)
}

// evalStateless evaluates a plan that is a chain of stateless nodes over
// one scan by applying each node's predicate, projection or lifetime
// formula to one event at a time; ok is false for any other plan.
func evalStateless(plan *Plan, evs []Event) (out []Event, ok bool) {
	var chain []*Plan // root first
	for n := plan; n.Kind != OpScan; n = n.Inputs[0] {
		if !fusable(n) {
			return nil, false
		}
		chain = append(chain, n)
	}
next:
	for _, e := range evs {
		for i := len(chain) - 1; i >= 0; i-- {
			n := chain[i]
			in := n.Inputs[0].Out
			switch {
			case n.Kind == OpSelect:
				if !n.Pred.compile(in)(e.Payload) {
					continue next
				}
			case n.Kind == OpProject:
				row := make(Row, len(n.Projs))
				for j, pr := range n.Projs {
					if pr.Source != "" {
						row[j] = e.Payload[in.MustIndex(pr.Source)]
					} else {
						row[j] = pr.Make(in.Indexes(pr.Cols...))(e.Payload)
					}
				}
				e.Payload = row
			case n.Mode == LifeWindow:
				e.RE = e.LE + n.Window
			case n.Mode == LifeHop:
				s := e.LE
				e.LE = floorDiv(s, n.Hop)*n.Hop + n.Hop
				e.RE = floorDiv(s+n.Window, n.Hop)*n.Hop + n.Hop
			case n.Mode == LifeShift:
				e.LE, e.RE = e.LE+n.Shift, e.RE+n.Shift
			}
			if e.RE <= e.LE {
				e.RE = e.LE + Tick
			}
		}
		out = append(out, e)
	}
	SortEvents(out)
	return out, true
}

// fusedTestCTIPeriod is deliberately tiny and misaligned with the feed
// run length, so the automatic schedule fires inside every multi-run feed's
// runs.
const fusedTestCTIPeriod = 7

func fusedReadings(n int) []Event {
	ids := []string{"a", "b", "c"}
	evs := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		evs = append(evs, reading(Time(i), ids[i%3], int64(i*7%50)-10))
	}
	return evs
}

// fusedOddReadings carries nulls (every 4th) and out-of-kind ints (every
// 5th) in the ID column; a projection must carry the odd cells through.
func fusedOddReadings(n int) []Event {
	evs := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		id := String("x")
		switch {
		case i%4 == 0:
			id = Null
		case i%5 == 0:
			id = Int(int64(i))
		}
		evs = append(evs, PointEvent(Time(i), Row{Int(int64(i)), id, Int(int64(i%13) - 3)}))
	}
	return evs
}

func floatReadingSchema() *Schema {
	return NewSchema(
		Field{Name: "Time", Kind: KindInt},
		Field{Name: "ID", Kind: KindString},
		Field{Name: "Val", Kind: KindFloat},
	)
}

func fusedFloatReadings(n int) []Event {
	evs := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		evs = append(evs, PointEvent(Time(i), Row{Int(int64(i)), String("f"), Float(float64(i%9) - 4.5)}))
	}
	return evs
}

// kernelFeeds are the two engine entries every differential runs: Feed
// per event, and FeedMerged over resident runs. The run length is
// misaligned with fusedTestCTIPeriod on purpose.
var kernelFeeds = []struct {
	name string
	feed func(eng *Engine, evs []Event)
}{
	{"per-event", func(eng *Engine, evs []Event) {
		for _, e := range evs {
			eng.Feed("in", e)
		}
	}},
	{"row-batch", func(eng *Engine, evs []Event) {
		for lo := 0; lo < len(evs); lo += 17 {
			if err := eng.FeedMerged([]Run{{Source: "in", Events: evs[lo:min(lo+17, len(evs))]}}); err != nil {
				panic(err)
			}
		}
	}},
}

// checkFusedEquivalence requires the same raw output, and the same
// checkpoint bytes half way through the input, from the plan and from its
// split-run form on every feed path — the split plan fed per event is the
// reference — and from evalStateless where it applies.
func checkFusedEquivalence(t *testing.T, plan *Plan, evs []Event) {
	t.Helper()
	half := len(evs) / 2
	var want []Event
	var wantSnap []byte
	for _, form := range []struct {
		name string
		plan *Plan
	}{{"split", splitRuns(plan)}, {"kernel", plan}} {
		for _, f := range kernelFeeds {
			eng, err := NewEngine(form.plan, WithCTIPeriod(fusedTestCTIPeriod))
			if err != nil {
				t.Fatal(err)
			}
			f.feed(eng, evs[:half])
			snap := eng.Checkpoint()
			f.feed(eng, evs[half:])
			eng.Flush()
			got := emitted(eng)
			if want == nil {
				want, wantSnap = got, snap
				continue
			}
			if !EventsEqual(got, want) {
				t.Errorf("%s/%s: output diverges\n got %v\nwant %v", form.name, f.name, got, want)
			}
			if !bytes.Equal(snap, wantSnap) {
				t.Errorf("%s/%s: checkpoint bytes diverge", form.name, f.name)
			}
		}
	}
	if len(want) == 0 {
		t.Error("no output; the differential is vacuous")
	}
	if ref, ok := evalStateless(plan, evs); ok && !EventsEqual(want, ref) {
		t.Errorf("engines diverge from the per-event evaluator\n got %v\nwant %v", want, ref)
	}
}

type kernelCase struct {
	name string
	plan *Plan
	evs  []Event
}

// kernelCases is the plan table of the kernel differentials: every
// stateless shape, runs ending at a stateful boundary, and a multicast
// diamond. All read source "in".
func kernelCases() []kernelCase {
	sch := readingSchema()
	evs := fusedReadings(120)
	double := Compute("Doubled", KindInt, func(v []Value) Value { return Int(v[0].AsInt() * 2) }, "Power")
	powerLt := func(n int64) Predicate {
		return FnPred(fmt.Sprintf("Power < %d", n), func(v []Value) bool { return v[0].AsInt() < n }, "Power")
	}
	// The multicast diamond: a shared scan heading two kernels.
	src := Scan("in", sch)
	diamond := src.Where(ColGtInt("Power", 20)).Project(Keep("Time"), Keep("ID"), ConstInt("Tag", 1)).
		Union(src.Where(Not(ColGtInt("Power", 20))).Project(Keep("Time"), Keep("ID"), ConstInt("Tag", 0)))
	return []kernelCase{
		{"filter-chain", Scan("in", sch).Where(ColGtInt("Power", -5)).Where(powerLt(35)), evs},
		{"filter-allpass", Scan("in", sch).Where(ColGtInt("Power", -100)), evs},
		{"filter-string", Scan("in", sch).Where(FnPred(`ID == "a"`, func(v []Value) bool { return v[0].AsString() == "a" }, "ID")), evs},
		{"filter-and", Scan("in", sch).Where(And(ColGtInt("Power", -5), powerLt(35))), evs},
		{"filter-or-fallback", Scan("in", sch).Where(Or(ColGtInt("Power", 30), powerLt(-5))), evs},
		{"project-direct", Scan("in", sch).Project(Keep("Time"), Rename("ID", "Meter"), Keep("Power")), evs},
		{"project-computed-fallback", Scan("in", sch).Project(Keep("Time"), double), evs},
		{"filter-project-window", Scan("in", sch).Where(ColGtInt("Power", -5)).Project(Keep("Time"), Keep("Power")).WithWindow(9), evs},
		{"hop", Scan("in", sch).WithHop(8, 4), evs},
		{"shift-negative", Scan("in", sch).WithWindow(6).ShiftLifetime(-3), evs},
		{"agg-boundary", Scan("in", sch).Where(ColGtInt("Power", -5)).WithWindow(9).Count("Cnt"), evs},
		{"shift-agg", Scan("in", sch).Where(ColGtInt("Power", -5)).ShiftLifetime(-4).WithWindow(9).Count("Cnt"), evs},
		{"nulls-off-column", Scan("in", sch).Where(ColGtInt("Power", -2)).Project(Keep("ID"), Keep("Power")), fusedOddReadings(100)},
		{"float-filters", Scan("in", floatReadingSchema()).Where(FnPred("Val >= -1", func(v []Value) bool { return v[0].AsFloat() >= -1 }, "Val")).Where(AbsGeFloat("Val", 0.5)), fusedFloatReadings(100)},
		{"multicast-diamond", diamond, evs},
	}
}

func TestFusedMatchesReference(t *testing.T) {
	for _, c := range kernelCases() {
		t.Run(c.name, func(t *testing.T) {
			checkFusedEquivalence(t, c.plan, c.evs)
		})
	}
}

// TestFusedSnapshotCompatibility is the checkpoint-layout invariant: the
// layout is a pure function of the logical plan's operators, not of how
// they were grouped into kernels, so snapshots move freely between the
// plan and its split-run form — in both directions — and two engines fed
// identical input checkpoint to identical bytes.
func TestFusedSnapshotCompatibility(t *testing.T) {
	plan := Scan("in", readingSchema()).
		Where(ColGtInt("Power", -5)).
		WithWindow(9).
		Count("Cnt").
		ToPoint().
		WithWindow(15).
		Sum("Cnt", "S")
	split := splitRuns(plan)
	evs := fusedReadings(120)
	half := len(evs) / 2
	feed := kernelFeeds[1].feed

	mk := func(p *Plan) *Engine {
		eng, err := NewEngine(p, WithCTIPeriod(fusedTestCTIPeriod))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	// Reference: one uninterrupted run of the split plan.
	ref := mk(split)
	feed(ref, evs)
	ref.Flush()
	want := emitted(ref)

	// Cross-restore in both directions and finish the run.
	for _, d := range []struct {
		name            string
		first, restored *Plan
	}{
		{"kernel-to-split", plan, split},
		{"split-to-kernel", split, plan},
	} {
		a := mk(d.first)
		feed(a, evs[:half])
		snap := a.Checkpoint()
		b, err := restoreEngine(d.restored, snap, WithCTIPeriod(fusedTestCTIPeriod))
		if err != nil {
			t.Fatalf("%s: restore: %v", d.name, err)
		}
		if !bytes.Equal(b.Checkpoint(), snap) {
			t.Errorf("%s: restored engine checkpoints to different bytes", d.name)
		}
		feed(b, evs[half:])
		b.Flush()
		got := append(emitted(a), emitted(b)...)
		SortEvents(got)
		if !EventsEqual(got, want) {
			t.Errorf("%s: combined output diverges\n got %v\nwant %v", d.name, got, want)
		}
	}
}

// Checkpoint images taken at the parent of the commit that made the kernel
// the only implementation of the stateless operators (first 60 of
// fusedReadings(120), row batches of 17, CTI period 7): one plan with a
// shifted-window run, one with a GroupApply sub-plan holding a windowed
// count. An engine built today must checkpoint to the same bytes, and must
// restore the image and finish the input with the output of one
// uninterrupted run. (Checkpoint format 2 changed the header byte of both;
// the GroupApply image was regenerated once, at the commit that lowered
// windowed-aggregate sub-plans to the grouped kernel — its section is the
// kernel's slots and one expiration queue, no longer per-key pipelines.
// The shifted-window image was regenerated once, at the commit that made a
// top-level Aggregate the grouped kernel with no key: its two aggregates
// write kernel sections, 0x08, where they wrote the retired 0x01.)
func TestFusedGoldenCheckpoints(t *testing.T) {
	sch := readingSchema()
	for _, c := range []struct {
		name, image string
		plan        *Plan
	}{
		{"shifted-window", goldenShiftedWindow,
			Scan("in", sch).Where(ColGtInt("Power", -5)).ShiftLifetime(-4).WithWindow(9).
				Count("Cnt").ToPoint().WithWindow(15).Sum("Cnt", "S")},
		{"groupapply-window-count", goldenGroupApplyCount,
			Scan("in", sch).Where(ColGtInt("Power", -5)).
				GroupApply([]string{"ID"}, func(g *Plan) *Plan {
					return g.Project(Keep("Time"), Keep("Power")).WithWindow(9).Count("C")
				})},
	} {
		image, err := hex.DecodeString(c.image)
		if err != nil {
			t.Fatal(err)
		}
		evs := fusedReadings(120)
		feed := kernelFeeds[1].feed
		whole, err := NewEngine(c.plan, WithCTIPeriod(fusedTestCTIPeriod))
		if err != nil {
			t.Fatal(err)
		}
		feed(whole, evs[:60])
		if got := whole.Checkpoint(); !bytes.Equal(got, image) {
			t.Errorf("%s: checkpoint differs from the parent commit's image\n got %x\nwant %x", c.name, got, image)
		}
		head := emitted(whole)
		feed(whole, evs[60:])
		whole.Flush()

		resumed, err := restoreEngine(c.plan, image, WithCTIPeriod(fusedTestCTIPeriod))
		if err != nil {
			t.Fatalf("%s: restore: %v", c.name, err)
		}
		feed(resumed, evs[60:])
		resumed.Flush()
		got := append(head, emitted(resumed)...)
		SortEvents(got)
		if !EventsEqual(got, emitted(whole)) {
			t.Errorf("%s: resumed output diverges from the uninterrupted run", c.name)
		}
	}
}

const (
	goldenShiftedWindow   = "e870060868000100683c0200046c0001010e70000101107a0001010e7e00010110020002016e01011008680001006e12097000030166030161010572000301680301620108740003016a0301630116760003016c0301610124780003016e03016201327a0003017003016301407c00030172030161014e7e000301740301620107800100030176030163010602000200"
	goldenGroupApplyCount = "e870010870037072020301610106707402030162010670760203016301040301030161720601030162740601030163760609780002016601057a0102016801087c0202016a01167e0002016c012480010102016e01328201020201700140840100020172014e86010102017401078801020201760106"
)

// TestPrefixProjectAliases pins that a kernel Project keeping a prefix of
// its input's columns in order — the identity included; inside a
// GroupApply, the key and then the first columns behind it — returns its
// input row clipped to that prefix: it allocates nothing, and a consumer
// appending to the result cannot write into the input's next column. A
// Project that reorders or computes copies, and so does one behind a
// Select or a copying Project of its kernel: an alias there would pin the
// rows the run dropped or the wider rows it copied.
func TestPrefixProjectAliases(t *testing.T) {
	src := Scan("s", readingSchema())
	swapped := src.Project(Keep("ID"), Keep("Time"))
	for _, c := range []struct {
		name  string
		last  *Plan // the kernel's last member; the run reaches back to src
		kw    int
		width int // -1: not an alias
	}{
		{"prefix", src.Project(Keep("Time"), Rename("ID", "Name")), 0, 2},
		{"identity", src.Project(Keep("Time"), Keep("ID"), Keep("Power")), 0, 3},
		{"keyed prefix", src.Project(Keep("Time"), Keep("ID")), 1, 3},
		{"prefix of a prefix", src.WithWindow(3).Project(Keep("Time"), Keep("ID")).Project(Keep("Time")), 0, 1},
		{"reordered", swapped, 0, -1},
		{"computed", src.Project(Keep("Time"), ConstInt("ID", 1)), 0, -1},
		{"behind a Select", src.Where(ColGtInt("Power", 1)).Project(Keep("Time")), 0, -1},
		{"behind a copying Project", swapped.Project(Keep("ID")), 0, -1},
	} {
		var run []*Plan
		for n := c.last; n != src; n = n.Inputs[0] {
			run = append([]*Plan{n}, run...)
		}
		in := Row{Int(1), String("a"), Int(3)}
		if c.kw > 0 {
			in = append(Row{String("key")}, in...)
		}
		f := newFusedOp(run, c.kw, nil)
		var out Row
		allocs := testing.AllocsPerRun(100, func() {
			e := Event{LE: 1, RE: 2, Payload: in}
			f.applyRow(&e)
			out = e.Payload
		})
		if c.width < 0 { // a copy from the kernel's arena, whose blocks amortize to no allocation per row
			if &out[0] == &in[0] {
				t.Errorf("%s: shares its input row", c.name)
			}
			continue
		}
		if allocs != 0 || len(out) != c.width || cap(out) != c.width || &out[0] != &in[0] {
			t.Fatalf("%s: %.1f allocations per row, len %d cap %d, shares the input %v; want 0, %d, %d, true",
				c.name, allocs, len(out), cap(out), &out[0] == &in[0], c.width, c.width)
		}
		if c.width < len(in) {
			next := in[c.width]
			_ = append(out, String("appended"))
			if !in[c.width].Equal(next) {
				t.Fatalf("%s: an append to the output overwrote the input's column %d", c.name, c.width)
			}
		}
	}
}
