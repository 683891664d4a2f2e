package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"timr/internal/mapreduce"
	"timr/internal/temporal"
)

// clickSchema is the paper's click-log shape (Figure 1b) with AdId as int.
func clickSchema() *temporal.Schema {
	return temporal.NewSchema(
		temporal.Field{Name: "Time", Kind: temporal.KindInt},
		temporal.Field{Name: "UserId", Kind: temporal.KindInt},
		temporal.Field{Name: "AdId", Kind: temporal.KindInt},
	)
}

func clickRows(r *rand.Rand, n, users, ads int) []mapreduce.Row {
	rows := make([]mapreduce.Row, n)
	t := int64(0)
	for i := range rows {
		t += int64(r.Intn(10))
		rows[i] = mapreduce.Row{
			temporal.Int(t),
			temporal.Int(int64(r.Intn(users))),
			temporal.Int(int64(r.Intn(ads))),
		}
	}
	return rows
}

// runningClickCount is Example 1: per-ad click count over a sliding window.
func runningClickCount(window temporal.Time) *temporal.Plan {
	return temporal.Scan("clicks", clickSchema()).
		GroupApply([]string{"AdId"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(window).Count("ClickCount")
		})
}

func newTestTiMR(machines int) *TiMR {
	cl := mapreduce.NewCluster(mapreduce.Config{Machines: machines})
	return New(cl, DefaultConfig())
}

// singleNode runs the same plan on one embedded engine — the reference.
func singleNode(t *testing.T, plan *temporal.Plan, source string, rows []mapreduce.Row, timeCol int) []temporal.Event {
	t.Helper()
	events := temporal.RowsToPointEvents(rows, timeCol)
	out, err := temporal.RunPlan(plan, map[string][]temporal.Event{source: events})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMakeFragmentsSingle(t *testing.T) {
	// RunningClickCount with one exchange on AdId → one fragment keyed AdId.
	plan := runningClickCount(6 * temporal.Hour)
	annotated := plan // exchange at scan boundary comes from rewriting below
	scan := temporal.Scan("clicks", clickSchema())
	annotated = scan.Exchange(temporal.PartitionBy{Cols: []string{"AdId"}}).
		GroupApply([]string{"AdId"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(6 * temporal.Hour).Count("ClickCount")
		})
	frags, err := MakeFragments(annotated, map[string]string{"clicks": "ds.clicks"}, "out")
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 1 {
		t.Fatalf("fragments = %d", len(frags))
	}
	f := frags[0]
	if f.Part.String() != "{AdId}" || !f.Final || f.Output != "out" {
		t.Errorf("fragment = %s final=%v", f.String(), f.Final)
	}
	if len(f.Inputs) != 1 || f.Inputs[0].Dataset != "ds.clicks" || f.Inputs[0].Intermediate {
		t.Errorf("inputs = %+v", f.Inputs)
	}
}

func TestMakeFragmentsTwoStage(t *testing.T) {
	// GroupApply(AdId) over an exchange over GroupApply(UserId) over an
	// exchange: two fragments, executed bottom-up.
	plan := temporal.Scan("clicks", clickSchema()).
		Exchange(temporal.PartitionBy{Cols: []string{"UserId"}}).
		GroupApply([]string{"UserId"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(10).Count("C1")
		}).
		ToPoint().
		Exchange(temporal.PartitionBy{Cols: []string{"UserId"}}).
		GroupApply([]string{"UserId"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(100).Max("C1", "M")
		})
	frags, err := MakeFragments(plan, map[string]string{"clicks": "ds.clicks"}, "out")
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 2 {
		t.Fatalf("fragments = %d", len(frags))
	}
	if frags[0].Final || !frags[1].Final {
		t.Error("execution order must be bottom-up")
	}
	if !frags[1].Inputs[0].Intermediate {
		t.Error("second fragment must read intermediate data")
	}
	if frags[0].Output != frags[1].Inputs[0].Dataset {
		t.Error("fragment wiring broken")
	}
}

func TestMakeFragmentsMissingSource(t *testing.T) {
	plan := runningClickCount(10)
	if _, err := MakeFragments(plan, map[string]string{}, "out"); err == nil {
		t.Fatal("unbound source must error")
	}
}

func TestTiMRMatchesSingleNode(t *testing.T) {
	// The central claim (§III-C.1): the temporal algebra guarantees that
	// TiMR's distributed execution produces exactly the single-node result.
	r := rand.New(rand.NewSource(42))
	rows := clickRows(r, 2000, 50, 10)
	plan := temporal.Scan("clicks", clickSchema()).
		Exchange(temporal.PartitionBy{Cols: []string{"AdId"}}).
		GroupApply([]string{"AdId"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(50).Count("ClickCount")
		})

	tm := newTestTiMR(8)
	tm.Cluster.FS.Write("ds.clicks", mapreduce.SinglePartition(clickSchema(), rows))
	if _, err := tm.Run(plan, map[string]string{"clicks": "ds.clicks"}, "out"); err != nil {
		t.Fatal(err)
	}
	got, err := tm.ResultEvents("out")
	if err != nil {
		t.Fatal(err)
	}
	want := singleNode(t, runningClickCount(50), "clicks", rows, 0)
	if !temporal.EventsEqual(got, want) {
		t.Fatalf("TiMR %d events != single-node %d events", len(got), len(want))
	}
}

func TestTiMRTwoStagePipeline(t *testing.T) {
	// A two-fragment job: per-user windowed count, then per-count
	// global aggregation, checked against single-node execution.
	r := rand.New(rand.NewSource(7))
	rows := clickRows(r, 1000, 20, 5)

	build := func(annotate bool) *temporal.Plan {
		src := temporal.Scan("clicks", clickSchema())
		var s *temporal.Plan = src
		if annotate {
			s = src.Exchange(temporal.PartitionBy{Cols: []string{"UserId"}})
		}
		perUser := s.GroupApply([]string{"UserId"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(30).Count("C")
		}).ToPoint()
		if annotate {
			perUser = perUser.Exchange(temporal.PartitionBy{Cols: []string{"C"}})
		}
		return perUser.GroupApply([]string{"C"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(60).Count("N")
		})
	}

	tm := newTestTiMR(4)
	tm.Cluster.FS.Write("ds.clicks", mapreduce.SinglePartition(clickSchema(), rows))
	if _, err := tm.Run(build(true), map[string]string{"clicks": "ds.clicks"}, "out"); err != nil {
		t.Fatal(err)
	}
	got, err := tm.ResultEvents("out")
	if err != nil {
		t.Fatal(err)
	}
	want := singleNode(t, build(false), "clicks", rows, 0)
	if !temporal.EventsEqual(got, want) {
		t.Fatalf("two-stage TiMR diverges from single node: %d vs %d events", len(got), len(want))
	}
}

func TestTiMRTemporalPartitioning(t *testing.T) {
	// A global windowed count has no payload key; temporal partitioning
	// (§III-B) must still reproduce the single-node result exactly.
	r := rand.New(rand.NewSource(13))
	rows := clickRows(r, 3000, 50, 10)

	mk := func(annotate bool) *temporal.Plan {
		src := temporal.Scan("clicks", clickSchema())
		s := src
		if annotate {
			s = src.Exchange(temporal.PartitionBy{Temporal: true, SpanWidth: 500})
		}
		return s.WithWindow(100).Count("C")
	}

	tm := newTestTiMR(8)
	tm.Cluster.FS.Write("ds.clicks", mapreduce.SinglePartition(clickSchema(), rows))
	stat, err := tm.Run(mk(true), map[string]string{"clicks": "ds.clicks"}, "out")
	if err != nil {
		t.Fatal(err)
	}
	if stat.Stages[0].Partitions < 2 {
		t.Fatalf("expected multiple spans, got %d", stat.Stages[0].Partitions)
	}
	got, err := tm.ResultEvents("out")
	if err != nil {
		t.Fatal(err)
	}
	want := singleNode(t, mk(false), "clicks", rows, 0)
	if !temporal.EventsEqual(got, want) {
		t.Fatalf("temporal partitioning diverges: %d vs %d events", len(got), len(want))
	}
}

func TestChainedTemporalJobsRouteWideIntervals(t *testing.T) {
	// Regression for LE-only span routing: job 1 emits 300-wide interval
	// events; job 2 counts them under temporal partitioning with 100-wide
	// spans and no window of its own (overlap 0). An event's lifetime
	// crosses several spans, and every one of them owns snapshots the
	// event contributes to — routing by LE alone starves the later spans
	// and silently undercounts.
	r := rand.New(rand.NewSource(17))
	rows := clickRows(r, 1500, 20, 5)

	tm := newTestTiMR(8)
	tm.Cluster.FS.Write("ds.clicks", mapreduce.SinglePartition(clickSchema(), rows))
	widen := temporal.Scan("clicks", clickSchema()).WithWindow(300)
	if _, err := tm.Run(widen, map[string]string{"clicks": "ds.clicks"}, "mid"); err != nil {
		t.Fatal(err)
	}
	count := temporal.Scan("mid", clickSchema()).
		Exchange(temporal.PartitionBy{Temporal: true, SpanWidth: 100}).
		Count("C")
	stat, err := tm.Run(count, map[string]string{"mid": "mid"}, "out")
	if err != nil {
		t.Fatal(err)
	}
	if stat.Stages[0].Partitions < 2 {
		t.Fatalf("expected multiple spans, got %d", stat.Stages[0].Partitions)
	}
	got, err := tm.ResultEvents("out")
	if err != nil {
		t.Fatal(err)
	}
	want := singleNode(t,
		temporal.Scan("clicks", clickSchema()).WithWindow(300).Count("C"),
		"clicks", rows, 0)
	if !temporal.EventsEqual(got, want) {
		t.Fatalf("chained temporal jobs diverge: %d vs %d events", len(got), len(want))
	}
}

func TestTiMRNonPartitionableFallsBackToSingleTask(t *testing.T) {
	rows := clickRows(rand.New(rand.NewSource(3)), 100, 5, 3)
	plan := temporal.Scan("clicks", clickSchema()).WithWindow(10).Count("C")
	tm := newTestTiMR(8)
	tm.Cluster.FS.Write("ds.clicks", mapreduce.SinglePartition(clickSchema(), rows))
	stat, err := tm.Run(plan, map[string]string{"clicks": "ds.clicks"}, "out")
	if err != nil {
		t.Fatal(err)
	}
	if stat.Stages[0].Partitions != 1 {
		t.Fatalf("unkeyed fragment must run as one task, got %d", stat.Stages[0].Partitions)
	}
	got, _ := tm.ResultEvents("out")
	want := singleNode(t, plan, "clicks", rows, 0)
	if !temporal.EventsEqual(got, want) {
		t.Fatal("single-task fallback diverges")
	}
}

func TestTiMRRepeatableUnderFailures(t *testing.T) {
	// §III-C.1: "TiMR works well with M-R's failure handling strategy of
	// restarting failed reducers — the newly generated output is
	// guaranteed to be identical."
	r := rand.New(rand.NewSource(99))
	rows := clickRows(r, 1500, 30, 8)
	plan := func() *temporal.Plan {
		return temporal.Scan("clicks", clickSchema()).
			Exchange(temporal.PartitionBy{Cols: []string{"UserId"}}).
			GroupApply([]string{"UserId"}, func(g *temporal.Plan) *temporal.Plan {
				return g.WithWindow(40).Count("C")
			})
	}

	var ref []temporal.Event
	for seed := int64(0); seed < 4; seed++ {
		cl := mapreduce.NewCluster(mapreduce.Config{
			Machines: 6, FailureRate: 0.4, MaxAttempts: 50, Seed: seed,
		})
		tm := New(cl, DefaultConfig())
		tm.Cluster.FS.Write("ds.clicks", mapreduce.SinglePartition(clickSchema(), rows))
		stat, err := tm.Run(plan(), map[string]string{"clicks": "ds.clicks"}, "out")
		if err != nil {
			t.Fatal(err)
		}
		if seed > 0 {
			failures := 0
			for _, s := range stat.Stages {
				failures += s.Failures
			}
			if failures == 0 {
				t.Log("note: no failures injected for seed", seed)
			}
		}
		got, err := tm.ResultEvents("out")
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
		} else if !temporal.EventsEqual(ref, got) {
			t.Fatalf("seed %d: output diverged under failure injection", seed)
		}
	}
}

func TestIntermediateSchemaRoundTrip(t *testing.T) {
	payload := temporal.NewSchema(temporal.Field{Name: "X", Kind: temporal.KindInt})
	s := IntermediateSchema(payload)
	if s.Field(0).Name != ColLE || s.Field(1).Name != ColRE || s.Field(2).Name != "X" {
		t.Fatalf("schema = %s", s)
	}
	evs := []temporal.Event{{LE: 3, RE: 9, Payload: temporal.Row{temporal.Int(5)}}}
	rows := []mapreduce.Row{{temporal.Int(3), temporal.Int(9), temporal.Int(5)}}
	back := RowsToEvents(rows)
	if !temporal.EventsEqual(evs, back) {
		t.Fatal("round trip failed")
	}
}

func TestPropertyTiMREquivalence(t *testing.T) {
	// For random data, machine counts and window widths, TiMR == engine.
	err := quick.Check(func(seed int64, machRaw, winRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		machines := int(machRaw%7) + 1
		w := temporal.Time(winRaw%40) + 1
		rows := clickRows(r, 400, 10, 4)

		annotated := temporal.Scan("clicks", clickSchema()).
			Exchange(temporal.PartitionBy{Cols: []string{"AdId"}}).
			GroupApply([]string{"AdId"}, func(g *temporal.Plan) *temporal.Plan {
				return g.WithWindow(w).Count("C")
			})
		tm := newTestTiMR(machines)
		tm.Cluster.FS.Write("ds", mapreduce.SinglePartition(clickSchema(), rows))
		if _, err := tm.Run(annotated, map[string]string{"clicks": "ds"}, "out"); err != nil {
			return false
		}
		got, err := tm.ResultEvents("out")
		if err != nil {
			return false
		}
		events := temporal.RowsToPointEvents(rows, 0)
		want, err := temporal.RunPlan(runningClickCount(w), map[string][]temporal.Event{"clicks": events})
		if err != nil {
			return false
		}
		return temporal.EventsEqual(got, want)
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

func TestPropertyTemporalPartitioningSpanWidthInvariance(t *testing.T) {
	// Any span width must give identical results (only performance varies).
	r := rand.New(rand.NewSource(5))
	rows := clickRows(r, 1000, 10, 4)
	ref := singleNode(t,
		temporal.Scan("clicks", clickSchema()).WithWindow(77).Count("C"),
		"clicks", rows, 0)
	for _, width := range []temporal.Time{50, 123, 500, 5000} {
		plan := temporal.Scan("clicks", clickSchema()).
			Exchange(temporal.PartitionBy{Temporal: true, SpanWidth: width}).
			WithWindow(77).Count("C")
		tm := newTestTiMR(8)
		tm.Cluster.FS.Write("ds", mapreduce.SinglePartition(clickSchema(), rows))
		if _, err := tm.Run(plan, map[string]string{"clicks": "ds"}, "out"); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		got, err := tm.ResultEvents("out")
		if err != nil {
			t.Fatal(err)
		}
		if !temporal.EventsEqual(got, ref) {
			t.Fatalf("width %d diverges from single-node (%d vs %d events)", width, len(got), len(ref))
		}
	}
}

func TestFragmentString(t *testing.T) {
	f := Fragment{Name: "frag0", Part: temporal.PartitionBy{Cols: []string{"AdId"}}, Output: "out"}
	if s := f.String(); s == "" || s[:5] != "frag0" {
		t.Errorf("String = %q", s)
	}
}

func TestStageUnknownDatasetFails(t *testing.T) {
	plan := temporal.Scan("clicks", clickSchema()).
		Exchange(temporal.PartitionBy{Cols: []string{"AdId"}}).
		GroupApply([]string{"AdId"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(10).Count("C")
		})
	tm := newTestTiMR(2)
	// dataset "missing" never written
	if _, err := tm.Run(plan, map[string]string{"clicks": "missing"}, "out"); err == nil {
		t.Fatal("missing dataset must fail the job")
	}
}

func TestResultEventsReturnsSpillReadError(t *testing.T) {
	// Regression: a spilled output segment that cannot be read (here the
	// cluster, and with it the spill file, is closed first) is an error
	// from ResultEvents, which used to panic through Dataset.Flatten.
	cl := mapreduce.NewCluster(mapreduce.Config{Machines: 2, MemoryBudget: spillAll, SpillDir: t.TempDir()})
	tm := New(cl, DefaultConfig())
	cl.FS.Write("ds.clicks", mapreduce.SinglePartition(clickSchema(), clickRows(rand.New(rand.NewSource(3)), 200, 5, 3)))
	plan := temporal.Scan("clicks", clickSchema()).Where(temporal.ColGtInt("AdId", 0))
	if _, err := tm.Run(plan, map[string]string{"clicks": "ds.clicks"}, "out"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if evs, err := tm.ResultEvents("out"); err == nil {
		t.Fatalf("ResultEvents read %d events from a closed spill file, want an error", len(evs))
	}
}

func TestTiMRMultiSourceJoin(t *testing.T) {
	// Impressions joined with per-user keyword window — two raw sources
	// entering one fragment under compatible keys.
	imp := temporal.NewSchema(
		temporal.Field{Name: "Time", Kind: temporal.KindInt},
		temporal.Field{Name: "UserId", Kind: temporal.KindInt},
		temporal.Field{Name: "AdId", Kind: temporal.KindInt},
	)
	kw := temporal.NewSchema(
		temporal.Field{Name: "Time", Kind: temporal.KindInt},
		temporal.Field{Name: "UserId", Kind: temporal.KindInt},
		temporal.Field{Name: "Keyword", Kind: temporal.KindInt},
	)
	mk := func(annotate bool) *temporal.Plan {
		l := temporal.Scan("imp", imp)
		rr := temporal.Scan("kw", kw)
		var lp, rp *temporal.Plan = l, rr
		if annotate {
			lp = l.Exchange(temporal.PartitionBy{Cols: []string{"UserId"}})
			rp = rr.Exchange(temporal.PartitionBy{Cols: []string{"UserId"}})
		}
		return lp.Join(rp.WithWindow(20), []string{"UserId"}, []string{"UserId"}, nil)
	}
	r := rand.New(rand.NewSource(21))
	impRows := clickRows(r, 300, 10, 4)
	kwRows := clickRows(r, 300, 10, 6)

	tm := newTestTiMR(4)
	tm.Cluster.FS.Write("ds.imp", mapreduce.SinglePartition(imp, impRows))
	tm.Cluster.FS.Write("ds.kw", mapreduce.SinglePartition(kw, kwRows))
	if _, err := tm.Run(mk(true), map[string]string{"imp": "ds.imp", "kw": "ds.kw"}, "out"); err != nil {
		t.Fatal(err)
	}
	got, err := tm.ResultEvents("out")
	if err != nil {
		t.Fatal(err)
	}
	want, err := temporal.RunPlan(mk(false), map[string][]temporal.Event{
		"imp": temporal.RowsToPointEvents(impRows, 0),
		"kw":  temporal.RowsToPointEvents(kwRows, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !temporal.EventsEqual(got, want) {
		t.Fatalf("multi-source join diverges: %d vs %d events", len(got), len(want))
	}
}

func BenchmarkTiMRRunningClickCount(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	rows := clickRows(r, 20000, 100, 10)
	plan := temporal.Scan("clicks", clickSchema()).
		Exchange(temporal.PartitionBy{Cols: []string{"AdId"}}).
		GroupApply([]string{"AdId"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(100).Count("C")
		})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := newTestTiMR(8)
		tm.Cluster.FS.Write("ds", mapreduce.SinglePartition(clickSchema(), rows))
		if _, err := tm.Run(plan, map[string]string{"clicks": "ds"}, fmt.Sprintf("out%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

// slotFirsts is the domain of a payload's first column in the slot
// differential: ints, strings, a null, a NaN, and both zeros.
var slotFirsts = []temporal.Value{
	temporal.Int(1), temporal.Int(2), temporal.String("a"), temporal.String("ab"), temporal.Null,
	temporal.Float(math.NaN()), temporal.Float(0), temporal.Float(math.Copysign(0, -1)), temporal.Float(1.5),
}

// slotsCoalesceAsBare coalesces events as given and as the reducer's
// slotted rows — each payload behind two copies of its first column — and
// returns how many events merged, or an error naming the first place the
// two differ: a lifetime, or which input event survives at a position.
func slotsCoalesceAsBare(bare []temporal.Event) (int, error) {
	origin := make(map[*temporal.Value]int, 2*len(bare))
	slotted := make([]temporal.Event, len(bare))
	for i, e := range bare {
		row := append(temporal.Row{e.Payload[0], e.Payload[0]}, e.Payload...)
		slotted[i] = temporal.Event{LE: e.LE, RE: e.RE, Payload: row}
		origin[&e.Payload[0]], origin[&row[0]] = i, i
	}
	want := temporal.Coalesce(append([]temporal.Event(nil), bare...))
	got := temporal.Coalesce(slotted)
	if len(got) != len(want) {
		return 0, fmt.Errorf("%d slotted events coalesce to %d, the bare ones to %d", len(bare), len(got), len(want))
	}
	for i := range got {
		if got[i].LE != want[i].LE || got[i].RE != want[i].RE || origin[&got[i].Payload[0]] != origin[&want[i].Payload[0]] {
			return 0, fmt.Errorf("position %d: slotted [%d,%d) from input %d, bare [%d,%d) from input %d",
				i, got[i].LE, got[i].RE, origin[&got[i].Payload[0]], want[i].LE, want[i].RE, origin[&want[i].Payload[0]])
		}
	}
	return len(bare) - len(want), nil
}

// TestSlotsCoalesceAsBarePayloads: the reducer coalesces the engine's
// slotted rows before it writes the lifetime into the slots, so they must
// sort and merge exactly as the bare payloads would — the same events, in
// the same order, each the same input's survivor. The draws hold LE ties,
// chains of abutting equal payloads, string first columns, NaN and ±0,
// both LE-ordered (what an engine emits) and shuffled, and boundaries
// crowded enough for Coalesce to hash.
func TestSlotsCoalesceAsBarePayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	merges := 0
	for trial := 0; trial < 400; trial++ {
		var bare []temporal.Event
		le := temporal.Time(0)
		for n := 1 + rng.Intn(120); len(bare) < n; {
			if rng.Intn(3) == 0 {
				le += temporal.Time(1 + rng.Intn(3)) // otherwise a tie
			}
			e := temporal.Event{LE: le, RE: le + temporal.Time(1+rng.Intn(4)),
				Payload: temporal.Row{slotFirsts[rng.Intn(len(slotFirsts))], temporal.Int(int64(rng.Intn(2)))}}
			bare = append(bare, e)
			for rng.Intn(2) == 0 { // an abutting piece of the same payload
				e = temporal.Event{LE: e.RE, RE: e.RE + temporal.Time(1+rng.Intn(4)), Payload: append(temporal.Row(nil), e.Payload...)}
				bare = append(bare, e)
			}
		}
		if trial%2 == 1 {
			rng.Shuffle(len(bare), func(i, j int) { bare[i], bare[j] = bare[j], bare[i] })
		} else {
			slices.SortStableFunc(bare, func(a, b temporal.Event) int { return cmp.Compare(a.LE, b.LE) })
		}
		n, err := slotsCoalesceAsBare(bare)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		merges += n
	}
	if merges < 1000 {
		t.Fatalf("the draws merged %d events in all; want at least 1000", merges)
	}
}
