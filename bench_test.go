// Benchmarks regenerating every table and figure of the paper's
// evaluation (§V), one benchmark (family) per result. Absolute numbers
// reflect the simulated substrate, not the paper's 150-node Cosmos
// cluster; the shapes — who wins and by roughly what factor — are the
// reproduction target (see EXPERIMENTS.md). Run with:
//
//	go test -bench=. -benchmem
package timr_test

import (
	"fmt"
	"sync"
	"testing"

	"timr"
	"timr/internal/baseline"
	"timr/internal/bt"
	"timr/internal/core"
	"timr/internal/experiments"
	"timr/internal/mapreduce"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// ---- shared fixtures (built once, reused across benchmarks) ----

var (
	fixOnce sync.Once
	fixData *workload.Dataset
	fixBT   *experiments.BTRun
	fixCtx  *experiments.Context // holds fixBT, for the experiment benchmarks
	fixErr  error
)

func fixtures(b *testing.B) (*workload.Dataset, *experiments.BTRun) {
	b.Helper()
	fixOnce.Do(func() {
		opt := experiments.QuickOptions()
		fixData = workload.Generate(opt.Workload)
		fixCtx = experiments.NewContext(opt)
		fixBT, fixErr = fixCtx.BT()
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fixData, fixBT
}

func clickLog(d *workload.Dataset) (*temporal.Schema, []temporal.Row) {
	schema := temporal.NewSchema(
		temporal.Field{Name: "Time", Kind: temporal.KindInt},
		temporal.Field{Name: "UserId", Kind: temporal.KindInt},
		temporal.Field{Name: "AdId", Kind: temporal.KindInt},
	)
	var clicks []temporal.Row
	for _, r := range d.Rows {
		if r[1].AsInt() == workload.StreamClick {
			clicks = append(clicks, temporal.Row{r[0], r[2], r[3]})
		}
	}
	return schema, clicks
}

func quickParams() bt.Params {
	return experiments.QuickOptions().Params
}

// ---- §II-C strawman: RunningClickCount three ways ----

func BenchmarkStrawman_ScopeSelfJoin(b *testing.B) {
	d, _ := fixtures(b)
	_, clicks := clickLog(d)
	window := 6 * temporal.Hour
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The set-oriented plan materializes the full band self-join; the
		// cap keeps the benchmark bounded when it explodes (the paper's
		// "intractable" outcome still costs the work done up to the cap).
		if _, _, err := baseline.ScopeRunningClickCount(mapreduce.NewRowReader(mapreduce.ResidentSegment(clicks, false)).Next, window, 50_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrawman_CustomReducer(b *testing.B) {
	d, _ := fixtures(b)
	schema, clicks := clickLog(d)
	window := 6 * temporal.Hour
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := mapreduce.NewCluster(mapreduce.Config{Machines: 8})
		cl.FS.Write("clicks", mapreduce.SinglePartition(schema, clicks))
		if _, err := cl.Run(baseline.CustomRunningClickCountStage("clicks", "out", window)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrawman_TiMR(b *testing.B) {
	d, _ := fixtures(b)
	schema, clicks := clickLog(d)
	plan := temporal.Scan("clicks", schema).
		Exchange(temporal.PartitionBy{Cols: []string{"AdId"}}).
		GroupApply([]string{"AdId"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(6 * temporal.Hour).Count("ClickCount")
		})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := mapreduce.NewCluster(mapreduce.Config{Machines: 8})
		tm := core.New(cl, core.DefaultConfig())
		cl.FS.Write("clicks", mapreduce.SinglePartition(schema, clicks))
		if _, err := tm.Run(plan, map[string]string{"clicks": "clicks"}, "out"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 14: end-to-end BT, TiMR vs custom reducers ----

func BenchmarkFig14_EndToEnd_TiMR(b *testing.B) {
	d, _ := fixtures(b)
	p := quickParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := mapreduce.NewCluster(mapreduce.Config{Machines: 8})
		tm := core.New(cl, core.DefaultConfig())
		cl.FS.Write("events", mapreduce.SinglePartition(workload.UnifiedSchema(), d.Rows))
		pipe := bt.NewPipeline(p, tm)
		if err := pipe.Run("events"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14_EndToEnd_Custom(b *testing.B) {
	d, _ := fixtures(b)
	p := quickParams()
	cp := baseline.CustomParams{
		T1: p.T1, T2: p.T2, BotHop: p.BotHop, Tau: p.Tau, D: p.D,
		TrainPeriod: p.TrainPeriod, ZThreshold: p.ZThreshold, ModelEpochs: p.ModelEpochs,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := mapreduce.NewCluster(mapreduce.Config{Machines: 8})
		cl.FS.Write("events", mapreduce.SinglePartition(workload.UnifiedSchema(), d.Rows))
		if _, err := baseline.CustomBTJob(cl, "events", cp); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 15: per-engine throughput of each BT sub-query ----

func BenchmarkFig15_Throughput(b *testing.B) {
	d, _ := fixtures(b)
	p := quickParams()
	events := d.Events()
	phases, err := bt.RunSingleNode(p, events)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name   string
		plan   func() *temporal.Plan
		inputs map[string][]temporal.Event
	}{
		{"BotElim", func() *temporal.Plan { return bt.BotElimPlan(p, false) },
			map[string][]temporal.Event{bt.SourceEvents: events}},
		{"GenTrainData", func() *temporal.Plan { return bt.TrainDataPlan(p, false) },
			map[string][]temporal.Event{bt.SourceLabeled: phases[bt.DSLabeled], bt.SourceClean: phases[bt.DSClean]}},
		{"FeatureSelect", func() *temporal.Plan { return bt.FeatureSelectPlan(p, false) },
			map[string][]temporal.Event{bt.SourceLabeled: phases[bt.DSLabeled], bt.SourceTrain: phases[bt.DSTrain]}},
		{"ModelGen", func() *temporal.Plan { return bt.ModelPlan(p, false) },
			map[string][]temporal.Event{bt.SourceReduced: phases[bt.DSReduced]}},
	}
	for _, c := range cases {
		n := 0
		for _, evs := range c.inputs {
			n += len(evs)
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := temporal.RunPlan(c.plan(), c.inputs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// ---- Figure 16: temporal partitioning span-width sweep ----

func BenchmarkFig16_SpanWidth(b *testing.B) {
	d, _ := fixtures(b)
	widths := []temporal.Time{
		90 * temporal.Minute, 3 * temporal.Hour, 6 * temporal.Hour, 12 * temporal.Hour,
	}
	for _, w := range widths {
		w := w
		b.Run(fmt.Sprintf("span=%dm", w/temporal.Minute), func(b *testing.B) {
			plan := temporal.Scan("events", workload.UnifiedSchema()).
				Exchange(temporal.PartitionBy{Temporal: true, SpanWidth: w}).
				WithWindow(30 * temporal.Minute).
				Count("C")
			for i := 0; i < b.N; i++ {
				cl := mapreduce.NewCluster(mapreduce.Config{Machines: 8})
				tm := core.New(cl, core.DefaultConfig())
				cl.FS.Write("ds", mapreduce.SinglePartition(workload.UnifiedSchema(), d.Rows))
				stat, err := tm.Run(plan, map[string]string{"events": "ds"}, "out")
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(stat.Makespan(150, 0).Microseconds()), "makespan_us")
				}
			}
		})
	}
}

// ---- Example 3: fragment optimization ----

func BenchmarkEx3_FragmentOptimization(b *testing.B) {
	_, r := fixtures(b)
	p := r.Opt.Params
	variants := []struct {
		name string
		plan func() *temporal.Plan
	}{
		{"optimized", func() *temporal.Plan { return bt.TrainDataPlan(p, true) }},
		{"naive", func() *temporal.Plan { return bt.NaiveTrainDataPlan(p) }},
	}
	clean := r.Cluster.FS.MustRead(bt.DSClean)
	labeled := r.Cluster.FS.MustRead(bt.DSLabeled)
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cl := mapreduce.NewCluster(mapreduce.Config{Machines: 8})
				tm := core.New(cl, core.DefaultConfig())
				cl.FS.Write(bt.DSClean, clean)
				cl.FS.Write(bt.DSLabeled, labeled)
				sources := map[string]string{bt.SourceLabeled: bt.DSLabeled, bt.SourceClean: bt.DSClean}
				if _, err := tm.Run(v.plan(), sources, "out"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figures 17-20: feature selection and dimensionality reduction ----

func BenchmarkFig17to19_FeatureSelection(b *testing.B) {
	_, r := fixtures(b)
	p := r.Opt.Params
	labeled := temporal.RowsToPointEvents(r.Labeled, 0)
	train := temporal.RowsToPointEvents(r.Train, 0)
	inputs := map[string][]temporal.Event{bt.SourceLabeled: labeled, bt.SourceTrain: train}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := temporal.RunPlan(bt.FeatureSelectPlan(p, false), inputs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig20_DimReduction(b *testing.B) {
	_, r := fixtures(b)
	ad := r.Data.Ads[0]
	train, _ := r.AdExamples(ad.ID)
	for _, th := range []float64{0, 1.28, 2.56} {
		th := th
		b.Run(fmt.Sprintf("KE-%.2f", th), func(b *testing.B) {
			s := baseline.NewKEZ(r.Scores[ad.ID], th)
			for i := 0; i < b.N; i++ {
				baseline.TransformExamples(s, train)
			}
			b.ReportMetric(float64(s.Dims()), "kw_retained")
		})
	}
	b.Run("F-Ex", func(b *testing.B) {
		s := baseline.NewFEx(2000)
		for i := 0; i < b.N; i++ {
			baseline.TransformExamples(s, train)
		}
		b.ReportMetric(float64(s.Dims()), "kw_retained")
	})
}

// ---- Figures 21-23 + §V-D: model quality and learning time ----

func BenchmarkFig21_CTRLiftSubsets(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig21(fixCtx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig22_LiftCoverage(b *testing.B) {
	_, r := fixtures(b)
	ad := r.Data.Ads[3] // movies
	train, test := r.AdExamples(ad.ID)
	schemes := []baseline.Scheme{
		baseline.NewKEZ(r.Scores[ad.ID], 1.28),
		baseline.NewFEx(2000),
		baseline.NewKEPop(r.Popularity(), 100),
	}
	for _, s := range schemes {
		s := s
		b.Run(s.Name(), func(b *testing.B) {
			var area float64
			for i := 0; i < b.N; i++ {
				res := experiments.EvaluateScheme(s, train, test, 20)
				area = res.Area
			}
			b.ReportMetric(area, "lift_area")
		})
	}
}

func BenchmarkMemTime_LRLearning(b *testing.B) {
	_, r := fixtures(b)
	ad := r.Data.Ads[4] // dieting
	train, test := r.AdExamples(ad.ID)
	schemes := []baseline.Scheme{
		baseline.NewFEx(2000),
		baseline.NewKEZ(r.Scores[ad.ID], 1.28),
		baseline.NewKEZ(r.Scores[ad.ID], 2.56),
	}
	for _, s := range schemes {
		s := s
		b.Run(s.Name(), func(b *testing.B) {
			var ubp float64
			for i := 0; i < b.N; i++ {
				res := experiments.EvaluateScheme(s, train, test, 20)
				ubp = res.AvgUBPSize
			}
			b.ReportMetric(ubp, "avg_ubp_entries")
		})
	}
}

// ---- Engine microbenchmarks (per-event costs with allocations) ----

func BenchmarkEngine_WindowedCount(b *testing.B) {
	d, _ := fixtures(b)
	_, clicks := clickLog(d)
	events := temporal.RowsToPointEvents(clicks, 0)
	schema := temporal.NewSchema(
		temporal.Field{Name: "Time", Kind: temporal.KindInt},
		temporal.Field{Name: "UserId", Kind: temporal.KindInt},
		temporal.Field{Name: "AdId", Kind: temporal.KindInt},
	)
	plan := temporal.Scan("in", schema).WithWindow(temporal.Hour).Count("C")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := temporal.RunPlan(plan, map[string][]temporal.Event{"in": events}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

func BenchmarkEngine_GroupApplyJoin(b *testing.B) {
	d, _ := fixtures(b)
	p := quickParams()
	events := d.Events()
	plan := bt.BotElimPlan(p, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := temporal.RunPlan(plan, map[string][]temporal.Event{bt.SourceEvents: events}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkGroupApplyPunctuation is one serving wave per op: 1000 events
// over 16 groups into a warmed GroupApply(windowed Count), then one
// explicit punctuation that broadcasts, cuts every open segment and
// releases the staged output. allocs/op is the number to watch: staging
// and the expiration queues contribute none in steady state.
func BenchmarkGroupApplyPunctuation(b *testing.B) {
	schema := temporal.NewSchema(
		temporal.Field{Name: "Time", Kind: temporal.KindInt},
		temporal.Field{Name: "K", Kind: temporal.KindInt},
	)
	plan := temporal.Scan("in", schema).GroupApply([]string{"K"}, func(g *temporal.Plan) *temporal.Plan {
		return g.WithWindow(64).Count("C")
	})
	eng, err := temporal.NewEngine(plan, temporal.WithSink(&temporal.FuncSink{}), temporal.WithCTIPeriod(0))
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]temporal.Row, 16)
	for k := range rows {
		rows[k] = temporal.Row{temporal.Int(0), temporal.Int(int64(k))}
	}
	const perWave = 1000
	now := temporal.Time(0)
	wave := func() {
		for i := 0; i < perWave; i++ {
			now++
			eng.Feed("in", temporal.PointEvent(now, rows[i%len(rows)]))
		}
		eng.Advance(now)
	}
	wave() // compile the groups, size the buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wave()
	}
	b.ReportMetric(perWave, "events/op")
}

// BenchmarkCoalesce is the canonicalisation every reducer output and every
// RunPlan / Engine.Results pays, on events in engine (LE) order. NoMerge is
// 10 000 points with unique payloads, three to a tick on consecutive ticks.
// TrainData is the shape of the BT stage that emits most: 60 000 points on
// sparse timestamps, LE ties of six (one impression, six profile keywords)
// whose rows differ only in the fifth column. Neither has anything to
// merge: the result is the sorted argument itself. Fragmented is a windowed
// aggregate cut by CTIs: 100 keys, each a chain of 100 abutting pieces,
// merged into 100 events. MassBoundary is FeatureSelect's: 5 000 groups
// all cut at the same 20 instants, merged into 5 000 events.
func BenchmarkCoalesce(b *testing.B) {
	const n = 10_000
	noMerge := make([]temporal.Event, n)
	for i := range noMerge {
		noMerge[i] = temporal.PointEvent(temporal.Time(i/3), temporal.Row{temporal.Int(int64(i)), temporal.Float(0.5)})
	}
	trainData := make([]temporal.Event, 6*n)
	for i := range trainData {
		imp := int64(i / 6)
		trainData[i] = temporal.PointEvent(temporal.Time(imp*37), temporal.Row{
			temporal.Int(imp * 37), temporal.Int(imp % 997), temporal.Int(imp % 13), temporal.Int(imp % 2),
			temporal.Int(int64(i % 6)), temporal.Int(int64(1 + i%4)),
		})
	}
	chains := func(groups, cuts int) []temporal.Event {
		evs := make([]temporal.Event, groups*cuts)
		for i := range evs {
			t := temporal.Time(i / groups * 10)
			evs[i] = temporal.Event{LE: t, RE: t + 10, Payload: temporal.Row{temporal.Int(int64(i % groups))}}
		}
		return evs
	}
	for _, c := range []struct {
		name   string
		events []temporal.Event
		want   int
	}{
		{"NoMerge", noMerge, n}, {"TrainData", trainData, 6 * n},
		{"Fragmented", chains(100, 100), 100}, {"MassBoundary", chains(5000, 20), 5000},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Coalesce leaves its argument sorted and intact, so it
				// is the same input every iteration.
				if got := temporal.Coalesce(c.events); len(got) != c.want {
					b.Fatalf("%d events out, want %d", len(got), c.want)
				}
			}
		})
	}
}

// BenchmarkEngineFeed is the engine's run entry over a stateless hot chain
// (filters → window) of the click log — the shape of a TiMR reducer's
// inner loop, where per-call overhead dominates because each operator does
// almost no work per event. No allocating operator (project, aggregate) is
// included, so the number is the per-event push and dispatch cost.
func BenchmarkEngineFeed(b *testing.B) {
	d, _ := fixtures(b)
	schema, clicks := clickLog(d)
	events := temporal.RowsToPointEvents(clicks, 0)
	plan := temporal.Scan("in", schema).
		Where(temporal.ColGtInt("AdId", -1)). // always true: measures dispatch, not selectivity
		Where(temporal.ColGtInt("UserId", -1)).
		WithWindow(temporal.Hour)
	sink := &temporal.Collector{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Reset()
		eng, err := temporal.NewEngine(plan, temporal.WithSink(sink))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.FeedMerged([]temporal.Run{{Source: "in", Events: events}}); err != nil {
			b.Fatal(err)
		}
		eng.Flush()
	}
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// Facade smoke check: the public API surface used by the examples.
func TestFacadeSmoke(t *testing.T) {
	schema := timr.NewSchema(
		timr.Field{Name: "Time", Kind: timr.KindInt},
		timr.Field{Name: "V", Kind: timr.KindInt},
	)
	plan := timr.Scan("in", schema).WithWindow(10).Count("C")
	out, err := timr.RunPlan(plan, map[string][]timr.Event{
		"in": {timr.PointEvent(1, timr.Row{timr.Int(1), timr.Int(5)})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Payload[0].AsInt() != 1 {
		t.Fatalf("out = %v", out)
	}
}
