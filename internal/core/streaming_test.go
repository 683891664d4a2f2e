package core

import (
	"bytes"
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"timr/internal/leakcheck"
	"timr/internal/mapreduce"
	"timr/internal/temporal"
)

// runStreaming drives a StreamingJob with interleaved source events and a
// punctuation wave every `period` ticks.
func runStreaming(t *testing.T, plan *temporal.Plan, sources map[string]*temporal.Schema,
	feeds map[string][]temporal.Event, machines int, period temporal.Time) []temporal.Event {
	t.Helper()
	job, err := NewStreamingJob(plan, sources, WithMachines(machines))
	if err != nil {
		t.Fatal(err)
	}
	feeders := make(map[string]*Feeder, len(feeds))
	for src := range feeds {
		f, err := job.Source(src)
		if err != nil {
			t.Fatal(err)
		}
		feeders[src] = f
	}
	type srcEvent struct {
		Source string
		Event  temporal.Event
	}
	var all []srcEvent
	for src, evs := range feeds {
		for _, e := range evs {
			all = append(all, srcEvent{Source: src, Event: e})
		}
	}
	// Global LE order with deterministic tie-break by source name.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0; j-- {
			a, b := all[j-1], all[j]
			if b.Event.LE < a.Event.LE || (b.Event.LE == a.Event.LE && b.Source < a.Source) {
				all[j-1], all[j] = b, a
			} else {
				break
			}
		}
	}
	last := temporal.Time(temporal.MinTime)
	for _, se := range all {
		if last != temporal.MinTime && se.Event.LE-last >= period {
			if err := job.Advance(se.Event.LE); err != nil {
				t.Fatal(err)
			}
			last = se.Event.LE
		} else if last == temporal.MinTime {
			last = se.Event.LE
		}
		if err := feeders[se.Source].Feed(se.Event); err != nil {
			t.Fatal(err)
		}
	}
	job.Flush()
	res, err := job.Results()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestStreamingMatchesSingleNodeGrouped(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	r := rand.New(rand.NewSource(11))
	rows := clickRows(r, 1500, 40, 6)
	plan := temporal.Scan("clicks", clickSchema()).
		Exchange(temporal.PartitionBy{Cols: []string{"AdId"}}).
		GroupApply([]string{"AdId"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(60).Count("C")
		})
	events := temporal.RowsToPointEvents(rows, 0)
	got := runStreaming(t, plan,
		map[string]*temporal.Schema{"clicks": clickSchema()},
		map[string][]temporal.Event{"clicks": events}, 4, 25)
	want := singleNode(t, runningClickCount(60), "clicks", rows, 0)
	if !temporal.EventsEqual(got, want) {
		t.Fatalf("streaming %d events != batch %d events", len(got), len(want))
	}
}

func TestStreamingRoutesWideIntervals(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	// Regression for LE-only span routing in streamStage.route: interval
	// events from a source must fan out to every span their lifetime
	// reaches (by RE, not just LE), or temporal partitions beyond the
	// event's first span undercount. Mirrors the batch test
	// TestChainedTemporalJobsRouteWideIntervals.
	r := rand.New(rand.NewSource(29))
	rows := clickRows(r, 1200, 20, 5)
	events := temporal.RowsToPointEvents(rows, 0)
	for i := range events {
		events[i].RE = events[i].LE + 250
	}
	plan := temporal.Scan("evs", clickSchema()).
		Exchange(temporal.PartitionBy{Temporal: true, SpanWidth: 100}).
		Count("C")
	got := runStreaming(t, plan,
		map[string]*temporal.Schema{"evs": clickSchema()},
		map[string][]temporal.Event{"evs": events}, 4, 50)
	want, err := temporal.RunPlan(
		temporal.Scan("evs", clickSchema()).Count("C"),
		map[string][]temporal.Event{"evs": events})
	if err != nil {
		t.Fatal(err)
	}
	if !temporal.EventsEqual(got, want) {
		t.Fatalf("streaming interval routing diverges: %d vs %d events", len(got), len(want))
	}
}

// twoStagePlan chains two GroupApply fragments: per-user windowed counts,
// as points, re-keyed by the count itself.
func twoStagePlan(annotate bool) *temporal.Plan {
	src := temporal.Scan("clicks", clickSchema())
	s := src
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
		return g.WithWindow(50).Count("N")
	})
}

// TestStreamingTwoStagePipeline runs the chained plan at wave periods on
// both sides of the first stage's 30-tick window. A stage barrier
// punctuates the consumer at the wave time, so the producer's engines
// must have released everything below it: a GroupApply that thinned the
// wave's CTI (period 2 used to lose 8 of 1709 events that way) breaks it.
func TestStreamingTwoStagePipeline(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	r := rand.New(rand.NewSource(23))
	rows := clickRows(r, 800, 15, 4)
	events := temporal.RowsToPointEvents(rows, 0)
	want := singleNode(t, twoStagePlan(false), "clicks", rows, 0)
	for _, period := range []temporal.Time{1, 2, 5, 20, 33, 1000} {
		got := runStreaming(t, twoStagePlan(true),
			map[string]*temporal.Schema{"clicks": clickSchema()},
			map[string][]temporal.Event{"clicks": events}, 3, period)
		if !temporal.EventsEqual(got, want) {
			t.Fatalf("wave period %d: streaming two-stage diverges: %d vs %d events", period, len(got), len(want))
		}
	}
}

func TestStreamingMultiSourceJoin(t *testing.T) {
	defer leakcheck.Goroutines(t)()
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
		return lp.Join(rp.WithWindow(25), []string{"UserId"}, []string{"UserId"}, nil)
	}
	r := rand.New(rand.NewSource(31))
	impRows := clickRows(r, 400, 12, 4)
	kwRows := clickRows(r, 400, 12, 5)
	got := runStreaming(t, mk(true),
		map[string]*temporal.Schema{"imp": imp, "kw": kw},
		map[string][]temporal.Event{
			"imp": temporal.RowsToPointEvents(impRows, 0),
			"kw":  temporal.RowsToPointEvents(kwRows, 0),
		}, 4, 15)
	want, err := temporal.RunPlan(mk(false), map[string][]temporal.Event{
		"imp": temporal.RowsToPointEvents(impRows, 0),
		"kw":  temporal.RowsToPointEvents(kwRows, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !temporal.EventsEqual(got, want) {
		t.Fatalf("streaming join diverges: %d vs %d events", len(got), len(want))
	}
}

func TestStreamingTemporalPartitioning(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	r := rand.New(rand.NewSource(41))
	rows := clickRows(r, 2000, 30, 5)
	mk := func(annotate bool) *temporal.Plan {
		src := temporal.Scan("clicks", clickSchema())
		s := src
		if annotate {
			s = src.Exchange(temporal.PartitionBy{Temporal: true, SpanWidth: 400})
		}
		return s.WithWindow(90).Count("C")
	}
	events := temporal.RowsToPointEvents(rows, 0)
	got := runStreaming(t, mk(true),
		map[string]*temporal.Schema{"clicks": clickSchema()},
		map[string][]temporal.Event{"clicks": events}, 4, 50)
	want := singleNode(t, mk(false), "clicks", rows, 0)
	if !temporal.EventsEqual(got, want) {
		t.Fatalf("streaming temporal partitioning diverges: %d vs %d events", len(got), len(want))
	}
}

func TestStreamingPunctuationRateInvariance(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	r := rand.New(rand.NewSource(53))
	rows := clickRows(r, 600, 10, 3)
	plan := func() *temporal.Plan {
		return temporal.Scan("clicks", clickSchema()).
			Exchange(temporal.PartitionBy{Cols: []string{"AdId"}}).
			GroupApply([]string{"AdId"}, func(g *temporal.Plan) *temporal.Plan {
				return g.WithWindow(40).Count("C")
			})
	}
	events := temporal.RowsToPointEvents(rows, 0)
	var ref []temporal.Event
	for _, period := range []temporal.Time{5, 33, 1000} {
		got := runStreaming(t, plan(),
			map[string]*temporal.Schema{"clicks": clickSchema()},
			map[string][]temporal.Event{"clicks": events}, 4, period)
		if ref == nil {
			ref = got
		} else if !temporal.EventsEqual(got, ref) {
			t.Fatalf("punctuation period %d changed results", period)
		}
	}
}

func TestStreamingIncrementalDelivery(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	// onEvent must fire before Flush when punctuation allows release.
	plan := temporal.Scan("clicks", clickSchema()).
		Exchange(temporal.PartitionBy{Cols: []string{"AdId"}}).
		GroupApply([]string{"AdId"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(10).Count("C")
		})
	delivered := 0
	job, err := NewStreamingJob(plan,
		map[string]*temporal.Schema{"clicks": clickSchema()},
		WithMachines(2),
		WithOnEvent(func(temporal.Event) { delivered++ }))
	if err != nil {
		t.Fatal(err)
	}
	clicks, err := job.Source("clicks")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		ev := temporal.PointEvent(temporal.Time(i*5), temporal.Row{
			temporal.Int(int64(i * 5)), temporal.Int(int64(i % 3)), temporal.Int(int64(i % 2)),
		})
		if err := clicks.Feed(ev); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			if err := job.Advance(temporal.Time(i * 5)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if delivered == 0 {
		t.Fatal("no incremental delivery before flush")
	}
	if _, err := job.Results(); err == nil {
		t.Fatal("Results before Flush must error")
	}
	job.Flush()
	res, err := job.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results after flush")
	}
}

// Regression for span-ownership at far-from-zero time origins. The
// workload lives entirely inside one span whose id is large (time origin
// 5,000,000 with span width 400 → earliest lazy span id 12500), and the
// negative lifetime shift produces output below that span's start. The
// earliest *existing* span must own everything before it — keying the
// MinTime rule on span id 0 (which never materialises here) silently
// drops that output.
func TestStreamingTemporalPartitioningFarOrigin(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	const origin = 5_000_000 // divisible by the span width of 400
	var rows []mapreduce.Row
	for i := 0; i < 200; i++ {
		tm := int64(origin + (i*7)%350)
		rows = append(rows, mapreduce.Row{
			temporal.Int(tm), temporal.Int(int64(i % 10)), temporal.Int(int64(i % 3)),
		})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a][0].AsInt() < rows[b][0].AsInt() })

	mk := func(annotate bool) *temporal.Plan {
		s := temporal.Scan("clicks", clickSchema())
		if annotate {
			s = s.Exchange(temporal.PartitionBy{Temporal: true, SpanWidth: 400})
		}
		// Shift reaches 150 ticks below each event; the earliest events sit
		// at the span start, so correct output extends below origin.
		return s.ShiftLifetime(-150).WithWindow(90).Count("C")
	}
	events := temporal.RowsToPointEvents(rows, 0)
	got := runStreaming(t, mk(true),
		map[string]*temporal.Schema{"clicks": clickSchema()},
		map[string][]temporal.Event{"clicks": events}, 4, 50)
	want := singleNode(t, mk(false), "clicks", rows, 0)
	if len(want) == 0 || want[0].LE >= origin {
		t.Fatalf("reference run produced no output below the origin; test is vacuous")
	}
	if !temporal.EventsEqual(got, want) {
		t.Fatalf("far-origin streaming diverges: %d vs %d events", len(got), len(want))
	}
}

func TestStreamingTemporalFragmentIsExact(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	// A time-keyed fragment runs as one partition, so an event whose
	// lifetime reaches ~1e9 costs one admission, not one per span it
	// crosses, and nothing is clipped anywhere: the job must equal the
	// single-engine run exactly.
	plan := temporal.Scan("evs", clickSchema()).
		Exchange(temporal.PartitionBy{Temporal: true, SpanWidth: 100}).
		Count("C")
	job, err := NewStreamingJob(plan,
		map[string]*temporal.Schema{"evs": clickSchema()}, WithMachines(4))
	if err != nil {
		t.Fatal(err)
	}
	if parts := job.Partitions(); len(parts) != 1 || parts["frag0"] != 1 {
		t.Fatalf("time-keyed fragment partitions = %v, want one", parts)
	}
	evsSrc, err := job.Source("evs")
	if err != nil {
		t.Fatal(err)
	}
	var events []temporal.Event
	for i := 0; i < 60; i++ {
		ev := temporal.PointEvent(temporal.Time(i*5), temporal.Row{
			temporal.Int(int64(i * 5)), temporal.Int(int64(i % 4)), temporal.Int(int64(i % 3)),
		})
		ev.RE = ev.LE + 40
		events = append(events, ev)
		if i == 2 {
			events = append(events, temporal.Event{
				LE: ev.LE, RE: 1_000_000_000,
				Payload: temporal.Row{temporal.Int(int64(i * 5)), temporal.Int(99), temporal.Int(99)},
			})
		}
	}
	for i, e := range events {
		if err := evsSrc.Feed(e); err != nil {
			t.Fatal(err)
		}
		if i%15 == 14 {
			if err := job.Advance(e.LE); err != nil {
				t.Fatal(err)
			}
		}
	}
	job.Flush()
	got, err := job.Results()
	if err != nil {
		t.Fatal(err)
	}
	want, err := temporal.RunPlan(
		temporal.Scan("evs", clickSchema()).Count("C"),
		map[string][]temporal.Event{"evs": events})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || want[len(want)-1].RE != 1_000_000_000 {
		t.Fatal("reference output does not reach the long lifetime's end; test is vacuous")
	}
	if !temporal.EventsEqual(got, want) {
		t.Fatalf("temporal fragment diverges from RunPlan: %d vs %d events", len(got), len(want))
	}
}

func TestStreamingUseAfterFlush(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	plan := temporal.Scan("clicks", clickSchema()).
		Exchange(temporal.PartitionBy{Cols: []string{"AdId"}}).
		GroupApply([]string{"AdId"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(10).Count("C")
		})
	job, err := NewStreamingJob(plan, map[string]*temporal.Schema{"clicks": clickSchema()}, WithMachines(2))
	if err != nil {
		t.Fatal(err)
	}
	clicks, err := job.Source("clicks")
	if err != nil {
		t.Fatal(err)
	}
	ev := temporal.PointEvent(1, temporal.Row{temporal.Int(1), temporal.Int(1), temporal.Int(1)})
	if err := clicks.Feed(ev); err != nil {
		t.Fatal(err)
	}
	job.Flush()
	if err := clicks.Feed(ev); !errors.Is(err, ErrFlushed) {
		t.Fatalf("Feed after Flush: err = %v, want ErrFlushed", err)
	}
	if err := clicks.FeedBatch([]temporal.Event{ev}); !errors.Is(err, ErrFlushed) {
		t.Fatalf("FeedBatch after Flush: err = %v, want ErrFlushed", err)
	}
	if err := job.Advance(5); !errors.Is(err, ErrFlushed) {
		t.Fatalf("Advance after Flush: err = %v, want ErrFlushed", err)
	}
	before, err := job.Results()
	if err != nil {
		t.Fatal(err)
	}
	job.Flush() // idempotent: must not double-drain or panic
	after, err := job.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !temporal.EventsEqual(before, after) {
		t.Fatal("second Flush changed results")
	}
}

func TestStreamingJobValidatesFragmentsUpFront(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	// A fragment root that cannot compile (one source scanned with two
	// conflicting schemas) must fail NewStreamingJob, which builds every
	// partition's engine.
	schA := temporal.NewSchema(
		temporal.Field{Name: "Time", Kind: temporal.KindInt},
		temporal.Field{Name: "K", Kind: temporal.KindInt},
	)
	schB := temporal.NewSchema(
		temporal.Field{Name: "Time", Kind: temporal.KindInt},
		temporal.Field{Name: "K", Kind: temporal.KindInt},
		temporal.Field{Name: "X", Kind: temporal.KindInt},
	)
	plan := temporal.Scan("s", schA).
		Join(temporal.Scan("s", schB).WithWindow(5), []string{"K"}, []string{"K"}, nil)
	if _, err := NewStreamingJob(plan, map[string]*temporal.Schema{"s": schA}, WithMachines(2)); err == nil {
		t.Fatal("conflicting scan schemas must fail NewStreamingJob up front")
	}
}

func TestStreamingUnknownSource(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	plan := temporal.Scan("clicks", clickSchema()).
		Exchange(temporal.PartitionBy{Cols: []string{"AdId"}}).
		GroupApply([]string{"AdId"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(10).Count("C")
		})
	job, err := NewStreamingJob(plan, map[string]*temporal.Schema{"clicks": clickSchema()}, WithMachines(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Source("ghost"); err == nil {
		t.Fatal("unknown source must error")
	}
	if _, err := NewStreamingJob(plan, map[string]*temporal.Schema{}, WithMachines(2)); err == nil {
		t.Fatal("missing source binding must error")
	}
}

// spareIsZero reports whether everything between evs' length and capacity
// is the zero Event.
func spareIsZero(evs []temporal.Event) bool {
	for _, e := range evs[len(evs):cap(evs)] {
		if e.LE != 0 || e.RE != 0 || e.Payload != nil {
			return false
		}
	}
	return true
}

func TestBarrierClearsReleasedRows(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	// A released event left in a log's spare capacity keeps its payload's
	// row, and the slab it was carved from, reachable for as long as the
	// high-water capacity lasts: after a burst, for the life of the
	// partition.
	burst := make([]temporal.Event, 1000)
	for i := range burst {
		burst[i] = clickEv(i)
	}
	b := newBarrier([]string{"clicks"}, nil, func([]temporal.Run) {})
	for i := range burst {
		b.push(0, burst[i:i+1])
	}
	b.advance(990)
	if len(b.logs[0]) != 10 || !spareIsZero(b.logs[0]) {
		t.Fatalf("after releasing 990 of 1000: %d held, spare capacity zeroed = %v", len(b.logs[0]), spareIsZero(b.logs[0]))
	}

	// The same through a job: every partition's barrier (its replay log
	// too), and the job-level output barrier.
	job, feed := feederJob(t)
	if err := feed.FeedBatch(burst); err != nil {
		t.Fatal(err)
	}
	if err := job.Advance(990); err != nil {
		t.Fatal(err)
	}
	for _, st := range job.stages {
		for id, p := range st.parts {
			if p.buf.held() != 10 {
				t.Fatalf("partition %d: %d held, want 10", id, p.buf.held())
			}
			for _, log := range p.buf.logs {
				if !spareIsZero(log) {
					t.Fatalf("partition %d keeps released events in spare capacity", id)
				}
			}
		}
	}
	if !spareIsZero(job.outs[0].logs[0]) {
		t.Fatal("the output barrier keeps released events in spare capacity")
	}
}

// TestStreamingKeepsFedPayloads: the barrier keeps each admitted payload
// as it was fed, never a copy, so a pass-through plan delivers the very
// rows it was fed, on one partition and on three.
func TestStreamingKeepsFedPayloads(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	sch := clickSchema()
	rows := clickRows(rand.New(rand.NewSource(11)), 300, 12, 4)
	for _, machines := range []int{1, 3} {
		plan := temporal.Scan("clicks", sch).Exchange(temporal.PartitionBy{Cols: []string{"UserId"}}).
			Where(temporal.ColGtInt("AdId", 0))
		var delivered []temporal.Event
		job, err := NewStreamingJob(plan, map[string]*temporal.Schema{"clicks": sch}, WithMachines(machines),
			WithOnEvent(func(e temporal.Event) { delivered = append(delivered, e) }))
		if err != nil {
			t.Fatal(err)
		}
		f, err := job.Source("clicks")
		if err != nil {
			t.Fatal(err)
		}
		// Rows by the address of their first value: what the job delivers
		// must be one of them, not a copy.
		fed := make(map[*temporal.Value]bool, len(rows))
		for i, r := range rows {
			fed[&r[0]] = true
			if err := f.FeedBatch(temporal.RowsToPointEvents(rows[i:i+1], 0)); err != nil {
				t.Fatal(err)
			}
			if i%50 == 49 {
				if err := job.Advance(r[0].AsInt()); err != nil {
					t.Fatal(err)
				}
			}
		}
		job.Flush()
		if len(delivered) == 0 {
			t.Fatalf("%d machines: nothing delivered", machines)
		}
		for _, e := range delivered {
			if !fed[&e.Payload[0]] {
				t.Fatalf("%d machines: delivered %v is a copy of a fed row", machines, e)
			}
		}
	}
}

func TestBarrierDeliversRunsLikeEvents(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	// The barrier hands a partition engine one FeedMerged call per wave,
	// one run per input in source-name order. The reference feeds the same
	// runs with one Engine.Feed per event, in the order FeedMerged
	// promises: a stable LE sort of the runs concatenated, so an LE tie
	// goes to the earlier source name. Per-wave partition checkpoints and
	// the delivered results must be byte-identical.
	perEvent := func(p *streamPartition) func([]temporal.Run) {
		return func(runs []temporal.Run) {
			type fed struct {
				src string
				e   temporal.Event
			}
			var all []fed
			for _, r := range runs {
				for _, e := range r.Events {
					all = append(all, fed{r.Source, e})
				}
			}
			slices.SortStableFunc(all, func(a, b fed) int { return cmp.Compare(a.e.LE, b.e.LE) })
			for _, f := range all {
				p.eng.Feed(f.src, f.e)
			}
		}
	}
	sch := clickSchema()
	plan := func() *temporal.Plan {
		l := temporal.Scan("imp", sch).Exchange(temporal.PartitionBy{Cols: []string{"UserId"}})
		r := temporal.Scan("kw", sch).Exchange(temporal.PartitionBy{Cols: []string{"UserId"}})
		return l.Join(r.WithWindow(25), []string{"UserId"}, []string{"UserId"}, nil)
	}
	r := rand.New(rand.NewSource(37))
	// 600 events over ~150 ticks per source: LE ties within and across
	// sources in every wave.
	feeds := map[string][]temporal.Event{
		"imp": temporal.RowsToPointEvents(clickRows(r, 600, 12, 4), 0),
		"kw":  temporal.RowsToPointEvents(clickRows(r, 600, 12, 5), 0),
	}
	type wave struct {
		ckpts   [][]byte
		results int
	}
	drive := func(reference bool) ([]wave, []temporal.Event) {
		job, err := NewStreamingJob(plan(), map[string]*temporal.Schema{"imp": sch, "kw": sch}, WithMachines(4))
		if err != nil {
			t.Fatal(err)
		}
		hook := func() {
			if !reference {
				return
			}
			for _, st := range job.stages {
				for _, p := range st.parts {
					p.buf.deliver = perEvent(p)
				}
			}
		}
		var waves []wave
		pos := map[string]int{}
		for hi := temporal.Time(20); ; hi += 20 {
			fed := false
			for _, src := range []string{"imp", "kw", "imp"} { // interleaved batches
				evs := feeds[src]
				i := pos[src]
				end := i
				for end < len(evs) && evs[end].LE < hi && end-i < 40 {
					end++
				}
				f, err := job.Source(src)
				if err != nil {
					t.Fatal(err)
				}
				if err := f.FeedBatch(evs[i:end]); err != nil {
					t.Fatal(err)
				}
				fed = fed || end > i
				pos[src] = end
			}
			if !fed && pos["imp"] == len(feeds["imp"]) && pos["kw"] == len(feeds["kw"]) {
				break
			}
			hook()
			if err := job.Advance(hi - 10); err != nil {
				t.Fatal(err)
			}
			w := wave{results: len(job.results)}
			for _, st := range job.stages {
				for _, p := range st.parts {
					w.ckpts = append(w.ckpts, p.ckpt)
				}
			}
			waves = append(waves, w)
		}
		hook()
		job.Flush()
		return waves, job.results
	}
	got, gotResults := drive(false)
	want, wantResults := drive(true)
	if len(got) != len(want) || len(got) < 5 {
		t.Fatalf("%d waves vs %d in the reference", len(got), len(want))
	}
	for i := range got {
		if got[i].results != want[i].results || len(got[i].ckpts) != len(want[i].ckpts) {
			t.Fatalf("wave %d: %d results over %d partitions, reference %d over %d",
				i, got[i].results, len(got[i].ckpts), want[i].results, len(want[i].ckpts))
		}
		for k := range got[i].ckpts {
			if !bytes.Equal(got[i].ckpts[k], want[i].ckpts[k]) {
				t.Fatalf("wave %d: checkpoint %d differs from the per-event reference", i, k)
			}
		}
	}
	if len(gotResults) == 0 || !temporal.EventsEqual(gotResults, wantResults) {
		t.Fatalf("%d results differ from the reference's %d", len(gotResults), len(wantResults))
	}
}
