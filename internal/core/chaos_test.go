package core_test

// Chaos equivalence: a streaming job with deterministic crash injection
// must produce exactly the crash-free (and batch) results, because every
// partition recovers from its wave checkpoint plus the replay log. The
// tests live in an external package so they can drive the real BotElim
// plan from the bt package (which itself imports core).

import (
	"testing"

	"timr/internal/bt"
	"timr/internal/core"
	"timr/internal/leakcheck"
	"timr/internal/obs"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// driveStream feeds one source's events in LE order with a punctuation
// wave every period ticks, then flushes and returns coalesced results. No
// goroutine may outlive the run.
func driveStream(t *testing.T, plan *temporal.Plan, schemas map[string]*temporal.Schema,
	source string, events []temporal.Event, machines int, cfg core.Config, period temporal.Time) []temporal.Event {
	t.Helper()
	defer leakcheck.Goroutines(t)()
	job, err := core.NewStreamingJob(plan, schemas, core.WithMachines(machines), core.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	src, err := job.Source(source)
	if err != nil {
		t.Fatal(err)
	}
	last := temporal.Time(temporal.MinTime)
	for _, e := range events {
		if last == temporal.MinTime {
			last = e.LE
		} else if e.LE-last >= period {
			if err := job.Advance(e.LE); err != nil {
				t.Fatal(err)
			}
			last = e.LE
		}
		if err := src.Feed(e); err != nil {
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

// counterTotal sums every counter named `name` across the scope tree.
func counterTotal(sc *obs.Scope, name string) int64 {
	var n int64
	for _, p := range sc.Snapshot() {
		if p.Name == name {
			n += p.Value
		}
	}
	return n
}

func TestStreamingChaosBotElim(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Users = 250
	cfg.Days = 1
	data := workload.Generate(cfg)
	events := temporal.RowsToPointEvents(data.Rows, 0)
	p := bt.DefaultParams()
	schemas := map[string]*temporal.Schema{bt.SourceEvents: workload.UnifiedSchema()}
	period := 15 * temporal.Minute

	batch, err := temporal.RunPlan(bt.BotElimPlan(p, false),
		map[string][]temporal.Event{bt.SourceEvents: events})
	if err != nil {
		t.Fatal(err)
	}
	clean := driveStream(t, bt.BotElimPlan(p, true), schemas, bt.SourceEvents,
		events, 4, core.DefaultConfig(), period)
	if !temporal.EventsEqual(clean, batch) {
		t.Fatalf("crash-free streaming diverges from batch: %d vs %d events", len(clean), len(batch))
	}

	for _, seed := range []int64{1, 2, 3} {
		scope := obs.New("chaos")
		ccfg := core.DefaultConfig()
		ccfg.Obs = scope
		ccfg.Crash = core.CrashConfig{Rate: 0.3, Seed: seed}
		got := driveStream(t, bt.BotElimPlan(p, true), schemas, bt.SourceEvents,
			events, 4, ccfg, period)
		if !temporal.EventsEqual(got, clean) {
			t.Fatalf("seed %d: chaotic run diverges: %d vs %d events", seed, len(got), len(clean))
		}
		crashes := counterTotal(scope, "crashes")
		if crashes == 0 {
			t.Fatalf("seed %d: rate 0.3 injected no crashes; the test is vacuous", seed)
		}
		if rec := counterTotal(scope, "recoveries"); rec != crashes {
			t.Fatalf("seed %d: %d crashes but %d recoveries", seed, crashes, rec)
		}
		if counterTotal(scope, "checkpoint_bytes") == 0 {
			t.Fatalf("seed %d: no checkpoint bytes accounted", seed)
		}
	}
}

func TestStreamingChaosChainedFragments(t *testing.T) {
	sch := temporal.NewSchema(
		temporal.Field{Name: "Time", Kind: temporal.KindInt},
		temporal.Field{Name: "UserId", Kind: temporal.KindInt},
		temporal.Field{Name: "AdId", Kind: temporal.KindInt},
	)
	mk := func(annotate bool) *temporal.Plan {
		src := temporal.Scan("clicks", sch)
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
	var events []temporal.Event
	tm := temporal.Time(0)
	for i := 0; i < 900; i++ {
		tm += temporal.Time(i % 3)
		events = append(events, temporal.PointEvent(tm, temporal.Row{
			temporal.Int(int64(tm)), temporal.Int(int64(i % 17)), temporal.Int(int64(i % 5)),
		}))
	}
	schemas := map[string]*temporal.Schema{"clicks": sch}

	batch, err := temporal.RunPlan(mk(false), map[string][]temporal.Event{"clicks": events})
	if err != nil {
		t.Fatal(err)
	}
	// Wave periods on both sides of the first fragment's 30-tick window:
	// no wave's CTI may be thinned away inside the producer (see
	// TestStreamingTwoStagePipeline).
	var clean []temporal.Event
	for _, period := range []temporal.Time{1, 2, 5, 33, 1000, 20} {
		clean = driveStream(t, mk(true), schemas, "clicks", events, 3, core.DefaultConfig(), period)
		if !temporal.EventsEqual(clean, batch) {
			t.Fatalf("wave period %d: crash-free chained run diverges from batch: %d vs %d events", period, len(clean), len(batch))
		}
	}
	for _, seed := range []int64{1, 2, 3} {
		scope := obs.New("chaos")
		ccfg := core.DefaultConfig()
		ccfg.Obs = scope
		ccfg.Crash = core.CrashConfig{Rate: 0.3, Seed: seed}
		got := driveStream(t, mk(true), schemas, "clicks", events, 3, ccfg, 20)
		if !temporal.EventsEqual(got, clean) {
			t.Fatalf("seed %d: chaotic chained run diverges: %d vs %d events", seed, len(got), len(clean))
		}
		if counterTotal(scope, "crashes") == 0 {
			t.Fatalf("seed %d: no crashes injected; the test is vacuous", seed)
		}
		if counterTotal(scope, "replayed_events") == 0 {
			t.Fatalf("seed %d: crashes recovered without replaying any events", seed)
		}
	}
}

func TestStreamingChaosDeterministic(t *testing.T) {
	// Same seed → same injected crash count: the draw is a pure function
	// of (fragment, partition, wave, seed), like Cluster.injectedFailure.
	sch := temporal.NewSchema(
		temporal.Field{Name: "Time", Kind: temporal.KindInt},
		temporal.Field{Name: "K", Kind: temporal.KindInt},
	)
	plan := func() *temporal.Plan {
		return temporal.Scan("in", sch).
			Exchange(temporal.PartitionBy{Cols: []string{"K"}}).
			GroupApply([]string{"K"}, func(g *temporal.Plan) *temporal.Plan {
				return g.WithWindow(25).Count("C")
			})
	}
	var events []temporal.Event
	for i := 0; i < 400; i++ {
		events = append(events, temporal.PointEvent(temporal.Time(i), temporal.Row{
			temporal.Int(int64(i)), temporal.Int(int64(i % 7)),
		}))
	}
	crashesFor := func() int64 {
		scope := obs.New("chaos")
		cfg := core.DefaultConfig()
		cfg.Obs = scope
		cfg.Crash = core.CrashConfig{Rate: 0.5, Seed: 42}
		driveStream(t, plan(), map[string]*temporal.Schema{"in": sch}, "in", events, 4, cfg, 10)
		return counterTotal(scope, "crashes")
	}
	a, b := crashesFor(), crashesFor()
	if a == 0 || a != b {
		t.Fatalf("crash injection not deterministic: %d vs %d", a, b)
	}
}
