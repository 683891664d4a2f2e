package core

import (
	"math/rand"
	"strings"
	"testing"

	"timr/internal/dur"
	"timr/internal/leakcheck"
	"timr/internal/obs"
	"timr/internal/temporal"
)

// namedOutputPlans returns two roots over one per-user windowed count: a
// filter of it, and its points moved 5 ticks into the past, whose
// punctuation lags the wave by those 5 ticks.
func namedOutputPlans(annotate bool) (main, shifted *temporal.Plan) {
	src := temporal.Scan("clicks", clickSchema())
	if annotate {
		src = src.Exchange(temporal.PartitionBy{Cols: []string{"UserId"}})
	}
	counts := src.GroupApply([]string{"UserId"}, func(g *temporal.Plan) *temporal.Plan {
		return g.WithWindow(30).Count("C")
	})
	return counts.Where(temporal.ColGtInt("C", 1)), counts.ToPoint().ShiftLifetime(-5)
}

// Two roots sharing a subplan run as one job: each output delivers what
// RunPlan makes of its root alone, the shared source is fed and scanned
// once, and each output's watermark is the least punctuation its root
// emitted over the final fragment's partitions.
func TestStreamingNamedOutputs(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	rows := clickRows(rand.New(rand.NewSource(41)), 600, 12, 4)
	events := temporal.RowsToPointEvents(rows, 0)
	sc := obs.New("t")
	var gotMain, gotShifted []temporal.Event
	main, shifted := namedOutputPlans(true)
	job, err := NewStreamingJob(main, map[string]*temporal.Schema{"clicks": clickSchema()},
		WithMachines(3), WithConfig(Config{Obs: sc}),
		WithOnEvent(func(e temporal.Event) { gotMain = append(gotMain, e) }),
		WithOutput("shifted", shifted, func(e temporal.Event) { gotShifted = append(gotShifted, e) }))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(job.stages); n != 1 || len(job.stages[0].parts) != 3 {
		t.Fatalf("%d stages, %d final partitions; want the one fragment on 3 machines", n, len(job.stages[0].parts))
	}
	watermarks := func() (w [2]temporal.Time) {
		for k, name := range []string{"", "shifted"} {
			var err error
			if w[k], err = job.Watermark(name); err != nil {
				t.Fatal(err)
			}
			least := temporal.Time(temporal.MaxTime)
			for _, p := range job.stages[0].parts {
				least = min(least, p.outs[k].cti)
			}
			if w[k] != least {
				t.Fatalf("output %q: watermark %d, least partition punctuation %d", name, w[k], least)
			}
		}
		return w
	}
	if w := watermarks(); w != [2]temporal.Time{temporal.MinTime, temporal.MinTime} {
		t.Fatalf("watermarks before any wave: %v", w)
	}
	f, err := job.Source("clicks")
	if err != nil {
		t.Fatal(err)
	}
	waves := 0
	for i := 0; i < len(events); {
		end := events[i].LE + 50
		j := i
		for j < len(events) && events[j].LE < end {
			j++
		}
		if err := f.FeedBatch(events[i:j]); err != nil {
			t.Fatal(err)
		}
		if err := job.Advance(end); err != nil {
			t.Fatal(err)
		}
		if w := watermarks(); w != [2]temporal.Time{end, end - 5} {
			t.Fatalf("after the wave at %d: watermarks %v, want [%d %d]", end, w, end, end-5)
		}
		for _, e := range gotShifted {
			if e.LE >= end-5 {
				t.Fatalf("wave at %d delivered %v, at or after the watermark", end, e)
			}
		}
		i, waves = j, waves+1
	}
	job.Flush()
	if waves < 10 {
		t.Fatalf("only %d waves", waves)
	}
	if _, err := job.Results(); err == nil {
		t.Fatal("Results of a job with named outputs must error: it keeps none")
	}

	mainU, shiftedU := namedOutputPlans(false)
	for _, c := range []struct {
		name      string
		root      *temporal.Plan
		delivered []temporal.Event
	}{{"main", mainU, gotMain}, {"shifted", shiftedU, gotShifted}} {
		want, err := temporal.RunPlan(c.root, map[string][]temporal.Event{"clicks": events})
		if err != nil {
			t.Fatal(err)
		}
		if got := temporal.Coalesce(c.delivered); len(got) == 0 || !temporal.EventsEqual(got, want) {
			t.Fatalf("output %s: %d events, RunPlan %d", c.name, len(got), len(want))
		}
	}

	counted := map[string]int64{}
	for _, pt := range sc.Snapshot() {
		counted[pt.Scope+"/"+pt.Name] += pt.Value
	}
	if fed, scanned := counted["t.stream.source.clicks/events_in"], counted["t.stream.frag0.source.clicks/events"]; fed != int64(len(events)) || scanned != fed {
		t.Fatalf("%d events: %d fed, %d scanned; want each once", len(events), fed, scanned)
	}
}

func TestStreamingNamedOutputRefusals(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	sources := map[string]*temporal.Schema{"clicks": clickSchema()}
	main, shifted := namedOutputPlans(true)
	perUser := temporal.Scan("clicks", clickSchema()).
		Exchange(temporal.PartitionBy{Cols: []string{"UserId"}}).
		GroupApply([]string{"UserId"}, func(g *temporal.Plan) *temporal.Plan { return g.WithWindow(30).Count("C") }).
		ToPoint()
	exchanged := perUser.Exchange(temporal.PartitionBy{Cols: []string{"C"}})
	twoStage := exchanged.GroupApply([]string{"C"}, func(g *temporal.Plan) *temporal.Plan { return g.WithWindow(50).Count("N") })
	store, err := dur.OpenStore(t.TempDir(), dur.Options{})
	if err != nil {
		t.Fatal(err)
	}
	drop := func(temporal.Event) {}
	for _, c := range []struct {
		name string
		plan *temporal.Plan
		opts []StreamOption
		want string
	}{
		{"root in an upstream fragment", twoStage, []StreamOption{WithOutput("x", perUser, drop)}, "not in the final fragment"},
		{"root an exchange", twoStage, []StreamOption{WithOutput("x", exchanged, drop)}, "not in the final fragment"},
		{"durable", main, []StreamOption{WithDurable(store), WithOutput("x", shifted, drop)}, "WithDurable"},
		{"empty name", main, []StreamOption{WithOutput("", shifted, drop)}, "empty or repeated"},
		{"repeated name", main, []StreamOption{WithOutput("x", shifted, drop), WithOutput("x", main, drop)}, "empty or repeated"},
	} {
		if _, err := NewStreamingJob(c.plan, sources, c.opts...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: NewStreamingJob error %v, want one naming %q", c.name, err, c.want)
		}
	}
	job, err := NewStreamingJob(main, sources)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Watermark("ghost"); err == nil {
		t.Error("Watermark of an unknown output must error")
	}
}
