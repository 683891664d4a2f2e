package core

import (
	"errors"
	"strings"
	"testing"

	"timr/internal/obs"
	"timr/internal/temporal"
)

func feederJob(t *testing.T, opts ...StreamOption) (*StreamingJob, *Feeder) {
	t.Helper()
	plan := temporal.Scan("clicks", clickSchema()).
		Exchange(temporal.PartitionBy{Cols: []string{"AdId"}}).
		GroupApply([]string{"AdId"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(10).Count("C")
		})
	job, err := NewStreamingJob(plan,
		map[string]*temporal.Schema{"clicks": clickSchema()}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	f, err := job.Source("clicks")
	if err != nil {
		t.Fatal(err)
	}
	return job, f
}

func clickEv(i int) temporal.Event {
	return temporal.PointEvent(temporal.Time(i), temporal.Row{
		temporal.Int(int64(i)), temporal.Int(int64(i % 3)), temporal.Int(int64(i % 2)),
	})
}

func TestFeederUnknownSource(t *testing.T) {
	job, _ := feederJob(t, WithMachines(2))
	if _, err := job.Source("ghost"); err == nil {
		t.Fatal("Source on an unknown name must error")
	}
}

func TestFeederFlushedErrors(t *testing.T) {
	job, f := feederJob(t, WithMachines(2))
	if err := f.Feed(clickEv(1)); err != nil {
		t.Fatal(err)
	}
	job.Flush()
	if err := f.Feed(clickEv(2)); !errors.Is(err, ErrFlushed) {
		t.Fatalf("Feed after Flush: err = %v, want ErrFlushed", err)
	}
	if err := f.TryFeed(clickEv(2)); !errors.Is(err, ErrFlushed) {
		t.Fatalf("TryFeed after Flush: err = %v, want ErrFlushed", err)
	}
	if err := f.FeedBatch([]temporal.Event{clickEv(2)}); !errors.Is(err, ErrFlushed) {
		t.Fatalf("FeedBatch after Flush: err = %v, want ErrFlushed", err)
	}
}

func TestFeederBackpressure(t *testing.T) {
	scope := obs.New("t")
	cfg := DefaultConfig()
	cfg.Obs = scope
	job, f := feederJob(t, WithMachines(2), WithConfig(cfg), WithIntake(5))

	// TryFeed admits up to the budget, then refuses without admitting.
	for i := 0; i < 5; i++ {
		if err := f.TryFeed(clickEv(i)); err != nil {
			t.Fatalf("TryFeed %d under budget: %v", i, err)
		}
	}
	if !f.Backlogged() {
		t.Fatal("budget spent but Backlogged() is false")
	}
	for i := 0; i < 3; i++ {
		if err := f.TryFeed(clickEv(5)); !errors.Is(err, ErrBacklogged) {
			t.Fatalf("TryFeed over budget: err = %v, want ErrBacklogged", err)
		}
	}

	// The committed path still admits over budget, counted as deferred.
	if err := f.Feed(clickEv(6)); err != nil {
		t.Fatalf("committed Feed over budget must admit: %v", err)
	}
	if err := f.FeedBatch([]temporal.Event{clickEv(7), clickEv(8)}); err != nil {
		t.Fatalf("committed FeedBatch over budget must admit: %v", err)
	}

	snap := map[string]int64{}
	var backlog int64
	for _, p := range scope.Snapshot() {
		if p.Scope == "t.stream.source.clicks" {
			if p.Name == "intake_backlog" {
				backlog = p.Value
			} else {
				snap[p.Name] = p.Value
			}
		}
	}
	if snap["events_in"] != 8 { // 5 tried + 1 fed + 2 batch
		t.Fatalf("events_in = %d, want 8", snap["events_in"])
	}
	if snap["shed_events"] != 3 {
		t.Fatalf("shed_events = %d, want 3", snap["shed_events"])
	}
	if snap["deferred_events"] != 3 {
		t.Fatalf("deferred_events = %d, want 3 (1 fed + 2 batch over budget)", snap["deferred_events"])
	}
	if backlog != 3 {
		t.Fatalf("intake_backlog = %d, want high-watermark 3", backlog)
	}

	// A punctuation wave drains the interval and restores the budget.
	if err := job.Advance(100); err != nil {
		t.Fatal(err)
	}
	if f.Backlogged() {
		t.Fatal("budget not restored by the wave")
	}
	if err := f.TryFeed(clickEv(101)); err != nil {
		t.Fatalf("TryFeed after wave reset: %v", err)
	}
}

func TestFeederBackloggedWrappedWithSource(t *testing.T) {
	// Regression: the refusal carries the source name for multi-source
	// drivers, but must still satisfy errors.Is(err, ErrBacklogged) —
	// callers branch on the sentinel, not the message.
	_, f := feederJob(t, WithMachines(2), WithIntake(1))
	if err := f.TryFeed(clickEv(1)); err != nil {
		t.Fatal(err)
	}
	err := f.TryFeed(clickEv(2))
	if !errors.Is(err, ErrBacklogged) {
		t.Fatalf("wrapped refusal lost the sentinel: %v", err)
	}
	if !strings.Contains(err.Error(), `"clicks"`) {
		t.Fatalf("refusal does not name the source: %v", err)
	}
}

func TestFeederBudgetCountsAllPaths(t *testing.T) {
	// FeedBatch charges the batch length against the same budget.
	_, f := feederJob(t, WithMachines(2), WithIntake(4))
	evs := []temporal.Event{clickEv(1), clickEv(2), clickEv(3), clickEv(4)}
	if err := f.FeedBatch(evs); err != nil {
		t.Fatal(err)
	}
	if err := f.TryFeed(clickEv(5)); !errors.Is(err, ErrBacklogged) {
		t.Fatalf("batch feed did not charge the budget: err = %v", err)
	}
}

func TestFeederMatchesDirectRouting(t *testing.T) {
	// The Feeder paths must produce the same output as the pre-redesign
	// direct job methods (which now delegate to it) — one plan, two
	// ingest shapes, identical results.
	var events []temporal.Event
	for i := 0; i < 300; i++ {
		events = append(events, clickEv(i/2))
	}
	run := func(mode int) []temporal.Event {
		job, f := feederJob(t, WithMachines(3))
		for lo := 0; lo < len(events); lo += 50 {
			hi := lo + 50
			if hi > len(events) {
				hi = len(events)
			}
			var err error
			switch mode {
			case 0:
				for _, e := range events[lo:hi] {
					if err = f.Feed(e); err != nil {
						break
					}
				}
			case 1:
				err = f.FeedBatch(events[lo:hi])
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := job.Advance(events[hi-1].LE); err != nil {
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
	ref := run(0)
	if len(ref) == 0 {
		t.Fatal("no output; test is vacuous")
	}
	if got := run(1); !temporal.EventsEqual(got, ref) {
		t.Fatalf("FeedBatch diverges from Feed: %d vs %d events", len(got), len(ref))
	}
}
