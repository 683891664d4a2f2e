package core

import (
	"errors"
	"testing"

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
	if err := f.FeedBatch([]temporal.Event{clickEv(2)}); !errors.Is(err, ErrFlushed) {
		t.Fatalf("FeedBatch after Flush: err = %v, want ErrFlushed", err)
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
