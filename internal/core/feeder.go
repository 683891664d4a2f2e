package core

import (
	"errors"
	"fmt"

	"timr/internal/obs"
	"timr/internal/temporal"
)

// ErrBacklogged is returned by Feeder.TryFeed when the source's per-wave
// intake budget (WithIntake) is exhausted: the event was NOT admitted,
// and the caller owns the retry/shed decision. The committed Feed paths
// never return it — they admit over budget and account the overflow as
// deferred load instead.
var ErrBacklogged = errors.New("timr: source intake backlogged")

// Feeder is the per-source ingest handle of a StreamingJob, resolved
// once by Source instead of per call: the source-name lookup, the
// consuming-stage fan-out list, and the admission state all live here.
// Admission control is wave-scoped — WithIntake grants each source a
// budget of events per punctuation interval; TryFeed refuses beyond it
// (non-blocking backpressure), while Feed/FeedBatch remain the
// committed path that always admits but makes the overflow visible
// as deferred_events and the intake_backlog gauge. Feeders are not safe
// for concurrent use, matching the job's single-threaded feed contract.
type Feeder struct {
	job  *StreamingJob
	name string
	ins  []stageInput

	budget int64 // per-wave admission credits; 0 = unbounded
	used   int64 // events admitted since the last wave
	pos    int64 // driver-published input position; -1 = never set

	events   *obs.Counter // events admitted into the dataflow
	shed     *obs.Counter // TryFeed refusals (events not admitted)
	deferred *obs.Counter // committed events admitted over budget
	backlog  *obs.Gauge   // high-watermark of over-budget depth
}

func newFeeder(j *StreamingJob, name string, ins []stageInput, budget int64) *Feeder {
	sc := j.cfg.Obs.Child("stream.source." + name)
	return &Feeder{
		job: j, name: name, ins: ins, budget: budget, pos: -1,
		events:   sc.Counter("events_in"),
		shed:     sc.Counter("shed_events"),
		deferred: sc.Counter("deferred_events"),
		backlog:  sc.Gauge("intake_backlog"),
	}
}

// Source returns the Feeder for a raw source name. The handle stays
// valid for the job's lifetime; feeding through it after Flush returns
// ErrFlushed like every other ingest path.
func (j *StreamingJob) Source(name string) (*Feeder, error) {
	f, ok := j.feeders[name]
	if !ok {
		return nil, fmt.Errorf("timr: unknown streaming source %q", name)
	}
	return f, nil
}

// Name returns the source name this feeder ingests.
func (f *Feeder) Name() string { return f.name }

// SetPosition publishes the source's current input position — an opaque,
// driver-owned cursor into its schedule (typically "entries consumed so
// far"). The position is committed with every durable generation, so a
// restarted driver can seek its input to the recovered cursor instead of
// re-walking the schedule from the start. The job never interprets it.
func (f *Feeder) SetPosition(pos int64) { f.pos = pos }

// Position returns the last published input position and whether one was
// ever set (restored positions from a recovered generation count).
func (f *Feeder) Position() (int64, bool) { return f.pos, f.pos >= 0 }

// Backlogged reports whether the current wave's intake budget is already
// exhausted — the state in which TryFeed would refuse.
func (f *Feeder) Backlogged() bool {
	return f.budget > 0 && f.used >= f.budget
}

// admit charges n events against the wave budget. Committed admissions
// always succeed (overflow is counted as deferred load); uncommitted
// ones refuse with ErrBacklogged once the budget is spent.
func (f *Feeder) admit(n int64, committed bool) error {
	if f.job.flushed {
		return ErrFlushed
	}
	if f.budget > 0 && f.used+n > f.budget {
		if !committed {
			f.shed.Add(n)
			// Wrap with the source so multi-source drivers can log which
			// intake refused; errors.Is(err, ErrBacklogged) still holds.
			return fmt.Errorf("timr: source %q: %w", f.name, ErrBacklogged)
		}
		over := f.used + n - f.budget
		if over > n {
			over = n
		}
		f.deferred.Add(over)
		f.backlog.SetMax(f.used + n - f.budget)
	}
	f.used += n
	f.events.Add(n)
	return nil
}

// resetWave restores the intake budget at a punctuation wave: the
// engines just consumed the interval's input, so the backlog drained.
func (f *Feeder) resetWave() { f.used = 0 }

// Feed pushes one source event into the dataflow. Events must arrive in
// nondecreasing LE order per source (a live feed's natural order).
func (f *Feeder) Feed(ev temporal.Event) error {
	if err := f.admit(1, true); err != nil {
		return err
	}
	for _, in := range f.ins {
		in.stage.route(in.src, ev)
	}
	return nil
}

// TryFeed pushes one event if the wave's intake budget allows, returning
// ErrBacklogged (event not admitted) otherwise — the non-blocking
// backpressure path for callers that can shed or retry after the next
// wave.
func (f *Feeder) TryFeed(ev temporal.Event) error {
	if err := f.admit(1, false); err != nil {
		return err
	}
	for _, in := range f.ins {
		in.stage.route(in.src, ev)
	}
	return nil
}

// FeedBatch pushes a run of source events (nondecreasing LE) into the
// dataflow, routing the whole run per consuming stage in one call: the
// routing tags are carved from one slab and single-partition stages
// admit the run with one buffer append.
func (f *Feeder) FeedBatch(events []temporal.Event) error {
	if err := f.admit(int64(len(events)), true); err != nil {
		return err
	}
	for _, in := range f.ins {
		in.stage.routeBatch(in.src, events)
	}
	return nil
}
