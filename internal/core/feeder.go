package core

import (
	"fmt"

	"timr/internal/obs"
	"timr/internal/temporal"
)

// Feeder is the per-source ingest handle of a StreamingJob, resolved
// once by Source instead of per call: the source-name lookup and the
// consuming-stage fan-out list live here. Feeders are not safe for
// concurrent use, matching the job's single-threaded feed contract.
type Feeder struct {
	job  *StreamingJob
	name string
	ins  []stageInput
	pos  int64 // driver-published input position; -1 = never set

	events *obs.Counter // events admitted into the dataflow
}

func newFeeder(j *StreamingJob, name string, ins []stageInput) *Feeder {
	return &Feeder{
		job: j, name: name, ins: ins, pos: -1,
		events: j.cfg.Obs.Child("stream.source." + name).Counter("events_in"),
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

// Feed pushes one source event into the dataflow: FeedBatch of one
// event.
func (f *Feeder) Feed(ev temporal.Event) error {
	return f.FeedBatch([]temporal.Event{ev})
}

// FeedBatch pushes a run of source events into the dataflow, each
// consuming stage taking the run in one call. Events must arrive in
// nondecreasing LE order per source (a live feed's natural order). The
// job keeps each payload as fed, not a copy, until a wave releases it —
// and the engines' state and results may keep it after — so the caller
// must not modify a fed row; the events slice itself may be reused. It
// returns ErrFlushed after Flush.
func (f *Feeder) FeedBatch(events []temporal.Event) error {
	if f.job.flushed {
		return ErrFlushed
	}
	f.events.Add(int64(len(events)))
	for _, in := range f.ins {
		in.stage.admit(in.src, events)
	}
	return nil
}
