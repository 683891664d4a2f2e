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

// admit counts n events in, or refuses them once the job is flushed or
// broken.
func (f *Feeder) admit(n int64) error {
	switch {
	case f.job.flushed:
		return ErrFlushed
	case f.job.err != nil:
		return f.job.err
	}
	f.events.Add(n)
	return nil
}

// Feed pushes one source event into the dataflow. Events must arrive in
// nondecreasing LE order per source (a live feed's natural order). It
// returns ErrFlushed after Flush, and the job's failure once a partition
// recovery has failed (this one's included).
func (f *Feeder) Feed(ev temporal.Event) error {
	if err := f.admit(1); err != nil {
		return err
	}
	for _, in := range f.ins {
		in.stage.route(in.src, ev)
	}
	return f.job.err
}

// FeedBatch pushes a run of source events (nondecreasing LE) into the
// dataflow, routing the whole run per consuming stage in one call: the
// routing tags are carved from one slab and single-partition stages
// admit the run with one buffer append. It errors as Feed does.
func (f *Feeder) FeedBatch(events []temporal.Event) error {
	if err := f.admit(int64(len(events))); err != nil {
		return err
	}
	for _, in := range f.ins {
		in.stage.routeBatch(in.src, events)
	}
	return f.job.err
}
