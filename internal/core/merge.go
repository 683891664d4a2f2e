package core

import (
	"timr/internal/mapreduce"
	"timr/internal/temporal"
)

// segmentRun turns one shuffle run into an input of the engine's merged
// ingest (temporal.Engine.FeedMerged). Runs in RunKey order stream: a
// resident one is walked in place, a spilled one decodes a row frame at a
// time, and rows convert to events as the merge pulls them. A run without
// that order is handed over resident (materialized if it was spilled): the
// merge cuts it at its LE inversions, which it cannot do to a cursor.
func segmentRun(seg *mapreduce.Segment, source string, toEvent func(mapreduce.Row) temporal.Event) (temporal.Run, error) {
	run := temporal.Run{Source: source}
	switch {
	case seg.Sorted() && !seg.Spilled():
		rows := seg.Resident()
		run.Next = func() (temporal.Event, bool, error) {
			if len(rows) == 0 {
				return temporal.Event{}, false, nil
			}
			r := rows[0]
			rows = rows[1:]
			return toEvent(r), true, nil
		}
	case seg.Sorted():
		rd := seg.Open()
		run.Next = func() (temporal.Event, bool, error) {
			r, ok, err := rd.Next()
			if err != nil || !ok {
				return temporal.Event{}, false, err
			}
			return toEvent(r), true, nil
		}
	default:
		rows, err := seg.Materialize()
		if err != nil {
			return run, err
		}
		run.Events = make([]temporal.Event, len(rows))
		for i, r := range rows {
			run.Events[i] = toEvent(r)
		}
	}
	return run, nil
}
