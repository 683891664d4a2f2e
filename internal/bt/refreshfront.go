package bt

import (
	"fmt"
	"runtime"

	"timr/internal/par"
	"timr/internal/temporal"
)

// The delta path's front stages stay resident across ingests: per
// user-hash partition, one long-lived engine for each of BotElim, Label
// and TrainData, chained here. A day is one feed and one punctuation per
// engine, so every raw row passes through the front once. A fresh front
// (a new Refresher, a Restore, or after an error) is primed by feeding it
// the state's lookback tail and dropping what it emits: by the Lookback
// argument, the rows of [F_prev, F_new) depend only on input at or after
// F_prev − Lookback(P), so a primed front and one that saw all history
// emit the same rows for the day.

// Positions of the front stages in frontPart's arrays (FrontStages order).
const (
	stageBotElim = iota
	stageLabel
	stageTrainData
)

// stageSink collects one front engine's output for the current ingest
// and the newest CTI the engine delivered.
type stageSink struct {
	events []temporal.Event
	cti    temporal.Time
}

func (s *stageSink) OnEvent(e temporal.Event) { s.events = append(s.events, e) }
func (s *stageSink) OnCTI(t temporal.Time)    { s.cti = max(s.cti, t) }
func (s *stageSink) OnFlush()                 {}

// frontPart is one user-hash partition of the resident front.
type frontPart struct {
	eng [3]*temporal.Engine
	out [3]stageSink

	// held is the clean events at or after the Label engine's CTI. They
	// are the next ingest's TrainData input: fed now, the engine's
	// automatic punctuation could pass its labeled source beyond labeled
	// events still to come.
	held []temporal.Event
}

func newFrontPart(p Params) (*frontPart, error) {
	fp := &frontPart{}
	for i, st := range FrontStages(false) {
		fp.out[i].cti = temporal.MinTime
		eng, err := temporal.NewEngine(st.Plan(p, false), temporal.WithSink(&fp.out[i]))
		if err != nil {
			return nil, fmt.Errorf("bt: refresh front %s: %w", st.Name, err)
		}
		fp.eng[i] = eng
	}
	return fp, nil
}

// feed pushes runs through one engine in merged LE order and punctuates
// it at t. It returns what the engine emitted and the newest CTI it
// delivered.
func (fp *frontPart) feed(stage int, runs []temporal.Run, t temporal.Time) ([]temporal.Event, temporal.Time, error) {
	out := &fp.out[stage]
	out.events = out.events[:0]
	if _, err := fp.eng[stage].FeedMerged(runs); err != nil {
		return nil, 0, err
	}
	fp.eng[stage].Advance(t)
	return out.events, out.cti, nil
}

// ingest feeds the partition's rows of the day ending at dayEnd through
// the three engines and returns the labeled and train events they
// emitted. The output CTIs must reach f = dayEnd − D and no emitted row
// may lie at or after it; otherwise the interval below f is not
// complete, and ingest errors.
func (fp *frontPart) ingest(rows []temporal.Row, dayEnd, f temporal.Time) (labeled, train []temporal.Event, err error) {
	clean, cti, err := fp.feed(stageBotElim, []temporal.Run{{Source: SourceEvents, Events: temporal.RowsToPointEvents(rows, 0)}}, dayEnd)
	if err != nil {
		return nil, nil, err
	}
	labeled, cut, err := fp.feed(stageLabel, []temporal.Run{{Source: SourceClean, Events: clean}}, cti)
	if err != nil {
		return nil, nil, err
	}

	var ready []temporal.Event
	held := fp.held
	fp.held = nil
	for _, evs := range [][]temporal.Event{held, clean} {
		for _, e := range evs {
			if e.LE < cut {
				ready = append(ready, e)
			} else {
				fp.held = append(fp.held, e)
			}
		}
	}
	// Runs in source-name order, as RunPlan feeds them.
	train, trainCTI, err := fp.feed(stageTrainData, []temporal.Run{
		{Source: SourceClean, Events: ready},
		{Source: SourceLabeled, Events: labeled},
	}, cut)
	if err != nil {
		return nil, nil, err
	}

	switch {
	case cut < f:
		return nil, nil, fmt.Errorf("labeled output punctuated to %d, short of the watermark %d", cut, f)
	case trainCTI != cut:
		// Only a punctuation past labeled rows still to come moves it.
		return nil, nil, fmt.Errorf("train output punctuated to %d, not to the labeled output's %d", trainCTI, cut)
	}
	for _, evs := range [][]temporal.Event{labeled, train} {
		for _, e := range evs {
			if t := temporal.Time(e.Payload[0].AsInt()); t >= f {
				return nil, nil, fmt.Errorf("emitted a row at %d, at or after the watermark %d", t, f)
			}
		}
	}
	return labeled, train, nil
}

// residentFront is the delta path's front: one frontPart per user-hash
// partition, fed through the watermark of st, the state it extends.
type residentFront struct {
	parts []*frontPart
	st    *RefreshState
}

// newResidentFront builds parts partitions (0: GOMAXPROCS) of fresh
// engines for st.
func newResidentFront(st *RefreshState, parts int) (*residentFront, error) {
	if parts <= 0 {
		parts = runtime.GOMAXPROCS(0)
	}
	f := &residentFront{parts: make([]*frontPart, parts), st: st}
	for i := range f.parts {
		fp, err := newFrontPart(st.P)
		if err != nil {
			return nil, err
		}
		f.parts[i] = fp
	}
	return f, nil
}

// ingest feeds the rows of the day ending at dayEnd to every partition
// concurrently and returns the labeled and train rows emitted with
// lo <= Time, in the canonical order. All of them lie below dayEnd − D.
func (f *residentFront) ingest(rows []temporal.Row, dayEnd, lo temporal.Time) (labeled, train []temporal.Row, err error) {
	hi := dayEnd - f.st.P.D
	split := splitByUser(rows, len(f.parts))
	labeledRuns := make([][]temporal.Row, len(f.parts))
	trainRuns := make([][]temporal.Row, len(f.parts))
	if err := par.ForEach(runtime.GOMAXPROCS(0), len(f.parts), func(i int) error {
		lab, tr, err := f.parts[i].ingest(split[i], dayEnd, hi)
		if err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
		}
		labeledRuns[i], trainRuns[i] = sortedRows(lab, lo, hi), sortedRows(tr, lo, hi)
		return nil
	}); err != nil {
		return nil, nil, err
	}
	return mergeRows(labeledRuns), mergeRows(trainRuns), nil
}

// splitByUser partitions rows by the hash of their UserId, the column
// TiMR's PartitionCols would route the front stages by, keeping each
// partition's rows in input order.
func splitByUser(rows []temporal.Row, parts int) [][]temporal.Row {
	userID := []int{2} // UserId's column in the unified schema
	part := func(row temporal.Row) int {
		return int(temporal.HashRow(row, userID) % uint64(parts))
	}
	sizes := make([]int, parts)
	for _, row := range rows {
		sizes[part(row)]++
	}
	split := make([][]temporal.Row, parts)
	for i := range split {
		split[i] = make([]temporal.Row, 0, sizes[i])
	}
	for _, row := range rows {
		i := part(row)
		split[i] = append(split[i], row)
	}
	return split
}
