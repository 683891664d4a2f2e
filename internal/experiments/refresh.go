package experiments

import (
	"bytes"
	"fmt"
	"time"

	"timr/internal/bt"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// refreshWorkload scales the sliding-window drill: always a 7-day log
// (one ingest per day), with the user population shrunk under Quick.
func refreshWorkload(o Options) (workload.Config, bt.Params) {
	w := o.Workload
	w.Days = 7
	if o.Quick {
		w.Users = 220
		w.Keywords = 180
		w.SearchesPerUserDay = 12
		w.ImpressionsPerUserDay = 8
	}
	p := o.Params
	p.TrainPeriod = temporal.Day
	if p.D <= 0 || p.D >= temporal.Day {
		p.D = 5 * temporal.Minute
	}
	return w, p
}

// Refresh runs the incremental-maintenance drill: the BT pipeline
// slides over a 7-day log one day at a time, once on the delta path
// (mergeable summaries, frozen-window model cache) and once as a full
// recompute of all history, asserting after every day that both leave
// byte-identical state (RefreshState.SummaryBytes). The full
// recompute is the reference; the delta path is the refresher.
func Refresh(c *Context) (*Table, error) {
	w, p := refreshWorkload(c.Opt)
	data := workload.Generate(w)

	delta := bt.NewRefresher(p, w, bt.RefreshOptions{Mode: bt.ModeDelta})
	full := bt.NewRefresher(p, w, bt.RefreshOptions{Mode: bt.ModeFull, RetainHistory: true})

	t := &Table{
		Title:  "incremental refresh: delta vs full recompute over a 7-day sliding window",
		Header: []string{"day", "raw rows", "delta", "full", "speedup", "state", "equal"},
	}
	var totDelta, totFull time.Duration
	for day := 0; day < w.Days; day++ {
		rows := data.DayRows(day)
		dayEnd := temporal.Time(day+1) * temporal.Day

		start := time.Now()
		if err := delta.IngestDay(rows, dayEnd); err != nil {
			return nil, fmt.Errorf("refresh drill: delta day %d: %w", day, err)
		}
		dDelta := time.Since(start)

		start = time.Now()
		if err := full.IngestDay(rows, dayEnd); err != nil {
			return nil, fmt.Errorf("refresh drill: full day %d: %w", day, err)
		}
		dFull := time.Since(start)

		db, err := delta.State.SummaryBytes()
		if err != nil {
			return nil, err
		}
		fb, err := full.State.SummaryBytes()
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(db, fb) {
			return nil, fmt.Errorf("refresh drill: day %d state diverged (delta %d bytes, full %d)", day, len(db), len(fb))
		}
		totDelta += dDelta
		totFull += dFull
		t.AddRow(fi(int64(day)), fi(int64(len(rows))),
			dDelta.Round(time.Millisecond).String(), dFull.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2fx", float64(dFull)/float64(dDelta)),
			fmt.Sprintf("%dKB", len(fb)/1024), "yes")
	}

	frozen := 0
	for _, m := range delta.State.Models {
		if m.Frozen {
			frozen++
		}
	}
	t.AddNote("all %d days byte-identical across the delta and full paths", w.Days)
	t.AddNote("cumulative: delta %s vs full %s — %.2fx; %d/%d window models frozen (trained once, reused)",
		totDelta.Round(time.Millisecond), totFull.Round(time.Millisecond),
		float64(totFull)/float64(totDelta), frozen, len(delta.State.Models))
	return t, nil
}
