package main

import (
	"bytes"
	"fmt"
	"time"

	"timr/internal/bt"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// verifyDay is the day after which the delta state is compared with a
// full recompute's: the third ingest, the first with a frozen window
// behind it and history long enough for the two paths to differ.
const verifyDay = 2

func runRefreshWeek(c *child) error {
	sz := c.job.Sizes
	cfg := workload.Config{Users: sz.RefreshUsers, Keywords: 2000, AdClasses: 8, Days: sz.RefreshDays, Seed: c.job.Seed}
	p := bt.DefaultParams()
	p.TrainPeriod = temporal.Day

	var data *workload.Dataset
	if err := c.setup(func() error {
		data = generate(c, cfg)
		return nil
	}); err != nil {
		return err
	}
	dayEnd := func(day int) temporal.Time { return temporal.Time(day+1) * temporal.Day }

	var first, deltaDay3 []byte
	var day3Walls []float64
	err := c.timed(func(tr *tracer) (time.Duration, error) {
		return c.section(tr, "refresh_week", func() error {
			r := bt.NewRefresher(p, cfg, bt.RefreshOptions{Mode: bt.ModeDelta})
			var week time.Duration
			var day1 float64
			for day := 0; day < cfg.Days; day++ {
				rows := data.DayRows(day)
				end := tr.begin("bt.Refresher.IngestDay")
				start := time.Now()
				err := r.IngestDay(rows, dayEnd(day))
				wall := time.Since(start)
				end(map[string]any{"day": day, "rows": len(rows)})
				if err != nil {
					c.ops(1, 1)
					return fmt.Errorf("ingest day %d: %w", day, err)
				}
				c.ops(1, 0)
				week += wall
				switch {
				case day == 0:
					c.sample("bt.ingest_day0_s", wall.Seconds())
				default:
					c.clock("day", wall)
				}
				if day == 1 {
					day1 = wall.Seconds()
				}
				if day == cfg.Days-1 && day1 > 0 {
					c.sample("bt.ingest_growth", wall.Seconds()/day1)
				}
				if day == verifyDay {
					day3Walls = append(day3Walls, wall.Seconds())
					if deltaDay3 == nil {
						if deltaDay3, err = r.State.SummaryBytes(); err != nil {
							return err
						}
					}
				}
			}
			c.items += int64(len(data.Rows))
			c.clock("week", week)

			st := r.State
			c.sample("bt.front_s", float64(st.Observation("Front").Ns)/1e9)
			c.sample("bt.counts_s", float64(st.Observation("Counts").Ns)/1e9)
			c.sample("bt.model_s", float64(st.Observation("Model").Ns)/1e9)
			c.sample("bt.train_rows", float64(len(st.Train)))
			frozen := 0
			for _, m := range st.Models {
				if m.Frozen {
					frozen++
				}
			}
			c.sample("bt.models_frozen", float64(frozen))
			summary, err := st.SummaryBytes()
			if err != nil {
				return err
			}
			c.sample("bt.state_bytes", float64(len(summary)))
			if first == nil {
				first = summary
			} else if !bytes.Equal(first, summary) {
				c.problem("repetition: refresher state after day %d differs", cfg.Days-1)
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	cal, raw := c.clockMedian("week")
	c.setClocked("events_per_s", float64(len(data.Rows))/cal, float64(len(data.Rows))/raw)
	cal, raw = c.clockMedian("day")
	c.setClocked("result_ms", cal*1e3, raw*1e3)
	c.rec.Samples["result_ms"] = len(c.clocked["day"].raw)

	// Verification: a full recompute of the first three days must leave
	// the state the delta path left; its third day also gives the
	// same-run full/delta ratio.
	full := bt.NewRefresher(p, cfg, bt.RefreshOptions{Mode: bt.ModeFull, RetainHistory: true})
	var fullDay3 time.Duration
	for day := 0; day <= verifyDay && day < cfg.Days; day++ {
		start := time.Now()
		if err := full.IngestDay(data.DayRows(day), dayEnd(day)); err != nil {
			c.ops(1, 1)
			return fmt.Errorf("full ingest day %d: %w", day, err)
		}
		c.ops(1, 0)
		fullDay3 = time.Since(start)
	}
	fullBytes, err := full.State.SummaryBytes()
	if err != nil {
		return err
	}
	if !bytes.Equal(fullBytes, deltaDay3) {
		c.problem("delta state after day %d (%d bytes) differs from a full recompute's (%d bytes)", verifyDay, len(deltaDay3), len(fullBytes))
	}
	c.set("bt.full_day3_s", fullDay3.Seconds())
	c.set("bt.delta_speedup_day3", fullDay3.Seconds()/median(day3Walls))
	return nil
}
