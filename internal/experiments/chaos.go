package experiments

import (
	"fmt"
	"time"

	"timr/internal/bt"
	"timr/internal/core"
	"timr/internal/obs"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// StreamingChaos exercises the fault-tolerant streaming path: the BotElim
// fragment DAG runs as a live streaming job while partitions are crashed
// deterministically mid-wave, recovering each from its last punctuation
// checkpoint plus the bounded replay log. The table reports, per crash
// rate, how many crashes were injected and recovered, how much state was
// checkpointed and replayed, and — the paper's repeatability claim carried
// over to streaming — whether the output is bit-identical to the
// crash-free run.
func StreamingChaos(c *Context) (*Table, error) {
	cfg := c.Opt.Workload
	cfg.Users /= 4 // repeated chaotic runs; keep each cheap
	data := workload.Generate(cfg)
	events := temporal.RowsToPointEvents(data.Rows, 0)
	p := c.Opt.Params
	schemas := map[string]*temporal.Schema{bt.SourceEvents: workload.UnifiedSchema()}
	period := 15 * temporal.Minute

	run := func(rate float64, seed int64) ([]temporal.Event, *obs.Scope, time.Duration, error) {
		scope := obs.New("chaos")
		ccfg := core.DefaultConfig()
		ccfg.Obs = scope
		ccfg.Crash = core.CrashConfig{Rate: rate, Seed: seed}
		job, err := core.NewStreamingJob(bt.BotElimPlan(p, true), schemas,
			core.WithMachines(c.Opt.Machines),
			core.WithConfig(ccfg))
		if err != nil {
			return nil, nil, 0, err
		}
		src, err := job.Source(bt.SourceEvents)
		if err != nil {
			return nil, nil, 0, err
		}
		start := time.Now()
		last := temporal.Time(temporal.MinTime)
		for _, e := range events {
			if last == temporal.MinTime {
				last = e.LE
			} else if e.LE-last >= period {
				if err := job.Advance(e.LE); err != nil {
					return nil, nil, 0, err
				}
				last = e.LE
			}
			if err := src.Feed(e); err != nil {
				return nil, nil, 0, err
			}
		}
		job.Flush()
		res, err := job.Results()
		return res, scope, time.Since(start), err
	}

	total := func(sc *obs.Scope, name string) int64 {
		var n int64
		for _, pt := range sc.Snapshot() {
			if pt.Name == name {
				n += pt.Value
			}
		}
		return n
	}

	ref, refScope, refWall, err := run(0, 0)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  "streaming chaos: checkpoint/replay recovery under injected partition crashes (BotElim DAG)",
		Header: []string{"crash rate", "crashes", "recoveries", "ckpt bytes", "replayed events", "output identical", "wall time vs clean"},
	}
	t.AddRow("0%", "0", "0",
		fmt.Sprintf("%d", total(refScope, "checkpoint_bytes")), "0", "-",
		refWall.Round(time.Millisecond).String())
	for _, rate := range []float64{0.1, 0.3, 0.5} {
		events, scope, wall, err := run(rate, 7)
		if err != nil {
			return nil, err
		}
		identical := temporal.EventsEqual(events, ref)
		t.AddRow(
			pct(rate),
			fmt.Sprintf("%d", total(scope, "crashes")),
			fmt.Sprintf("%d", total(scope, "recoveries")),
			fmt.Sprintf("%d", total(scope, "checkpoint_bytes")),
			fmt.Sprintf("%d", total(scope, "replayed_events")),
			fmt.Sprintf("%v", identical),
			fmt.Sprintf("%s (%.2fx)", wall.Round(time.Millisecond), float64(wall)/float64(refWall)),
		)
		if !identical {
			t.AddNote("REPRODUCTION FAILURE at rate %.0f%%: chaotic output diverged from crash-free run", rate*100)
		}
	}
	t.AddNote("recovery is lossless because checkpoints align with punctuation waves: between waves the engine state equals the checkpoint and the pending barrier input equals the replay log")
	return t, nil
}
