package experiments

import (
	"fmt"
	"time"

	"timr/internal/core"
	"timr/internal/mapreduce"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// Fig16 reproduces Figure 16: a 30-minute sliding-window count query with
// no payload partitioning key, scaled out via temporal partitioning. Small
// span widths duplicate work at the overlaps; large span widths starve the
// cluster of parallelism; the optimum sits in between, and the best span
// is compared against single-task execution (the paper reports ≈18×).
func Fig16(c *Context) (*Table, error) {
	data := workload.Generate(c.Opt.Workload)
	window := 30 * temporal.Minute

	runWidth := func(width temporal.Time) (time.Duration, int, error) {
		plan := temporal.Scan("events", workload.UnifiedSchema()).
			Exchange(temporal.PartitionBy{Temporal: true, SpanWidth: width}).
			WithWindow(window).
			Count("C")
		cl := mapreduce.NewCluster(clusterConfig(c.Opt.Machines))
		tm := core.New(cl, core.DefaultConfig())
		cl.FS.Write("ds", mapreduce.SinglePartition(workload.UnifiedSchema(), data.Rows))
		stat, err := tm.Run(plan, map[string]string{"events": "ds"}, "out")
		if err != nil {
			return 0, 0, err
		}
		return stat.Makespan(c.Opt.Machines, cl.Cfg.ShufflePerRow), stat.Stages[0].Partitions, nil
	}
	runSingle := func() (time.Duration, error) {
		plan := temporal.Scan("events", workload.UnifiedSchema()).
			WithWindow(window).
			Count("C")
		cl := mapreduce.NewCluster(clusterConfig(c.Opt.Machines))
		tm := core.New(cl, core.DefaultConfig())
		cl.FS.Write("ds", mapreduce.SinglePartition(workload.UnifiedSchema(), data.Rows))
		stat, err := tm.Run(plan, map[string]string{"events": "ds"}, "out")
		if err != nil {
			return 0, err
		}
		return stat.Makespan(c.Opt.Machines, cl.Cfg.ShufflePerRow), nil
	}

	single, err := runSingle()
	if err != nil {
		return nil, err
	}
	widths := []temporal.Time{
		2 * temporal.Minute,
		5 * temporal.Minute,
		10 * temporal.Minute,
		20 * temporal.Minute,
		45 * temporal.Minute,
		90 * temporal.Minute,
		3 * temporal.Hour,
		6 * temporal.Hour,
		12 * temporal.Hour,
		24 * temporal.Hour,
		3 * temporal.Day,
	}
	if c.Opt.Quick {
		widths = widths[4:9]
	}

	t := &Table{
		Title:  "Figure 16: temporal partitioning — runtime vs span width (30-min sliding count)",
		Header: []string{"span width", "spans", "makespan", "speedup vs single task"},
	}
	best := time.Duration(1<<62 - 1)
	for _, w := range widths {
		span, parts, err := runWidth(w)
		if err != nil {
			return nil, err
		}
		if span < best {
			best = span
		}
		t.AddRow(
			(time.Duration(w) * time.Millisecond).String(),
			fi(int64(parts)),
			span.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1fx", float64(single)/float64(span)),
		)
	}
	t.AddRow("single task", "1", single.Round(time.Microsecond).String(), "1.0x")
	t.AddNote("paper: optimal span width is ~18x faster than single-node; small spans pay overlap duplication, large spans lose parallelism")
	t.AddNote("best speedup measured: %.1fx", float64(single)/float64(best))
	return t, nil
}
