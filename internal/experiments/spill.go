package experiments

import (
	"fmt"
	"time"

	"timr/internal/bt"
	"timr/internal/core"
	"timr/internal/mapreduce"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// Spill measures the out-of-core data plane: the BotElim query (the
// pipeline's widest shuffle) runs under a shrinking MemoryBudget, from
// fully resident down to spill-everything, reporting wall time and
// spill I/O — and checking the results stay bit-identical, which is the
// whole contract that makes spilling transparent to TiMR.
func Spill(c *Context) (*Table, error) {
	data := workload.Generate(c.Opt.Workload)
	plan := bt.BotElimPlan(c.Opt.Params, true)

	budgets := []struct {
		name   string
		budget int64
	}{
		{"unlimited (resident)", 0},
		{"1 MiB", 1 << 20},
		{"64 KiB", 64 << 10},
		{"spill everything", mapreduce.SpillAll},
	}

	t := &Table{
		Title: "Out-of-core data plane: BotElim under shrinking memory budgets",
		Header: []string{"budget", "wall time", "spilled segs", "spilled",
			"spill reads", "output identical"},
	}
	var ref []temporal.Event
	for _, b := range budgets {
		cfg := clusterConfig(c.Opt.Machines)
		cfg.MemoryBudget = b.budget
		cl := mapreduce.NewCluster(cfg)
		tm := core.New(cl, core.DefaultConfig())
		cl.FS.Write("events", mapreduce.SinglePartition(workload.UnifiedSchema(), data.Rows))
		start := time.Now()
		stat, err := tm.Run(plan, map[string]string{bt.SourceEvents: "events"}, "out")
		if err != nil {
			cl.Close()
			return nil, err
		}
		wall := time.Since(start)
		evs, err := tm.ResultEvents("out")
		if err != nil {
			cl.Close()
			return nil, err
		}
		var segs int
		var written, read int64
		for _, st := range stat.Stages {
			segs += st.SpillSegments
			written += st.SpillBytes
			read += st.SpillReadBytes
		}
		identical := "-"
		if ref == nil {
			ref = evs
		} else if temporal.EventsEqual(evs, ref) {
			identical = "true"
		} else {
			identical = "FALSE"
		}
		t.AddRow(b.name, wall.Round(time.Millisecond).String(),
			fi(int64(segs)), mb(written), mb(read), identical)
		if err := cl.Close(); err != nil {
			return nil, err
		}
		if identical == "FALSE" {
			return t, fmt.Errorf("budget %s diverged from the resident run", b.name)
		}
	}
	t.AddNote("input: %d events; budget bounds resident shuffle bytes per reduce partition — overflow spills as sorted runs streamed back through the k-way merge", len(data.Rows))
	return t, nil
}

// mb formats a byte count as MB with two decimals.
func mb(n int64) string {
	return fmt.Sprintf("%.2f MB", float64(n)/(1<<20))
}
