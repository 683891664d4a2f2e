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

// FailureRecovery exercises §III-C.1: "TiMR works well with M-R's failure
// handling strategy of restarting failed reducers — the newly generated
// output is guaranteed to be identical when we re-process the same input
// partition." The experiment runs the BotElim phase under rising injected
// reducer-failure rates, checks output identity against the failure-free
// run, and reports the recovery cost (extra attempts and wall time).
func FailureRecovery(c *Context) (*Table, error) {
	cfg := c.Opt.Workload
	cfg.Users /= 2 // keep the repeated runs cheap
	data := workload.Generate(cfg)
	p := c.Opt.Params
	plan := bt.BotElimPlan(p, true)

	run := func(failRate float64, seed int64) ([]temporal.Event, *mapreduce.JobStat, time.Duration, error) {
		ccfg := clusterConfig(c.Opt.Machines)
		ccfg.FailureRate, ccfg.MaxAttempts, ccfg.Seed = failRate, 100, seed
		cl := mapreduce.NewCluster(ccfg)
		tm := core.New(cl, core.DefaultConfig())
		cl.FS.Write("events", mapreduce.SinglePartition(workload.UnifiedSchema(), data.Rows))
		start := time.Now()
		stat, err := tm.Run(plan, map[string]string{bt.SourceEvents: "events"}, "out")
		if err != nil {
			return nil, nil, 0, err
		}
		events, err := tm.ResultEvents("out")
		return events, stat, time.Since(start), err
	}

	ref, refStat, refWall, err := run(0, 0)
	if err != nil {
		return nil, err
	}
	refAttempts := 0
	for _, st := range refStat.Stages {
		refAttempts += len(st.Tasks)
	}

	t := &Table{
		Title:  "§III-C.1: repeatability and cost under reducer failures (BotElim phase)",
		Header: []string{"failure rate", "failed attempts", "retry time", "output identical", "wall time vs clean"},
	}
	t.AddRow("0%", "0", "0s", "-", refWall.Round(time.Millisecond).String())
	for _, rate := range []float64{0.1, 0.3, 0.5} {
		events, stat, wall, err := run(rate, 7)
		if err != nil {
			return nil, err
		}
		failures := 0
		var retry time.Duration
		for _, st := range stat.Stages {
			failures += st.Failures
			retry += st.TotalRetryTime()
		}
		identical := temporal.EventsEqual(events, ref)
		t.AddRow(
			pct(rate),
			fmt.Sprintf("%d (of %d tasks)", failures, refAttempts),
			retry.Round(time.Millisecond).String(),
			fmt.Sprintf("%v", identical),
			fmt.Sprintf("%s (%.2fx)", wall.Round(time.Millisecond), float64(wall)/float64(refWall)),
		)
		if !identical {
			t.AddNote("REPRODUCTION FAILURE at rate %.0f%%: output diverged", rate*100)
		}
	}
	t.AddNote("restart safety comes from the temporal algebra: reducers are pure functions of their input partition")
	return t, nil
}
