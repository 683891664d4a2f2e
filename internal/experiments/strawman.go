package experiments

import (
	"fmt"
	"time"

	"timr/internal/baseline"
	"timr/internal/core"
	"timr/internal/mapreduce"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// Strawman reproduces the §II-C comparison on RunningClickCount
// (Example 1): the SCOPE-style set-oriented self-join (whose intermediate
// result explodes), the hand-written linked-list reducer, and the TiMR
// temporal query — all over the click log of the generated dataset.
func Strawman(c *Context) (*Table, error) {
	data := workload.Generate(c.Opt.Workload)
	window := 6 * temporal.Hour

	// Click log (Time, UserId, AdId), the schema of paper Figure 1(b).
	clickSchema := temporal.NewSchema(
		temporal.Field{Name: "Time", Kind: temporal.KindInt},
		temporal.Field{Name: "UserId", Kind: temporal.KindInt},
		temporal.Field{Name: "AdId", Kind: temporal.KindInt},
	)
	var clicks []temporal.Row
	for _, r := range data.Rows {
		if r[1].AsInt() == workload.StreamClick {
			clicks = append(clicks, temporal.Row{r[0], r[2], r[3]})
		}
	}
	clickDS := mapreduce.SinglePartition(clickSchema, clicks)

	t := &Table{
		Title:  "§II-C strawman comparison: RunningClickCount (6h window)",
		Header: []string{"solution", "status", "intermediate rows", "wall time"},
	}

	// ---- SCOPE self-join ----
	// The baseline scans the dataset through the pull iterator — the same
	// path a spilled click log would stream through.
	cap := 20_000_000
	predicted, err := baseline.ScopeJoinOutputSize(clickDS.Reader(0).Next, window)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	_, ok, err := baseline.ScopeRunningClickCount(clickDS.Reader(0).Next, window, cap)
	if err != nil {
		return nil, err
	}
	scopeTime := time.Since(start)
	status := "completed"
	if !ok {
		status = fmt.Sprintf("ABORTED (join > %d rows)", cap)
	}
	t.AddRow("SCOPE self-join", status, fi(predicted), scopeTime.Round(time.Millisecond).String())

	// ---- Custom linked-list reducer on the cluster ----
	cl := mapreduce.NewCluster(clusterConfig(c.Opt.Machines))
	cl.FS.Write("clicks", clickDS)
	start = time.Now()
	if _, err := cl.Run(baseline.CustomRunningClickCountStage("clicks", "out.custom", window)); err != nil {
		return nil, err
	}
	customTime := time.Since(start)
	t.AddRow("Custom reducer (linked list)", "completed", fi(int64(len(clicks))), customTime.Round(time.Millisecond).String())

	// ---- TiMR temporal query ----
	plan := temporal.Scan("clicks", clickSchema).
		Exchange(temporal.PartitionBy{Cols: []string{"AdId"}}).
		GroupApply([]string{"AdId"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(window).Count("ClickCount")
		})
	cl2 := mapreduce.NewCluster(clusterConfig(c.Opt.Machines))
	tm := core.New(cl2, core.DefaultConfig())
	cl2.FS.Write("clicks", clickDS)
	start = time.Now()
	if _, err := tm.Run(plan, map[string]string{"clicks": "clicks"}, "out.timr"); err != nil {
		return nil, err
	}
	timrTime := time.Since(start)
	t.AddRow("TiMR temporal query", "completed", fi(int64(len(clicks))), timrTime.Round(time.Millisecond).String())

	t.AddNote("clicks in log: %d; the self-join materializes %.1fx the input before grouping", len(clicks), float64(predicted)/float64(len(clicks)))
	t.AddNote("paper: the SCOPE query is intractable at log scale; the custom reducer works but is query-specific code; the TiMR query is 4 lines of LINQ")
	return t, nil
}
