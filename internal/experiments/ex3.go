package experiments

import (
	"time"

	"timr/internal/bt"
	"timr/internal/core"
	"timr/internal/mapreduce"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// Example3 reproduces paper Example 3 / the §V-B "Fragment Optimization"
// result: GenTrainData annotated as a single fragment partitioned by
// {UserId} vs the naive plan that partitions UBP generation by
// {UserId, Keyword} and repartitions to {UserId} for the join. The paper
// measured 1.35h vs 3.06h — a 2.27× speedup — and the cost-based
// optimizer picks the single-fragment plan.
func Example3(c *Context) (*Table, error) {
	data := workload.Generate(c.Opt.Workload)
	p := c.Opt.Params

	// Prepare the phase inputs (clean + labeled) once.
	cl := mapreduce.NewCluster(clusterConfig(c.Opt.Machines))
	tm := core.New(cl, core.DefaultConfig())
	cl.FS.Write("events", mapreduce.SinglePartition(workload.UnifiedSchema(), data.Rows))
	if _, err := tm.Run(bt.BotElimPlan(p, true), map[string]string{bt.SourceEvents: "events"}, bt.DSClean); err != nil {
		return nil, err
	}
	if _, err := tm.Run(bt.LabelPlan(p, true), map[string]string{bt.SourceClean: bt.DSClean}, bt.DSLabeled); err != nil {
		return nil, err
	}
	sources := map[string]string{bt.SourceLabeled: bt.DSLabeled, bt.SourceClean: bt.DSClean}

	run := func(plan *temporal.Plan, out string) (time.Duration, int, int, error) {
		stat, err := tm.Run(plan, sources, out)
		if err != nil {
			return 0, 0, 0, err
		}
		shuffle := 0
		for _, st := range stat.Stages {
			shuffle += st.ShuffleRows
		}
		return stat.Makespan(c.Opt.Machines, cl.Cfg.ShufflePerRow), len(stat.Stages), shuffle, nil
	}

	goodSpan, goodStages, goodShuffle, err := run(bt.TrainDataPlan(p, true), "ex3.good")
	if err != nil {
		return nil, err
	}
	naiveSpan, naiveStages, naiveShuffle, err := run(bt.NaiveTrainDataPlan(p), "ex3.naive")
	if err != nil {
		return nil, err
	}

	// The optimizer must reach the same conclusion from the cost model.
	stats := core.DefaultStats()
	for _, src := range []struct{ source, ds string }{{bt.SourceClean, bt.DSClean}, {bt.SourceLabeled, bt.DSLabeled}} {
		d, err := cl.FS.Read(src.ds)
		if err != nil {
			return nil, err
		}
		stats.SourceRows[src.source] = int64(d.Rows())
	}
	stats.Distinct["UserId"] = int64(c.Opt.Workload.Users)
	stats.Distinct["KwAdId"] = int64(c.Opt.Workload.Keywords)
	stats.Machines = int64(c.Opt.Machines)
	opt := core.NewOptimizer(stats)
	optimized, optCost, err := opt.Optimize(bt.TrainDataPlan(p, false))
	if err != nil {
		return nil, err
	}
	naiveCost := core.NewOptimizer(stats).EstimateCost(bt.NaiveTrainDataPlan(p))
	optKeys := 0
	optimized.Walk(func(n *temporal.Plan) {
		if n.Kind == temporal.OpExchange {
			optKeys++
		}
	})

	t := &Table{
		Title:  "Example 3 / §V-B: fragment optimization on GenTrainData",
		Header: []string{"annotated plan", "M-R stages", "shuffled rows", "makespan"},
	}
	t.AddRow("naive {UserId,Keyword} then {UserId}", fi(int64(naiveStages)), fi(int64(naiveShuffle)), naiveSpan.Round(time.Microsecond).String())
	t.AddRow("optimized single fragment {UserId}", fi(int64(goodStages)), fi(int64(goodShuffle)), goodSpan.Round(time.Microsecond).String())
	t.AddNote("paper: 1.35h vs 3.06h — 2.27x; measured speedup: %.2fx", float64(naiveSpan)/float64(goodSpan))
	t.AddNote("cost-based optimizer picks the single-fragment plan (%d source exchanges; estimated cost %.3g vs naive %.3g)", optKeys, optCost, naiveCost)
	return t, nil
}
