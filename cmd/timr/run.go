package main

// timr run: one-shot temporal queries on the simulated cluster. With
// -sql, the StreamSQL query runs against the `events` stream (unified
// schema); if it carries no PARTITION BY annotation, the cost-based
// optimizer chooses the partitioning — the full Figure-5 pipeline:
// parse → annotate → fragment → map-reduce.
//
// Input is the TSV produced by adgen (Time, StreamId, UserId, KwAdId);
// with no -in, a default workload is generated in-process. Results are
// written as TSV to stdout with __LE/__RE lifetime columns.

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"timr"
	"timr/internal/bt"
	"timr/internal/core"
	"timr/internal/mapreduce"
	"timr/internal/temporal"
	"timr/internal/tsql"
)

type runOpts struct {
	query, sql, in string
	machines       int
	window         time.Duration
	zThresh        float64
	budget         int64
	metrics        bool
	sweepSpill     bool
}

func runFlags(o *runOpts) *flag.FlagSet {
	if o == nil {
		o = &runOpts{}
	}
	fs := flag.NewFlagSet("timr run", flag.ExitOnError)
	fs.StringVar(&o.query, "q", "clickcount", "query: clickcount | botelim | bt")
	fs.StringVar(&o.sql, "sql", "", "StreamSQL query over the `events` stream (overrides -q)")
	fs.StringVar(&o.in, "in", "", "input events TSV (default: generate a small workload)")
	fs.IntVar(&o.machines, "machines", 16, "simulated cluster size")
	fs.DurationVar(&o.window, "window", 6*time.Hour, "window for clickcount")
	fs.Float64Var(&o.zThresh, "z", 1.28, "z threshold for bt feature selection")
	fs.Int64Var(&o.budget, "budget", 0, "memory budget in bytes per reduce partition (0 = unlimited, -1 = spill everything)")
	fs.BoolVar(&o.metrics, "metrics", false, "print per-stage and per-operator metrics to stderr after the run")
	fs.BoolVar(&o.sweepSpill, "sweep-spill", false, "before running, remove stale timr-spill-* dirs leaked by killed jobs (unsafe if another timr job is live)")
	return fs
}

func runCmd(args []string) {
	var o runOpts
	runFlags(&o).Parse(args)

	if o.sweepSpill {
		removed, err := mapreduce.SweepStaleSpillDirs("")
		if err != nil {
			log.Fatal(err)
		}
		for _, d := range removed {
			fmt.Fprintf(os.Stderr, "swept stale spill dir %s\n", d)
		}
	}

	rows, err := inputRows(o.in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "loaded %d events\n", len(rows))

	cluster := timr.NewCluster(timr.ClusterConfig{Machines: o.machines, MemoryBudget: o.budget})
	defer cluster.Close()
	cluster.FS.Write("events", timr.SinglePartition(timr.UnifiedSchema(), rows))
	cfg := timr.DefaultTiMRConfig()
	var mroot *timr.MetricScope
	if o.metrics {
		mroot = timr.NewMetricScope("timr")
		cluster.Obs = mroot.Child("cluster")
		cfg.Obs = mroot.Child("engine")
	}
	defer dumpMetrics(mroot)
	t := timr.New(cluster, cfg)

	if o.sql != "" {
		plan, err := tsql.Compile(o.sql, tsql.Catalog{"events": timr.UnifiedSchema()})
		if err != nil {
			log.Fatal(err)
		}
		annotated := false
		plan.Walk(func(n *temporal.Plan) {
			if n.Kind == temporal.OpExchange {
				annotated = true
			}
		})
		if !annotated {
			stats := core.DefaultStats()
			stats.SourceRows["events"] = int64(len(rows))
			stats.Machines = int64(o.machines)
			opt, cost, err := core.NewOptimizer(stats).Optimize(plan)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "optimizer annotated the plan (estimated cost %.3g):\n%s", cost, opt)
			plan = opt
		}
		run(t, plan, "out")
		return
	}

	switch o.query {
	case "clickcount":
		w := timr.Time(o.window.Milliseconds())
		plan := timr.Scan("events", timr.UnifiedSchema()).
			Exchange(timr.PartitionBy{Cols: []string{"KwAdId"}}).
			Where(timr.ColEqInt("StreamId", timr.StreamClick)).
			GroupApply([]string{"KwAdId"}, func(g *timr.Plan) *timr.Plan {
				return g.WithWindow(w).Count("ClickCount")
			})
		run(t, plan, "out")
	case "botelim":
		plan := timr.BotElimPlan(timr.DefaultBTParams(), true)
		run(t, plan, "out")
	case "bt":
		p := timr.DefaultBTParams()
		p.ZThreshold = o.zThresh
		if p.TrainPeriod, err = btTrainPeriod(rows); err != nil {
			log.Fatal(err)
		}
		pipe := timr.NewBTPipeline(p, t)
		start := time.Now()
		if err := pipe.Run("events"); err != nil {
			log.Fatal(err)
		}
		for _, ph := range pipe.Phases {
			fmt.Fprintf(os.Stderr, "%-14s -> %-12s %8d rows  %v",
				ph.Name, ph.Output, ph.Rows, ph.Duration.Round(time.Millisecond))
			if ph.SpillSegments > 0 {
				fmt.Fprintf(os.Stderr, "  (spilled %d segs, %d KB)",
					ph.SpillSegments, ph.SpillBytes>>10)
			}
			fmt.Fprintln(os.Stderr)
		}
		fmt.Fprintf(os.Stderr, "end-to-end: %v\n", time.Since(start).Round(time.Millisecond))
		emit(t, bt.DSScores)
	default:
		log.Fatalf("unknown query %q", o.query)
	}
}

// dumpMetrics prints the -metrics snapshot table; no-op when the flag is
// off (nil scope). Deferred from runCmd so every query path reports.
func dumpMetrics(root *timr.MetricScope) {
	if root == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "\nmetrics:\n%s", root.Table())
}

func run(t *timr.TiMR, plan *timr.Plan, out string) {
	start := time.Now()
	stat, err := t.Run(plan, map[string]string{"events": "events"}, out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%d stage(s) in %v\n", len(stat.Stages), time.Since(start).Round(time.Millisecond))
	emit(t, out)
}

func emit(t *timr.TiMR, dataset string) {
	events, err := t.ResultEvents(dataset)
	if err != nil {
		log.Fatal(err)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, e := range events {
		fmt.Fprintf(w, "%d\t%d", e.LE, e.RE)
		for _, v := range e.Payload {
			fmt.Fprintf(w, "\t%s", v.String())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(os.Stderr, "%d result events\n", len(events))
}

// inputRows reads the -in file, or generates the default workload when
// there is none.
func inputRows(path string) ([]timr.Row, error) {
	if path == "" {
		cfg := timr.DefaultWorkloadConfig()
		cfg.Users, cfg.Days = 800, 2
		return timr.GenerateWorkload(cfg).Rows, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return loadRows(f)
}

// loadRows parses adgen's TSV: an optional header line starting "Time",
// then rows of four integers (Time, StreamId, UserId, KwAdId), in any
// Time order.
func loadRows(in io.Reader) ([]timr.Row, error) {
	var rows []timr.Row
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	first := true
	for sc.Scan() {
		line := sc.Text()
		if first {
			first = false
			if strings.HasPrefix(line, "Time") {
				continue // header
			}
		}
		parts := strings.Split(line, "\t")
		if len(parts) != 4 {
			return nil, fmt.Errorf("bad line %q", line)
		}
		row := make(timr.Row, 4)
		for i, p := range parts {
			v, err := strconv.ParseInt(p, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q: %w", p, err)
			}
			row[i] = timr.Int(v)
		}
		rows = append(rows, row)
	}
	return rows, sc.Err()
}

// btTrainPeriod is the bt query's training period: half the input's
// horizon, its largest Time plus one. An input whose horizon gives no
// period of at least one tick is refused.
func btTrainPeriod(rows []timr.Row) (timr.Time, error) {
	if len(rows) == 0 {
		return 0, errors.New("-q bt: the input holds no events")
	}
	last := rows[0][0].AsInt()
	for _, r := range rows[1:] {
		last = max(last, r[0].AsInt())
	}
	if last < 1 {
		return 0, fmt.Errorf("-q bt: the input's largest Time is %d; a training period needs one of at least 1", last)
	}
	return last/2 + last%2, nil // (last+1)/2, without overflow at MaxInt64
}
