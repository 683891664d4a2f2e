package main

// timr serve: the serving tier. Trains the BT models on the first half
// of a generated workload, then scores an open-loop, Zipf-skewed stream
// of ad events against them through the streaming ScorePlan job on
// -machines hash partitions, reporting p50/p99 scoring latency and
// sustained events/s per partition. -durdir makes the run durable: every wave commits a checkpoint
// generation, and rerunning the same command after a kill -9 resumes
// from the newest intact generation with bit-identical output.

import (
	"flag"
	"fmt"
	"log"
	"os"

	"timr/internal/obs"
	"timr/internal/serve"
	"timr/internal/workload"
)

type serveOpts struct {
	users, keywords, ads int
	requests, machines   int
	rate                 float64
	zipf                 float64
	searchFrac           float64
	seed                 int64
	metrics              bool
	durdir               string
}

func serveFlags(o *serveOpts) *flag.FlagSet {
	if o == nil {
		o = &serveOpts{}
	}
	fs := flag.NewFlagSet("timr serve", flag.ExitOnError)
	fs.IntVar(&o.users, "users", 2000, "user population (training workload and serving load)")
	fs.IntVar(&o.keywords, "keywords", 2000, "keyword vocabulary size")
	fs.IntVar(&o.ads, "ads", 8, "ad classes")
	fs.IntVar(&o.requests, "requests", 20000, "arrivals to serve")
	fs.IntVar(&o.machines, "machines", 4, "partition fan-out of the serving job")
	fs.Float64Var(&o.rate, "rate", 0, "paced arrivals per second (0 = feed as fast as admitted)")
	fs.Float64Var(&o.zipf, "zipf", 1.2, "user skew exponent (> 1)")
	fs.Float64Var(&o.searchFrac, "searchfrac", 0.4, "fraction of arrivals that are profile updates")
	fs.Int64Var(&o.seed, "seed", 1, "workload and load-generator seed")
	fs.BoolVar(&o.metrics, "metrics", false, "print the full metrics table to stderr after the run")
	fs.StringVar(&o.durdir, "durdir", "", "durable checkpoint directory: commit every wave, resume a killed run on restart")
	return fs
}

func serveCmd(args []string) {
	var o serveOpts
	serveFlags(&o).Parse(args)

	scope := obs.New("serve")
	cfg := serve.Config{
		Workload: workload.Config{
			Users: o.users, Keywords: o.keywords, AdClasses: o.ads,
			Days: 2, Seed: o.seed,
		},
		Load: workload.LoadConfig{
			Seed: o.seed, ZipfS: o.zipf, SearchFraction: o.searchFrac,
		},
		Requests: o.requests,
		Machines: o.machines,
		Rate:     o.rate,
		Obs:      scope,
		DurDir:   o.durdir,
	}

	fmt.Fprintf(os.Stderr, "serve: training models (users=%d keywords=%d ads=%d seed=%d)...\n",
		o.users, o.keywords, o.ads, o.seed)
	srv, err := serve.Prepare(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "serve: %d model events lodged; serving %d arrivals", len(srv.Models()), o.requests)
	if o.rate > 0 {
		fmt.Fprintf(os.Stderr, " paced at %.0f/s", o.rate)
	}
	fmt.Fprintln(os.Stderr, "...")

	rep, _, err := srv.Run()
	if err != nil {
		log.Fatal(err)
	}
	if rep.Resumed {
		fmt.Fprintf(os.Stderr, "serve: resumed from durable checkpoints in %s (re-fed %d requests)\n",
			o.durdir, rep.Requests)
	}
	if rep.CommitFailures > 0 {
		fmt.Fprintf(os.Stderr, "serve: warning: %d wave commits failed; the last committed generation remains the recovery line\n", rep.CommitFailures)
	}
	fmt.Println(rep)
	if o.metrics {
		fmt.Fprintf(os.Stderr, "\nmetrics:\n%s", scope.Table())
	}
}
