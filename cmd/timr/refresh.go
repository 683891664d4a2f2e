package main

// timr refresh: the incremental BT maintenance loop. Ingests a synthetic
// log one day at a time on the delta path, maintaining the pipeline's
// back stages from mergeable summaries (click counts merge, z-tests
// replay exactly, frozen-window models are trained once). -mode full
// recomputes every day from the whole retained log instead: the
// reference the delta path is byte-identical to. With -durdir every
// ingested day commits one durable generation; rerunning the same
// command resumes from the newest intact one — the persisted state
// carries the workload config, so the resumed process regenerates the
// identical log and continues where the dead one stopped. A full
// refresh cannot resume: the raw history it recomputes from is not
// persisted.

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"timr/internal/bt"
	"timr/internal/dur"
	"timr/internal/obs"
	"timr/internal/temporal"
	"timr/internal/workload"
)

type refreshOpts struct {
	users, keywords, ads int
	days                 int
	seed                 int64
	mode                 string
	durdir               string
	metrics              bool
}

func refreshFlags(o *refreshOpts) *flag.FlagSet {
	if o == nil {
		o = &refreshOpts{}
	}
	fs := flag.NewFlagSet("timr refresh", flag.ExitOnError)
	fs.IntVar(&o.users, "users", 2000, "user population of the generated log")
	fs.IntVar(&o.keywords, "keywords", 2000, "keyword vocabulary size")
	fs.IntVar(&o.ads, "ads", 8, "ad classes")
	fs.IntVar(&o.days, "days", 7, "days of log to ingest, one per generation")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.StringVar(&o.mode, "mode", "delta", "refresh path: delta, or full (recompute from the whole log held in memory; the delta path's reference)")
	fs.StringVar(&o.durdir, "durdir", "", "durable state directory: commit one generation per day, resume on restart")
	fs.BoolVar(&o.metrics, "metrics", false, "print the durable-store metrics table to stderr after the run")
	return fs
}

func refreshCmd(args []string) {
	var o refreshOpts
	refreshFlags(&o).Parse(args)

	var opts bt.RefreshOptions
	switch o.mode {
	case "delta":
	case "full":
		opts = bt.RefreshOptions{Mode: bt.ModeFull, RetainHistory: true}
	default:
		log.Fatalf("refresh: unknown -mode %q (want delta or full)", o.mode)
	}

	w := workload.Config{Users: o.users, Keywords: o.keywords, AdClasses: o.ads, Days: o.days, Seed: o.seed}
	p := bt.DefaultParams()
	p.TrainPeriod = temporal.Day

	scope := obs.New("refresh")
	if o.durdir != "" {
		store, err := dur.OpenStore(o.durdir, dur.Options{Obs: scope.Child("dur")})
		if err != nil {
			log.Fatal(err)
		}
		opts.Store = store
	}

	r := bt.NewRefresher(p, w, opts)
	if opts.Store != nil {
		resumed, err := r.Restore()
		if err != nil {
			log.Fatal(err)
		}
		if resumed {
			// The persisted state knows the workload it was built from;
			// command-line workload flags are superseded on resume.
			w = r.State.Cfg
			if o.days > w.Days {
				w.Days = o.days
			}
			fmt.Fprintf(os.Stderr, "refresh: resumed from %s at day %d (watermark %d)\n",
				o.durdir, r.State.Days, r.State.Watermark)
		}
	}
	if r.State.Days >= o.days {
		fmt.Fprintf(os.Stderr, "refresh: state already covers %d days; raise -days to continue\n", r.State.Days)
		return
	}

	fmt.Fprintf(os.Stderr, "refresh: generating %d-day log (users=%d keywords=%d ads=%d seed=%d)...\n",
		w.Days, w.Users, w.Keywords, w.AdClasses, w.Seed)
	data := workload.Generate(w)

	for day := r.State.Days; day < o.days; day++ {
		rows := data.DayRows(day)
		start := time.Now()
		if err := r.IngestDay(rows, temporal.Time(day+1)*temporal.Day); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("refresh: day=%d rows=%d path=%s duration=%s models=%d\n",
			day, len(rows), o.mode, time.Since(start).Round(time.Millisecond), len(r.State.Models))
		if r.DurErr != nil {
			fmt.Fprintf(os.Stderr, "refresh: warning: day %d commit failed (%v); previous generation remains the recovery line\n", day, r.DurErr)
		}
	}

	frozen := 0
	for _, m := range r.State.Models {
		if m.Frozen {
			frozen++
		}
	}
	sum, err := r.State.SummaryBytes()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("refresh: days=%d watermark=%d train_rows=%d models=%d frozen=%d state_bytes=%d\n",
		r.State.Days, r.State.Watermark, len(r.State.Train), len(r.State.Models), frozen, len(sum))
	if o.metrics {
		fmt.Fprintf(os.Stderr, "\nmetrics:\n%s", scope.Table())
	}
}
