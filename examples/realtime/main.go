// Command realtime demonstrates the paper's central "write once, run
// offline and online" property (§III-C.1): the SAME bot-elimination plan
// that TiMR scales over map-reduce (examples/btpipeline) is deployed here
// as a continuous query over a live event feed, detecting bots and
// emitting clean events as they happen.
//
// The engine is driven incrementally — one event at a time, with
// punctuations advancing application time — exactly as a DSMS deployment
// would be. Because results are defined purely over application time, the
// output matches the offline run bit for bit.
package main

import (
	"fmt"
	"log"
	"os"

	"timr"
	"timr/internal/bt"
)

func main() {
	cfg := timr.DefaultWorkloadConfig()
	cfg.Users, cfg.Days, cfg.AdClasses = 300, 1, 3
	cfg.BotFraction = 0.01
	data := timr.GenerateWorkload(cfg)

	p := timr.DefaultBTParams()
	p.T1, p.T2 = 50, 120 // small thresholds for the small feed

	plan := timr.BotElimPlan(p, false)

	// ---- Live deployment: stream events into the engine as they "arrive".
	var (
		kept    int
		dropped int
		outPer  = map[int64]int{}
		inPer   = map[int64]int{}
	)
	out := &timr.FuncSink{Event: func(e timr.Event) {
		kept++
		outPer[e.Payload[2].AsInt()]++
	}}
	// Punctuate every 15 min of app time.
	eng, err := timr.NewEngine(plan, timr.WithSink(out), timr.WithCTIPeriod(15*timr.Minute))
	if err != nil {
		log.Fatal(err)
	}

	total := 0
	for _, row := range data.Rows {
		total++
		inPer[row[2].AsInt()]++
		eng.Feed(bt.SourceEvents, timr.PointEvent(row[0].AsInt(), row))
	}
	eng.Flush()
	dropped = total - kept

	fmt.Printf("live feed: %d events in, %d passed, %d dropped as bot activity (%.1f%%)\n",
		total, kept, dropped, 100*float64(dropped)/float64(total))

	// Ground truth: bots should have most of their activity suppressed,
	// humans none.
	botsCaught, humansSuppressed := 0, 0
	var botDropped, botTotal int
	for u, n := range inPer {
		suppressed := n - outPer[u]
		if data.Bots[u] {
			botTotal += n
			botDropped += suppressed
			if suppressed > 0 {
				botsCaught++
			}
		} else if suppressed > 0 {
			humansSuppressed++
		}
	}
	fmt.Printf("ground truth: %d/%d bots had activity suppressed (%.0f%% of their events dropped); %d humans affected\n",
		botsCaught, len(data.Bots), 100*float64(botDropped)/float64(botTotal), humansSuppressed)

	// ---- The identical plan over the identical data, batch/offline.
	batch, err := timr.RunPlan(plan, map[string][]timr.Event{
		bt.SourceEvents: data.Events(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noffline batch run of the same plan: %d events passed\n", len(batch))
	agree := len(batch) == kept
	if agree {
		fmt.Println("real-time and offline results agree — the temporal algebra at work (§III-C.1)")
	} else {
		fmt.Printf("MISMATCH: live=%d batch=%d\n", kept, len(batch))
	}

	// ---- Scaled live deployment (§VII): the ANNOTATED plan as a
	// pipelined dataflow over 8 partitions, fed the same way.
	annotated := timr.BotElimPlan(p, true)
	job, err := timr.NewStreamingJob(annotated,
		map[string]*timr.Schema{bt.SourceEvents: timr.UnifiedSchema()},
		timr.WithMachines(8),
		timr.WithStreamConfig(timr.DefaultTiMRConfig()))
	if err != nil {
		log.Fatal(err)
	}
	feed, err := job.Source(bt.SourceEvents)
	if err != nil {
		log.Fatal(err)
	}
	lastCTI := timr.Time(0)
	for _, row := range data.Rows {
		ts := row[0].AsInt()
		if ts-lastCTI >= 15*timr.Minute {
			if err := job.Advance(ts); err != nil {
				log.Fatal(err)
			}
			lastCTI = ts
		}
		if err := feed.Feed(timr.PointEvent(ts, row)); err != nil {
			log.Fatal(err)
		}
	}
	job.Flush()
	streamRes, err := job.Results()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npipelined 8-partition dataflow of the same plan: %d events passed\n", len(streamRes))
	if len(streamRes) == kept {
		fmt.Println("distributed streaming execution matches too — write once, run anywhere (§VII)")
	} else {
		fmt.Printf("MISMATCH: streaming=%d single=%d\n", len(streamRes), kept)
		agree = false
	}
	if !agree {
		os.Exit(1)
	}
}
