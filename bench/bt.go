package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"timr/internal/baseline"
	"timr/internal/bt"
	"timr/internal/core"
	"timr/internal/mapreduce"
	"timr/internal/obs"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// timrStages is how far bt_batch and bt_spill go: BotElim…Model. The
// seventh stage, Score, crashes under concurrent reducers (README
// "Known crash"), and stopping at Model is also like-for-like with the
// six-stage custom job.
const timrStages = 6

const eventsDataset = "events"

// btInput is the shared input of the three batch workloads.
type btInput struct {
	data   *workload.Dataset
	events []temporal.Event // point events of data.Rows, for the single-node runs
	params bt.Params
	custom baseline.CustomParams
}

func btWorkloadConfig(sz sizes, seed int64) workload.Config {
	return workload.Config{
		Users: sz.BTUsers, Keywords: sz.BTKeywords, AdClasses: 8, Days: sz.BTDays, Seed: seed,
		BotFraction: 0.005, BaseCTR: 0.18, NegDamp: 0.5, PosLift: 3,
	}
}

// btSetup generates the log (timed as set-up) and derives the pipeline
// parameters both implementations share.
func btSetup(c *child) (*btInput, error) {
	in := &btInput{params: bt.DefaultParams()}
	in.params.TrainPeriod = temporal.Day
	p := in.params
	in.custom = baseline.CustomParams{
		T1: p.T1, T2: p.T2, BotHop: p.BotHop, Tau: p.Tau, D: p.D,
		TrainPeriod: p.TrainPeriod, ZThreshold: p.ZThreshold, ModelEpochs: p.ModelEpochs,
	}
	err := c.setup(func() error {
		in.data = generate(c, btWorkloadConfig(c.job.Sizes, c.job.Seed))
		in.events = in.data.Events()
		return nil
	})
	return in, err
}

// generate wraps workload.Generate in a span and samples its wall.
func generate(c *child, cfg workload.Config) *workload.Dataset {
	end := c.tr.begin("workload.Generate")
	start := time.Now()
	d := workload.Generate(cfg)
	c.sample("workload.generate_s", time.Since(start).Seconds())
	end(map[string]any{"rows": len(d.Rows)})
	return d
}

// timrRun is one pass of the six stages through core.TiMR.
type timrRun struct {
	wall    time.Duration // the six TiMR.Run calls, input to complete result
	digests [timrStages][sha256.Size]byte
	rows    [timrStages][]temporal.Row // kept only when asked for
}

// timrPass says what a pass of runTiMR is for.
type timrPass struct {
	sample   bool       // a timed repetition: its stats are samples of the per-layer metrics
	keepRows bool       // a verification pass: keep the output rows
	scope    *obs.Scope // a counts-only pass: attach obs (switches engines to the unfused observed mode)
}

// runTiMR runs BotElim…Model as six TiMR jobs on a fresh cluster and
// reads every output back. Each stage run is one operation.
func runTiMR(c *child, tr *tracer, in *btInput, cfg mapreduce.Config, pass timrPass) (*timrRun, error) {
	cl := mapreduce.NewCluster(cfg)
	defer cl.Close()
	coreCfg := core.DefaultConfig()
	coreCfg.Obs = pass.scope
	cl.Obs = pass.scope
	tm := core.New(cl, coreCfg)
	cl.FS.Write(eventsDataset, mapreduce.SinglePartition(workload.UnifiedSchema(), in.data.Rows))

	run := &timrRun{}
	stages := bt.Stages(false)[:timrStages]
	var agg mapreduce.StageStat
	var mapCPU, reduceCPU time.Duration
	var skew float64
	for i, st := range stages {
		sources := make(map[string]string, len(st.Inputs))
		for src, ds := range st.Inputs {
			if ds == bt.DSEvents {
				ds = eventsDataset
			}
			sources[src] = ds
		}
		end := tr.begin("core.TiMR.Run:" + st.Name)
		start := time.Now()
		stat, err := tm.Run(st.Plan(in.params, true), sources, st.Output)
		wall := time.Since(start)
		if err != nil {
			end(nil)
			c.ops(1, 1)
			return nil, fmt.Errorf("TiMR stage %s: %w", st.Name, err)
		}
		c.ops(1, 0)
		run.wall += wall
		var shuffled int
		for j := range stat.Stages {
			s := &stat.Stages[j]
			agg.WallTime += s.WallTime
			agg.ShuffleRows += s.ShuffleRows
			agg.ShuffleBytes += s.ShuffleBytes
			agg.SpillSegments += s.SpillSegments
			agg.SpillBytes += s.SpillBytes
			agg.SpillReadBytes += s.SpillReadBytes
			agg.SpillReadNs += s.SpillReadNs
			mapCPU += s.TotalMapTime()
			reduceCPU += s.TotalTaskTime()
			if k := s.RowSkew(); k > skew {
				skew = k
			}
			shuffled += s.ShuffleRows
		}
		end(map[string]any{"mr_stages": len(stat.Stages), "shuffle_rows": shuffled})
		if pass.sample {
			c.sample("core.stage_s."+btStageKeys[i], wall.Seconds())
		}
	}

	end := tr.begin("mapreduce.Dataset.ReadAll")
	start := time.Now()
	var outRows int
	for i, st := range stages {
		ds, err := cl.FS.Read(st.Output)
		if err != nil {
			end(nil)
			return nil, err
		}
		rows, err := ds.ReadAll()
		if err != nil {
			end(nil)
			return nil, fmt.Errorf("read %s: %w", st.Output, err)
		}
		outRows += len(rows)
		run.digests[i] = digestRows(rows)
		if pass.keepRows {
			run.rows[i] = rows
		}
	}
	readS := time.Since(start).Seconds()
	end(map[string]any{"rows": outRows})

	if !pass.sample {
		return run, nil
	}
	workers := cfg.Machines
	if n := runtime.GOMAXPROCS(0); workers > n {
		workers = n
	}
	c.sample("core.result_read_s", readS)
	c.sample("core.plan_overhead_s", (run.wall - agg.WallTime).Seconds())
	c.sample("mapreduce.map_cpu_s", mapCPU.Seconds())
	c.sample("mapreduce.reduce_cpu_s", reduceCPU.Seconds())
	c.sample("mapreduce.stage_wall_s", agg.WallTime.Seconds())
	c.sample("mapreduce.pool_util", (mapCPU+reduceCPU).Seconds()/(float64(workers)*agg.WallTime.Seconds()))
	c.sample("mapreduce.shuffle_rows", float64(agg.ShuffleRows))
	c.sample("mapreduce.shuffle_bytes", float64(agg.ShuffleBytes))
	c.sample("mapreduce.row_skew_max", skew)
	c.sample("mapreduce.spill_bytes", float64(agg.SpillBytes))
	c.sample("mapreduce.spill_segments", float64(agg.SpillSegments))
	c.sample("mapreduce.spill_read_bytes", float64(agg.SpillReadBytes))
	c.sample("mapreduce.spill_read_s", float64(agg.SpillReadNs)/1e9)
	return run, nil
}

// digest hashes the codec encoding of items in order, so equal digests
// mean byte-for-byte equal outputs.
func digest[T any](items []T, encode func(*temporal.Encoder, T)) [sha256.Size]byte {
	var enc temporal.Encoder
	h := sha256.New()
	for _, it := range items {
		enc.Reset()
		encode(&enc, it)
		h.Write(enc.Bytes())
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

func digestRows(rows []temporal.Row) [sha256.Size]byte {
	return digest(rows, (*temporal.Encoder).Row)
}

func digestEvents(evs []temporal.Event) [sha256.Size]byte {
	return digest(evs, (*temporal.Encoder).Event)
}

// sameAsFirst keeps the first repetition's pass and holds every later
// one to its digests.
func sameAsFirst(c *child, first **timrRun, run *timrRun) {
	if *first == nil {
		*first = run
		return
	}
	sameDigests(c, "repetition", *first, run)
}

// sameDigests reports the first stage at which two passes over the same
// input differ.
func sameDigests(c *child, what string, a, b *timrRun) {
	for i := range a.digests {
		if a.digests[i] != b.digests[i] {
			c.problem("%s: output of stage %s differs", what, btStageKeys[i])
			return
		}
	}
}

// runSingle runs stages one by one on one embedded engine; every stage
// is one operation and its wall one sample.
func runSingle(c *child, tr *tracer, in *btInput, stages []bt.StageSpec, sampleStages bool) (map[string][]temporal.Event, time.Duration, error) {
	datasets := map[string][]temporal.Event{bt.DSEvents: in.events}
	var total time.Duration
	for i, st := range stages {
		end := tr.begin("temporal.RunPlan:" + st.Name)
		start := time.Now()
		err := bt.RunStagesSingleNode(in.params, stages[i:i+1], datasets)
		wall := time.Since(start)
		end(map[string]any{"events_out": len(datasets[st.Output])})
		if err != nil {
			c.ops(1, 1)
			return nil, 0, err
		}
		c.ops(1, 0)
		total += wall
		if sampleStages {
			c.sample("temporal.stage_s."+btStageKeys[i], wall.Seconds())
			c.sample("temporal.stage_out."+btStageKeys[i], float64(len(datasets[st.Output])))
		}
	}
	return datasets, total, nil
}

// modelStage is the one stage whose output is not a function of its
// input as a set: the LR UDO trains on the window's impressions in the
// order the engine hands them over, and that order is not defined among
// impressions that share a timestamp (README "Known order dependence").
const modelStage = "Model"

// verifySingleVsTiMR checks that the six shared stages agree between the
// single-node engine (digests of its coalesced outputs) and TiMR, whose
// rows are coalesced the same way first. Model events go through
// compareModels instead; blobs that differ are counted in a warning.
func verifySingleVsTiMR(c *child, single [][sha256.Size]byte, singleModels []temporal.Event, timr *timrRun) {
	for i, st := range bt.Stages(false)[:timrStages] {
		got := temporal.Coalesce(core.RowsToEvents(timr.rows[i]))
		if st.Name != modelStage {
			if digestEvents(got) != single[i] {
				c.problem("stage %s: TiMR output (%d coalesced events) differs from the single-node engine's", st.Name, len(got))
			}
			continue
		}
		differ, err := compareModels(got, singleModels)
		if err != nil {
			c.problem("stage %s: TiMR against the single-node engine: %v", st.Name, err)
		} else if differ > 0 {
			c.rec.Warnings = append(c.rec.Warnings, fmt.Sprintf("%d of %d models differ between TiMR and the single-node engine: this seed has simultaneous impressions of one ad, and training depends on their order", differ, len(got)))
		}
	}
}

// compareModels holds two coalesced Model outputs (payload AdId, Model)
// to the same windows and ads, each with a model that parses, and
// counts the blobs that differ.
func compareModels(got, want []temporal.Event) (differ int, err error) {
	if len(got) != len(want) {
		return 0, fmt.Errorf("%d models against %d", len(got), len(want))
	}
	for i, m := range got {
		ref := want[i]
		if m.LE != ref.LE || m.RE != ref.RE || !m.Payload[0].Equal(ref.Payload[0]) {
			return 0, fmt.Errorf("model %d is for ad %v over [%d,%d), expected ad %v over [%d,%d)",
				i, m.Payload[0], m.LE, m.RE, ref.Payload[0], ref.LE, ref.RE)
		}
		blob := m.Payload[1].AsString()
		if _, err := bt.ParseModel(blob); err != nil {
			return 0, fmt.Errorf("model %d: %w", i, err)
		}
		if blob != ref.Payload[1].AsString() {
			differ++
		}
	}
	return differ, nil
}

// modelEvents picks the Model stage's output out of a single-node run.
func modelEvents(stages []bt.StageSpec, out map[string][]temporal.Event) []temporal.Event {
	for _, st := range stages {
		if st.Name == modelStage {
			return out[st.Output]
		}
	}
	return nil
}

func digestStages(stages []bt.StageSpec, out map[string][]temporal.Event) [][sha256.Size]byte {
	digests := make([][sha256.Size]byte, len(stages))
	for i, st := range stages {
		digests[i] = digestEvents(out[st.Output])
	}
	return digests
}

// batchExtras are the passes only a traced run makes: the obs counters
// (from a counts-only pass whose timings are discarded) and the
// shuffle-only pair that isolates the map side.
func batchExtras(c *child, in *btInput, cfg mapreduce.Config) error {
	scope := obs.New("bench")
	var err error
	_, serr := c.section(c.tr, "counts_pass", func() error {
		_, err = runTiMR(c, c.tr, in, cfg, timrPass{scope: scope})
		return err
	})
	if serr != nil {
		return serr
	}
	counters := map[string]float64{}
	for _, p := range scope.Snapshot() {
		if p.Kind == obs.KindCounter {
			counters[p.Name] += float64(p.Value)
		}
	}
	c.set("core.columnar_feeds", counters["columnar_feeds"])
	c.set("core.merge_fallback_sorts", counters["merge_fallback_sorts"])

	serial := cfg
	serial.MapWorkers = 1
	for _, v := range []struct {
		metric string
		cfg    mapreduce.Config
	}{
		{"mapreduce.shuffle_only_rows_per_s", cfg},
		{"mapreduce.shuffle_only_serial_rows_per_s", serial},
	} {
		for i := 0; i < 3; i++ {
			wall, err := shuffleOnly(c, in, v.cfg)
			if err != nil {
				return err
			}
			c.sample(v.metric, float64(len(in.data.Rows))/wall.Seconds())
		}
	}
	return nil
}

// shuffleOnly runs one identity-reducer stage over the raw events
// partitioned by UserId: all map and shuffle, no operator work.
func shuffleOnly(c *child, in *btInput, cfg mapreduce.Config) (time.Duration, error) {
	cl := mapreduce.NewCluster(cfg)
	defer cl.Close()
	cl.FS.Write(eventsDataset, mapreduce.SinglePartition(workload.UnifiedSchema(), in.data.Rows))
	stage := mapreduce.Stage{
		Name: "shuffle-only", Inputs: []string{eventsDataset}, Output: "shuffled",
		OutSchema: workload.UnifiedSchema(), PartitionCols: [][]int{{2}},
		Reduce: func(part int, rows [][]mapreduce.Row, emit func(mapreduce.Row)) error {
			for _, r := range rows[0] {
				emit(r)
			}
			return nil
		},
	}
	var stat *mapreduce.JobStat
	return c.section(c.tr, "mapreduce.Cluster.Run:shuffle-only", func() error {
		var err error
		stat, err = cl.Run(stage)
		if err == nil && stat.Stages[0].OutputRows != len(in.data.Rows) {
			err = fmt.Errorf("shuffle-only emitted %d of %d rows", stat.Stages[0].OutputRows, len(in.data.Rows))
		}
		return err
	})
}

// setBatchHeadline reports the two end-to-end numbers every batch
// workload shares: throughput over the median job wall, and that wall.
func setBatchHeadline(c *child, events int) {
	cal, raw := c.clockMedian("job")
	c.setClocked("events_per_s", float64(events)/cal, float64(events)/raw)
	c.setClocked("result_ms", cal*1e3, raw*1e3)
}

func runBTBatch(c *child) error {
	in, err := btSetup(c)
	if err != nil {
		return err
	}
	cfg := mapreduce.Config{Machines: 8}
	events := len(in.data.Rows)

	var first *timrRun
	var ratios []float64
	err = c.timed(func(tr *tracer) (time.Duration, error) {
		return c.section(tr, "bt_batch", func() error {
			run, err := runTiMR(c, tr, in, cfg, timrPass{sample: true})
			if err != nil {
				return err
			}
			sameAsFirst(c, &first, run)

			cl := mapreduce.NewCluster(cfg)
			cl.FS.Write(eventsDataset, mapreduce.SinglePartition(workload.UnifiedSchema(), in.data.Rows))
			end := tr.begin("baseline.CustomBTJob")
			start := time.Now()
			_, err = baseline.CustomBTJob(cl, eventsDataset, in.custom)
			custom := time.Since(start)
			end(nil)
			if err != nil {
				c.ops(1, 1)
				return fmt.Errorf("custom job: %w", err)
			}
			c.ops(1, 0)
			c.items += 2 * int64(events)

			c.clock("job", run.wall)
			ratios = append(ratios, run.wall.Seconds()/custom.Seconds())
			c.sample("baseline.custom_wall_s", custom.Seconds())
			return nil
		})
	})
	if err != nil {
		return err
	}
	setBatchHeadline(c, events)
	c.set("baseline.custom_ratio", median(ratios))

	// Verification: one more pass whose rows are kept, equal to the timed
	// passes byte for byte and to the single-node engine as event sets.
	check, err := runTiMR(c, nil, in, cfg, timrPass{keepRows: true})
	if err != nil {
		return err
	}
	sameDigests(c, "verification pass", first, check)
	shared := bt.Stages(false)[:timrStages]
	single, _, err := runSingle(c, nil, in, shared, false)
	if err != nil {
		return err
	}
	verifySingleVsTiMR(c, digestStages(shared, single), modelEvents(shared, single), check)

	if c.tr != nil {
		return batchExtras(c, in, cfg)
	}
	return nil
}

func runBTSpill(c *child) error {
	in, err := btSetup(c)
	if err != nil {
		return err
	}
	cfg := mapreduce.Config{
		Machines: 8, MemoryBudget: c.job.Sizes.SpillBudget,
		SpillDir: c.job.TmpDir,
	}
	events := len(in.data.Rows)

	var first *timrRun
	err = c.timed(func(tr *tracer) (time.Duration, error) {
		return c.section(tr, "bt_spill", func() error {
			run, err := runTiMR(c, tr, in, cfg, timrPass{sample: true})
			if err != nil {
				return err
			}
			sameAsFirst(c, &first, run)
			c.items += int64(events)
			c.clock("job", run.wall)
			return nil
		})
	})
	if err != nil {
		return err
	}
	setBatchHeadline(c, events)
	if xs := c.samples["mapreduce.spill_bytes"]; median(xs) == 0 {
		c.problem("bt_spill wrote no spill segments under a budget of %d bytes", cfg.MemoryBudget)
	}

	// Verification: the all-resident run must produce the same bytes.
	resident, err := runTiMR(c, nil, in, mapreduce.Config{Machines: 8}, timrPass{})
	if err != nil {
		return err
	}
	sameDigests(c, "resident run", resident, first)

	if c.tr != nil {
		return batchExtras(c, in, cfg)
	}
	return nil
}

func runBTSingle(c *child) error {
	in, err := btSetup(c)
	if err != nil {
		return err
	}
	stages := bt.Stages(false)
	events := len(in.data.Rows)

	var first [][sha256.Size]byte
	var firstModels []temporal.Event
	err = c.timed(func(tr *tracer) (time.Duration, error) {
		return c.section(tr, "bt_single", func() error {
			out, wall, err := runSingle(c, tr, in, stages, true)
			if err != nil {
				return err
			}
			digests := digestStages(stages, out)
			if first == nil {
				first, firstModels = digests, modelEvents(stages, out)
			} else {
				for i := range digests {
					if digests[i] != first[i] {
						c.problem("repetition: output of stage %s differs", btStageKeys[i])
					}
				}
			}
			c.items += int64(events)
			c.clock("job", wall)
			return nil
		})
	})
	if err != nil {
		return err
	}
	setBatchHeadline(c, events)

	// Verification: the six shared stages against TiMR.
	check, err := runTiMR(c, nil, in, mapreduce.Config{Machines: 8}, timrPass{keepRows: true})
	if err != nil {
		return err
	}
	verifySingleVsTiMR(c, first, firstModels, check)
	return nil
}
