package main

import (
	"fmt"
	"path/filepath"
	"time"

	"timr/internal/bt"
	"timr/internal/core"
	"timr/internal/dur"
	"timr/internal/obs"
	"timr/internal/serve"
	"timr/internal/temporal"
	"timr/internal/workload"
)

const (
	// openLoopShare of the time box is the open-loop phase; the
	// saturation repetitions take the rest.
	openLoopShare = 0.6
	// scoreLagLimit is the latency limit: one wave period at the
	// open-loop rate (200 requests at 2000 per second).
	scoreLagLimit = 100 * time.Millisecond
)

// serveInput is a prepared serving tier plus the pre-generated arrival
// schedule both phases share.
type serveInput struct {
	cfg    serve.Config
	srv    *serve.Server
	models []temporal.Event
	reqs   []workload.Request
}

func serveConfig(c *child, requests int) serve.Config {
	sz := c.job.Sizes
	p := bt.DefaultParams()
	p.TrainPeriod = temporal.Day
	return serve.Config{
		Workload:  workload.Config{Users: sz.ServeUsers, Keywords: 2000, AdClasses: 8, Days: 2, Seed: c.job.Seed},
		Params:    &p,
		Load:      workload.LoadConfig{Seed: c.job.Seed, ZipfS: 1.2, SearchFraction: 0.4, Start: p.TrainPeriod, TickEvery: 1},
		Requests:  requests,
		Machines:  4,
		WaveEvery: temporal.Time(sz.ServePerWave),
	}
}

// prepare trains the models (serve.Prepare) and pre-generates the
// request schedule, so the load generator's cost stays out of the
// open-loop phase.
func prepare(c *child, cfg serve.Config) (*serveInput, error) {
	in := &serveInput{cfg: cfg}
	end := c.tr.begin("serve.Prepare")
	start := time.Now()
	srv, err := serve.Prepare(cfg)
	c.sample("serve.prepare_s", time.Since(start).Seconds())
	end(nil)
	if err != nil {
		return nil, err
	}
	in.srv, in.models = srv, srv.Models()

	end = c.tr.begin("workload.LoadGen.Next")
	start = time.Now()
	gen := workload.NewLoadGen(srv.Dataset(), cfg.Load)
	in.reqs = make([]workload.Request, cfg.Requests)
	for i := range in.reqs {
		in.reqs[i] = gen.Next()
	}
	c.sample("workload.loadgen_us_per_req", float64(time.Since(start).Microseconds())/float64(cfg.Requests))
	end(map[string]any{"requests": cfg.Requests})
	return in, nil
}

// servePass is what one drive of the schedule through a streaming job
// observed. Lags are in milliseconds.
type servePass struct {
	wall        time.Duration
	impressions int
	refused     int // impressions whose FeedBatch returned an error
	rowsFed     int
	feed        time.Duration // summed FeedBatch wall
	flush       time.Duration
	advance     []float64 // per wave
	schedLag    []float64 // per request: how late the generator ran
	scoreLag    []float64 // per delivery: since the due instant of the request whose punctuation released it
	arrivalLag  []float64 // per delivery: since the impression's own due instant
	delivered   []uint8   // per request: scores delivered
	results     []temporal.Event
}

// failed counts impressions that were refused or not delivered exactly
// once.
func (p *servePass) failed(reqs []workload.Request) int {
	n := 0
	for i, r := range reqs {
		if !r.Search && p.delivered[i] != 1 {
			n++
		}
	}
	return n
}

// driveServe is the bench's own serving loop: one goroutine feeds the
// pre-generated schedule into a streaming ScorePlan job, punctuating
// every WaveEvery of event time, exactly as serve.Run does. With rate >
// 0 it is an open loop: request i is due at start + i/rate whether or
// not the job has kept up, and every lag is measured from a due instant,
// so a stall is charged to every request it delays. With rate 0 each
// request is due the moment the loop reaches it.
func driveServe(tr *tracer, in *serveInput, rate float64, opts ...core.StreamOption) (*servePass, error) {
	n := len(in.reqs)
	pass := &servePass{delivered: make([]uint8, n)}
	loadStart, tick := in.cfg.Load.Start, in.cfg.Load.TickEvery

	due := make([]time.Time, n+1)
	var trigger time.Time
	onEvent := func(e temporal.Event) {
		i := int((temporal.Time(e.Payload[0].AsInt()) - loadStart) / tick)
		if i < 0 || i >= n {
			return
		}
		now := time.Now()
		pass.delivered[i]++
		pass.scoreLag = append(pass.scoreLag, ms(now.Sub(trigger)))
		pass.arrivalLag = append(pass.arrivalLag, ms(now.Sub(due[i])))
	}

	job, err := core.NewStreamingJob(bt.ScorePlan(*in.cfg.Params, true),
		map[string]*temporal.Schema{bt.SourceReduced: bt.TrainSchema, bt.SourceModels: bt.ModelSchema},
		append([]core.StreamOption{core.WithMachines(in.cfg.Machines), core.WithOnEvent(onEvent)}, opts...)...)
	if err != nil {
		return nil, err
	}
	modelSrc, err := job.Source(bt.SourceModels)
	if err != nil {
		return nil, err
	}
	if err := modelSrc.FeedBatch(in.models); err != nil {
		return nil, err
	}
	reduced, err := job.Source(bt.SourceReduced)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	gap := time.Duration(0)
	if rate > 0 {
		gap = time.Duration(float64(time.Second) / rate)
	}
	lastWave := loadStart
	for i := range in.reqs {
		req := &in.reqs[i]
		if rate > 0 {
			due[i] = start.Add(time.Duration(i) * gap)
			if d := time.Until(due[i]); d > 0 {
				time.Sleep(d)
			}
			pass.schedLag = append(pass.schedLag, ms(time.Since(due[i])))
		} else {
			due[i] = time.Now()
		}
		if req.Time-lastWave >= in.cfg.WaveEvery {
			lastWave = req.Time
			trigger = due[i]
			end := tr.begin("core.StreamingJob.Advance")
			t0 := time.Now()
			err := job.Advance(req.Time)
			pass.advance = append(pass.advance, ms(time.Since(t0)))
			end(nil)
			if err != nil {
				return nil, err
			}
		}
		if req.Search {
			continue
		}
		pass.impressions++
		events := temporal.RowsToPointEvents(req.Rows, 0)
		end := tr.begin("core.Feeder.FeedBatch")
		t0 := time.Now()
		err := reduced.FeedBatch(events)
		pass.feed += time.Since(t0)
		end(nil)
		if err != nil {
			pass.refused++
			continue
		}
		pass.rowsFed += len(events)
	}
	// The schedule ends one gap after its last request; what Flush
	// releases waited for that instant.
	if rate > 0 {
		due[n] = start.Add(time.Duration(n) * gap)
		if d := time.Until(due[n]); d > 0 {
			time.Sleep(d)
		}
	} else {
		due[n] = time.Now()
	}
	trigger = due[n]
	end := tr.begin("core.StreamingJob.Flush")
	t0 := time.Now()
	job.Flush()
	pass.flush = time.Since(t0)
	end(nil)
	pass.wall = time.Since(start)
	pass.results, err = job.Results()
	return pass, err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// growth is the mean of the last eighth of xs over the mean of the
// first eighth: 1 for a steady state.
func growth(xs []float64) float64 {
	k := len(xs) / 8
	if k < 1 {
		k = 1
	}
	if len(xs) < 2*k {
		return 0
	}
	return mean(xs[len(xs)-k:]) / mean(xs[:k])
}

func runServeOpen(c *child) error {
	sz := c.job.Sizes
	requests := int(float64(sz.ServeRate) * openLoopShare * c.job.Seconds)
	if min := 4 * sz.ServePerWave; requests < min {
		requests = min
	}
	cfg := serveConfig(c, requests)
	var in *serveInput
	if err := c.setup(func() (err error) {
		in, err = prepare(c, cfg)
		return err
	}); err != nil {
		return err
	}

	// Phase A, open loop at the fixed rate; on a traced run this is the
	// traced pass.
	ph := c.beginTimed()
	var open *servePass
	if _, err := c.section(c.tr, "serve_open.open_loop", func() (err error) {
		open, err = driveServe(c.tr, in, float64(sz.ServeRate))
		return err
	}); err != nil {
		return err
	}
	c.ops(open.impressions, open.failed(in.reqs))
	c.items += int64(requests)
	lagP50, lagP := percentile(open.scoreLag, 50)
	c.closeInterval()

	// Phase B, saturation: serve.Run unpaced, repeated for the rest of
	// the box.
	box := time.Duration(c.job.Seconds * float64(time.Second) * (1 - openLoopShare))
	var runScores []temporal.Event
	for spent, n := time.Duration(0), 0; spent < box || n < sz.MinReps; n++ {
		var rep *serve.Report
		wall, err := c.section(c.tr, "serve.Server.Run", func() (err error) {
			rep, runScores, err = in.srv.Run()
			return err
		})
		if err != nil {
			return err
		}
		spent += wall
		c.ops(rep.Impressions, rep.Impressions-rep.Scored)
		c.items += int64(rep.Requests)
		c.clock("serve.Run", rep.Duration)
		c.closeInterval()
	}
	c.endTimed(ph)

	runCal, runRaw := c.clockMedian("serve.Run")
	c.setClocked("events_per_s", float64(requests)/runCal, float64(requests)/runRaw)
	c.rec.Samples["events_per_s"] = len(c.clocked["serve.Run"].raw)
	// Score lag is one sample per run, so the two readings around the
	// open-loop phase would pass their own noise straight on to it; it is
	// scaled by the median of all the run's readings instead (README "The
	// calibrated clock").
	c.setClocked("result_ms", lagP50*c.job.Sizes.CalibRefMs/median(c.rec.Calib), lagP50)
	c.rec.Samples["result_ms"] = len(open.scoreLag)
	if lagP != 50 {
		c.rec.Percentile["result_ms"] = lagP
	}
	c.setPercentile("serve.score_lag_p90_ms", open.scoreLag, 90)
	c.setPercentile("serve.score_lag_p99_ms", open.scoreLag, 99)
	c.setPercentile("serve.arrival_lag_p50_ms", open.arrivalLag, 50)
	c.setPercentile("serve.sched_lag_p99_ms", open.schedLag, 99)
	c.set("serve.sched_lag_max_ms", maxOf(open.schedLag))
	over := open.failed(in.reqs)
	for _, lag := range open.scoreLag {
		if lag > ms(scoreLagLimit) {
			over++
		}
	}
	c.set("serve.over_limit_share", float64(over)/float64(open.impressions))
	c.setPercentile("core.advance_ms_p50", open.advance, 50)
	c.setPercentile("core.advance_ms_p90", open.advance, 90)
	c.set("core.advance_ms_max", maxOf(open.advance))
	c.set("core.advance_growth", growth(open.advance))
	c.set("core.feed_us_per_req", float64(open.feed.Microseconds())/float64(open.impressions))
	c.set("core.flush_ms", ms(open.flush))
	c.set("core.waves", float64(len(open.advance)))
	c.set("core.rows_fed", float64(open.rowsFed))

	// A generator later than one wave period means the schedule was not
	// the one described. That is the host's doing, not a wrong output, so
	// it is a warning on the run and not a verification failure.
	if worst := c.rec.Metrics["serve.sched_lag_max_ms"].Value; worst > ms(scoreLagLimit) {
		c.rec.Warnings = append(c.rec.Warnings, fmt.Sprintf("open-loop generator ran %.1f ms late, over one wave period: read this run's lags with care", worst))
	}
	// Verification: every impression is delivered exactly once, and the
	// bench's loop and serve.Run score identically.
	if n := open.failed(in.reqs); n > 0 {
		c.problem("%d of %d impressions were refused or not delivered exactly once", n, open.impressions)
	}
	if !temporal.EventsEqual(open.results, runScores) {
		c.problem("bench driver delivered %d score events, serve.Run %d, and they differ", len(open.results), len(runScores))
	}

	if c.tr != nil {
		return serveExtras(c, in, runRaw)
	}
	return nil
}

// serveExtras are the passes only a traced run makes.
func serveExtras(c *child, in *serveInput, runWall float64) error {
	// Tracing overhead and the cost of serve.Run's own loop, both
	// against the unpaced bench driver.
	var plain, traced []float64
	var plainPass *servePass
	for i := 0; i < 4; i++ {
		tr := (*tracer)(nil)
		if i%2 == 1 {
			tr = c.tr
		}
		var pass *servePass
		if _, err := c.section(tr, "serve_open.unpaced", func() (err error) {
			pass, err = driveServe(tr, in, 0)
			return err
		}); err != nil {
			return err
		}
		c.ops(pass.impressions, pass.failed(in.reqs))
		if tr != nil {
			traced = append(traced, pass.wall.Seconds())
		} else {
			plain = append(plain, pass.wall.Seconds())
			plainPass = pass
		}
	}
	c.set("bench.trace_overhead_share", median(traced)/median(plain)-1)
	c.set("serve.loop_overhead_s", runWall-median(plain))

	// Counts-only pass: an obs scope switches the engines to the
	// observed compile mode, so only its counters are kept.
	scope := obs.New("bench")
	coreCfg := core.DefaultConfig()
	coreCfg.Obs = scope
	counted, err := driveServe(nil, in, 0, core.WithConfig(coreCfg))
	if err != nil {
		return err
	}
	var ckpt float64
	for _, p := range scope.Snapshot() {
		if p.Name == "checkpoint_bytes" {
			ckpt += float64(p.Value)
		}
	}
	c.set("temporal.checkpoint_bytes_per_wave", ckpt/float64(len(counted.advance)))

	// Durable passes: the bench driver with a store gives the commit
	// cost per wave (paired with the last plain pass by wave index), and
	// serve.Run with DurDir the durable capacity.
	store, err := dur.OpenStore(filepath.Join(c.job.TmpDir, "dur-driver"), dur.Options{})
	if err != nil {
		return err
	}
	durPass, err := driveServe(nil, in, 0, core.WithDurable(store))
	if err != nil {
		return err
	}
	commit := make([]float64, 0, len(durPass.advance))
	for i := range durPass.advance {
		if i < len(plainPass.advance) {
			commit = append(commit, durPass.advance[i]-plainPass.advance[i])
		}
	}
	c.setPercentile("dur.commit_ms_p50", commit, 50)

	durCfg := in.cfg
	durCfg.DurDir = filepath.Join(c.job.TmpDir, "dur-serve")
	durCfg.Obs = obs.New("serve")
	var rep *serve.Report
	if _, err := c.section(c.tr, "serve_open.durable", func() error {
		end := c.tr.begin("serve.Prepare")
		srv, err := serve.Prepare(durCfg)
		end(nil)
		if err != nil {
			return err
		}
		end = c.tr.begin("serve.Server.Run")
		rep, _, err = srv.Run()
		end(nil)
		return err
	}); err != nil {
		return err
	}
	c.ops(rep.Impressions, rep.Impressions-rep.Scored)
	c.set("serve.durable_capacity_rps", float64(rep.Requests)/rep.Duration.Seconds())
	var bytes, gens float64
	for _, p := range durCfg.Obs.Snapshot() {
		switch p.Name {
		case "dur_bytes":
			bytes += float64(p.Value)
		case "generations":
			gens += float64(p.Value)
		}
	}
	if gens == 0 {
		return fmt.Errorf("durable serve.Run committed no generation")
	}
	c.set("dur.bytes_per_wave", bytes/gens)
	return nil
}
