// Package serve is the serving tier behind `timr serve`: a
// long-running scoring service that joins arriving ad impressions
// against the trained BT models through the streaming execution of
// ScorePlan (the paper's M3 loop — "we can generate a prediction
// whenever a new UBP is fed on its left input", §IV-B.4).
//
// Prepare trains the models offline: it generates a synthetic log,
// runs the full BT pipeline over the training half, and lodges the
// resulting per-ad models in the right synopsis of the serving join.
// Run then drives an open-loop, Zipf-skewed load (workload.LoadGen)
// into the left input, measuring per-impression scoring latency —
// arrival to incremental delivery — on an obs histogram, and reporting
// p50/p99 together with sustained events/s per partition. The serving
// job is an ordinary StreamingJob on a fixed shard space of Machines
// hash partitions, whose waves run the partitions in parallel.
package serve

import (
	"fmt"
	"time"

	"timr/internal/bt"
	"timr/internal/core"
	"timr/internal/dur"
	"timr/internal/obs"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// Config parameterizes a serving run. Zero fields take defaults.
type Config struct {
	// Workload generates the synthetic log the models are trained on;
	// its ground truth also drives the load generator.
	Workload workload.Config
	// Params tunes the BT pipeline. TrainPeriod defaults to half the
	// generated horizon, so the models trained on the first half are
	// valid over the serving window (the second half).
	Params *bt.Params

	// Load shapes the serving arrivals (user skew, search fraction).
	// Start defaults to the training period — the first instant the
	// models are valid.
	Load workload.LoadConfig
	// Requests is the total number of arrivals to generate (default
	// 4000). The schedule must fit the model validity window
	// [TrainPeriod, 2·TrainPeriod); Prepare rejects overruns.
	Requests int

	// Machines is the partition fan-out of the serving job (default 4).
	Machines int
	// WaveEvery is the event time between punctuation waves (default:
	// 1/64 of the request schedule's span, so a run sees ~64 waves).
	// Shorter waves deliver scores more often.
	WaveEvery temporal.Time

	// Rate, when positive, paces arrivals at this many per wall-clock
	// second (open loop: the schedule never slows down because the server
	// lags, so queueing delay lands in the measured latency). Zero
	// generates arrivals as fast as the serving loop takes them. Either
	// way the load generator runs on its own goroutine, beside the
	// serving loop, and hands arrivals over through the intake queue.
	Rate float64

	// Obs receives serving metrics (latency histogram, streaming stage
	// counters). Defaults to a fresh "serve" scope.
	Obs *obs.Scope

	// DurDir, when set, makes the serving job durable: every wave commits
	// a checkpoint generation to this directory (see internal/dur), and a
	// restarted process resumes from the newest intact generation — Run
	// detects recovered state and replays the deterministic schedule from
	// the recovered wave onward, delivering bit-identical output.
	DurDir string
	// DurFS overrides the filesystem the durable store writes through
	// (default the real OS; tests substitute dur.NewFaultFS).
	DurFS dur.FS
}

// queueDepth bounds the intake queue. A full queue blocks the generator
// goroutine: that is the service's one form of backpressure. Unpaced, the
// generator outpaces the loop, so the queue runs full and a request's
// latency includes its wait in it.
const queueDepth = 256

func (c Config) withDefaults() Config {
	if c.Requests <= 0 {
		c.Requests = 4000
	}
	if c.Machines <= 0 {
		c.Machines = 4
	}
	if c.Obs == nil {
		c.Obs = obs.New("serve")
	}
	return c
}

// Report summarizes one serving run.
type Report struct {
	Requests    int
	Searches    int // profile updates (no score request)
	Impressions int // score requests issued
	Scored      int // impressions whose score was delivered
	RowsFed     int // feature rows fed to the join

	Duration     time.Duration
	P50, P99     time.Duration
	MaxLatency   time.Duration
	EventsPerSec float64 // impressions scored per wall-clock second
	Partitions   int     // shards of the scoring stage
	PerPartition float64 // EventsPerSec / Partitions

	// Planted-ground-truth sanity: a model that learned anything scores
	// clicked impressions above unclicked ones on average.
	MeanScoreClicked   float64
	MeanScoreUnclicked float64

	// Resumed reports that this run recovered a durable generation and
	// replayed the schedule from the recovered wave instead of starting
	// clean. Requests then counts only the re-fed tail of the schedule.
	Resumed bool
	// CommitFailures counts the waves whose durable commit failed (with
	// DurDir set). Each leaves the last committed generation as the
	// recovery line, so a restart replays further back.
	CommitFailures int
}

// Server is a prepared serving tier: trained models plus the dataset
// ground truth, ready to Run any number of times.
type Server struct {
	cfg    Config
	params bt.Params
	data   *workload.Dataset
	models []temporal.Event
}

// Prepare generates the log, trains the models on its first half, and
// validates that the configured load schedule fits the models' validity.
func Prepare(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	d := workload.Generate(cfg.Workload)

	p := bt.DefaultParams()
	if cfg.Params != nil {
		p = *cfg.Params
	} else {
		p.TrainPeriod = d.Horizon / 2
	}
	if cfg.Load.Start <= 0 {
		cfg.Load.Start = p.TrainPeriod
	}
	tick := cfg.Load.TickEvery
	if tick <= 0 {
		tick = 1
	}
	if cfg.WaveEvery <= 0 {
		cfg.WaveEvery = temporal.Time(cfg.Requests) * tick / 64
		if cfg.WaveEvery <= 0 {
			cfg.WaveEvery = 1
		}
	}
	end := cfg.Load.Start + temporal.Time(cfg.Requests)*tick
	if valid := 2 * p.TrainPeriod; end > valid {
		return nil, fmt.Errorf("serve: schedule ends at %d, past model validity %d — fewer requests or a smaller TickEvery", end, valid)
	}

	train, _ := d.SplitHalves()
	phases, err := bt.RunSingleNode(p, temporal.RowsToPointEvents(train, 0))
	if err != nil {
		return nil, fmt.Errorf("serve: training pipeline: %w", err)
	}
	models := phases[bt.DSModels]
	if len(models) == 0 {
		return nil, fmt.Errorf("serve: training produced no models")
	}
	return &Server{cfg: cfg, params: p, data: d, models: models}, nil
}

// Dataset exposes the generated log (diagnostics, tests).
func (s *Server) Dataset() *workload.Dataset { return s.data }

// Models exposes the trained model events (diagnostics, tests).
func (s *Server) Models() []temporal.Event {
	return append([]temporal.Event(nil), s.models...)
}

// timedReq is one arrival in the intake queue, stamped with the instant
// it arrived: its slot on the paced schedule, or when it was generated.
type timedReq struct {
	req   workload.Request
	sched time.Time
}

// Run drives one serving session and returns its report plus the
// coalesced score events (for differential tests: the delivered scores
// are deterministic in the dataset and load config, whatever the
// pacing or machine count). With DurDir set, Run is also the
// restart path: if the directory holds a committed generation from an
// earlier (killed) process, the job resumes from it.
func (s *Server) Run() (*Report, []temporal.Event, error) {
	return s.run(-1)
}

// RunKilled processes only the first `after` schedule entries and then
// returns without flushing or collecting results — the restart drill's
// stand-in for kill -9 mid-run. Only the durable store's committed
// generations survive; a subsequent Run on the same DurDir resumes from
// them.
func (s *Server) RunKilled(after int) (*Report, error) {
	rep, _, err := s.run(after)
	return rep, err
}

func (s *Server) run(killAfter int) (*Report, []temporal.Event, error) {
	cfg := s.cfg
	lat := cfg.Obs.Histogram("latency")

	rep := &Report{}
	pending := make(map[temporal.Time]time.Time, queueDepth)
	var sumClicked, sumUnclicked float64
	var nClicked, nUnclicked int
	seen := make(map[temporal.Time]bool)
	onEvent := func(e temporal.Event) {
		t := temporal.Time(e.Payload[0].AsInt())
		if sent, ok := pending[t]; ok {
			lat.Observe(time.Since(sent))
			delete(pending, t)
			rep.Scored++
		}
		if !seen[t] {
			seen[t] = true
			score := e.Payload[4].AsFloat()
			if e.Payload[3].AsInt() == 1 {
				sumClicked += score
				nClicked++
			} else {
				sumUnclicked += score
				nUnclicked++
			}
		}
	}

	streamCfg := core.DefaultConfig()
	streamCfg.Obs = cfg.Obs
	opts := []core.StreamOption{
		core.WithMachines(cfg.Machines),
		core.WithConfig(streamCfg),
		core.WithOnEvent(onEvent),
	}
	plan := bt.ScorePlan(s.params, true)
	schemas := map[string]*temporal.Schema{
		bt.SourceReduced: bt.TrainSchema,
		bt.SourceModels:  bt.ModelSchema,
	}
	if cfg.DurDir != "" {
		store, err := dur.OpenStore(cfg.DurDir, dur.Options{FS: cfg.DurFS, Obs: cfg.Obs.Child("dur")})
		if err != nil {
			return nil, nil, err
		}
		opts = append(opts, core.WithDurable(store))
	}
	job, err := core.NewStreamingJob(plan, schemas, opts...)
	if err != nil {
		return nil, nil, err
	}
	rec := job.Recovered()
	reduced, err := job.Source(bt.SourceReduced)
	if err != nil {
		return nil, nil, err
	}
	if rec == nil {
		// Lodge the models in the join's right synopsis before any wave.
		// A resumed job skips this: the recovered checkpoints carry the
		// synopsis, models included, and re-feeding would duplicate them.
		modelSrc, err := job.Source(bt.SourceModels)
		if err != nil {
			return nil, nil, err
		}
		if err := modelSrc.FeedBatch(s.models); err != nil {
			return nil, nil, err
		}
	}

	gen := workload.NewLoadGen(s.data, cfg.Load)
	lastWave := cfg.Load.Start

	// On resume, the recovered generation carries the source's committed
	// input offset — the schedule index of the request that triggered its
	// wave (Run publishes it before every Advance). The driver *seeks*:
	// the load generator skips straight past the committed prefix (same
	// RNG draws, no row materialization, nothing fed) and ingestion
	// restarts with the wave-triggering request — exactly the tail the
	// dead process never durably committed.
	startIdx := 0
	if rec != nil {
		pos, ok := reduced.Position()
		if !ok {
			return nil, nil, fmt.Errorf("serve: %s generation %d was written without input offsets; cannot resume", cfg.DurDir, rec.Gen)
		}
		rep.Resumed = true
		gen.Skip(int(pos))
		startIdx = int(pos)
		lastWave = rec.Wave
	}

	start := time.Now()
	processed, killed := 0, false
	err = feed(cfg, gen, startIdx, func(tr timedReq) (bool, error) {
		req := tr.req
		if t := req.Time; t-lastWave >= cfg.WaveEvery {
			lastWave = t
			// Publish the input offset the wave's generation will carry:
			// the schedule index of the request triggering this wave —
			// everything before it is admitted and about to be durable.
			reduced.SetPosition(int64(req.Seq))
			if err := job.Advance(t); err != nil {
				return false, err
			}
			if job.DurableErr() != nil {
				rep.CommitFailures++
			}
		}
		rep.Requests++
		if req.Search {
			rep.Searches++
		} else {
			rep.Impressions++
			rep.RowsFed += len(req.Rows)
			pending[req.Time] = tr.sched
			if err := reduced.FeedBatch(temporal.RowsToPointEvents(req.Rows, 0)); err != nil {
				return false, err
			}
		}
		processed++
		killed = killAfter >= 0 && processed >= killAfter
		return !killed, nil
	})
	if err != nil {
		return nil, nil, err
	}
	if killed {
		// kill -9: no flush, no graceful teardown. Whatever the durable
		// store committed is all the next process gets.
		rep.Duration = time.Since(start)
		return rep, nil, nil
	}
	job.Flush()
	rep.Duration = time.Since(start)
	results, err := job.Results()
	if err != nil {
		return nil, nil, err
	}

	rep.P50, rep.P99, rep.MaxLatency = lat.Quantile(0.50), lat.Quantile(0.99), lat.Max()
	if secs := rep.Duration.Seconds(); secs > 0 {
		rep.EventsPerSec = float64(rep.Scored) / secs
	}
	for _, n := range job.Partitions() {
		if n > rep.Partitions {
			rep.Partitions = n
		}
	}
	if rep.Partitions > 0 {
		rep.PerPartition = rep.EventsPerSec / float64(rep.Partitions)
	}
	if nClicked > 0 {
		rep.MeanScoreClicked = sumClicked / float64(nClicked)
	}
	if nUnclicked > 0 {
		rep.MeanScoreUnclicked = sumUnclicked / float64(nUnclicked)
	}
	return rep, results, nil
}

// feed is Run's one intake path. A generator goroutine emits the schedule
// from index from into a bounded queue of queueDepth requests, beside the
// serving loop, which takes each in turn and hands it to serve on the
// caller's goroutine. With cfg.Rate set the generator paces requests on
// the fixed open-loop schedule: a full queue blocks it (committed-path
// backpressure), but the schedule's timestamps keep marching, so the wait
// surfaces as measured latency. Unpaced, it does not sleep: a request
// arrives when it is generated and waits in the queue until served. feed
// returns when the schedule ends, serve fails, or serve reports false;
// the generator has exited by then.
func feed(cfg Config, gen *workload.LoadGen, from int, serve func(timedReq) (bool, error)) error {
	intake, stop := make(chan timedReq, queueDepth), make(chan struct{})
	go func() {
		defer close(intake)
		var gap time.Duration
		if cfg.Rate > 0 {
			gap = time.Duration(float64(time.Second) / cfg.Rate)
		}
		start := time.Now()
		for i := from; i < cfg.Requests; i++ {
			sched := time.Now()
			if gap > 0 {
				sched = start.Add(time.Duration(i-from) * gap)
				time.Sleep(time.Until(sched))
			}
			select {
			case intake <- timedReq{req: gen.Next(), sched: sched}:
			case <-stop:
				return
			}
		}
	}()
	defer func() {
		close(stop)
		for range intake { // drained until the generator closes it
		}
	}()
	for tr := range intake {
		if more, err := serve(tr); err != nil || !more {
			return err
		}
	}
	return nil
}

// String renders the report as key=value lines.
func (r *Report) String() string {
	return fmt.Sprintf(
		"serve: requests=%d impressions=%d scored=%d rows=%d duration=%s\n"+
			"serve: p50_us=%d p99_us=%d max_us=%d\n"+
			"serve: events_per_sec=%.1f partitions=%d events_per_sec_per_partition=%.1f\n"+
			"serve: mean_score_clicked=%.4f mean_score_unclicked=%.4f",
		r.Requests, r.Impressions, r.Scored, r.RowsFed, r.Duration.Round(time.Millisecond),
		r.P50.Microseconds(), r.P99.Microseconds(), r.MaxLatency.Microseconds(),
		r.EventsPerSec, r.Partitions, r.PerPartition,
		r.MeanScoreClicked, r.MeanScoreUnclicked,
	)
}
