package serve

import (
	"errors"
	"strings"
	"testing"

	"timr/internal/bt"
	"timr/internal/core"
	"timr/internal/dur"
	"timr/internal/leakcheck"
	"timr/internal/obs"
	"timr/internal/temporal"
	"timr/internal/workload"
)

func testConfig() Config {
	return Config{
		Workload: workload.Config{
			Users: 200, Keywords: 300, AdClasses: 4, Days: 2, Seed: 9,
			BotFraction: 0.01,
		},
		Load:     workload.LoadConfig{Seed: 5},
		Requests: 1500,
		Machines: 4,
	}
}

func TestServeScoresArrivals(t *testing.T) {
	srv, err := Prepare(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, results, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 1500 {
		t.Fatalf("requests = %d, want 1500", rep.Requests)
	}
	if rep.Impressions == 0 || rep.Searches == 0 {
		t.Fatalf("degenerate mix: %d impressions, %d searches", rep.Impressions, rep.Searches)
	}
	// Every impression carries feature rows and the models cover every
	// ad, so every impression must come back scored.
	if rep.Scored != rep.Impressions {
		t.Fatalf("scored %d of %d impressions", rep.Scored, rep.Impressions)
	}
	if len(results) == 0 {
		t.Fatal("no score events delivered")
	}
	for _, e := range results[:10] {
		s := e.Payload[4].AsFloat()
		if s < 0 || s > 1 {
			t.Fatalf("score %f outside [0,1]", s)
		}
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Fatalf("latency quantiles broken: p50=%s p99=%s", rep.P50, rep.P99)
	}
	if rep.EventsPerSec <= 0 || rep.Partitions <= 0 || rep.PerPartition <= 0 {
		t.Fatalf("throughput report broken: %+v", rep)
	}
	// The model learned the planted correlations: clicked impressions
	// score higher on average.
	if rep.MeanScoreClicked <= rep.MeanScoreUnclicked {
		t.Fatalf("model separation inverted: clicked %.4f <= unclicked %.4f",
			rep.MeanScoreClicked, rep.MeanScoreUnclicked)
	}
	if !strings.Contains(rep.String(), "events_per_sec_per_partition=") {
		t.Fatalf("report misses the per-partition metric:\n%s", rep.String())
	}
}

func TestServeDeterministicAcrossPlacementAndPacing(t *testing.T) {
	// The delivered scores are a pure function of dataset + load config:
	// neither the machine count (the shard space) nor pacing may change a
	// byte of output.
	srv, err := Prepare(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var ref []temporal.Event
	for _, machines := range []int{1, 4, 7} {
		for _, rate := range []float64{0, 50_000} {
			run := *srv
			run.cfg.Machines, run.cfg.Rate = machines, rate
			rep, got, err := run.Run()
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = got
			} else if !temporal.EventsEqual(got, ref) {
				t.Fatalf("%d machines, rate %v: %d vs %d events", machines, rate, len(got), len(ref))
			}
			if machines > 1 && rep.Partitions < 2 {
				t.Fatalf("%d machines ran %d partitions; the shard space is not varied", machines, rep.Partitions)
			}
		}
	}
}

func TestServePacedMode(t *testing.T) {
	cfg := testConfig()
	cfg.Requests = 300
	cfg.Rate = 50_000 // fast enough to finish promptly, still paced
	srv, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 300 {
		t.Fatalf("paced run processed %d of 300 requests", rep.Requests)
	}
	if rep.Scored != rep.Impressions {
		t.Fatalf("paced run scored %d of %d impressions", rep.Scored, rep.Impressions)
	}
}

// TestServeLeavesNoGoroutine: the load generator drains and exits however
// Run ends — a full run, paced or not, a kill mid-run, a serving error.
func TestServeLeavesNoGoroutine(t *testing.T) {
	unpaced := prepared(t, nil)
	paced := prepared(t, func(c *Config) { c.Requests, c.Rate = 300, 50_000 })
	// Killed after 10 of 1500 requests at 200 per second: the rest of the
	// schedule outlasts the settle deadline, so only a generator that
	// stops with the run passes.
	slow := prepared(t, func(c *Config) { c.Rate = 200 })
	settled := leakcheck.Goroutines(t)
	for _, srv := range []*Server{unpaced, paced} {
		if _, _, err := srv.Run(); err != nil {
			t.Fatal(err)
		}
		settled()
	}
	if _, err := slow.RunKilled(10); err != nil {
		t.Fatal(err)
	}
	settled()

	boom := errors.New("boom")
	served := 0
	err := feed(unpaced.cfg, workload.NewLoadGen(unpaced.data, unpaced.cfg.Load), 0, func(timedReq) (bool, error) {
		if served++; served == 10 {
			return false, boom
		}
		return true, nil
	})
	if !errors.Is(err, boom) || served != 10 {
		t.Fatalf("feed returned %v after %d requests, want boom after 10", err, served)
	}
	settled()
}

func TestPrepareRejectsScheduleOverrun(t *testing.T) {
	cfg := testConfig()
	cfg.Requests = 1 << 30
	if _, err := Prepare(cfg); err == nil {
		t.Fatal("Prepare must reject a schedule past the model validity window")
	}
}

func BenchmarkServeOpenLoop(b *testing.B) {
	cfg := testConfig()
	cfg.Requests = 2000
	srv, err := Prepare(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var last *Report
	for i := 0; i < b.N; i++ {
		rep, _, err := srv.Run()
		if err != nil {
			b.Fatal(err)
		}
		last = rep
	}
	b.ReportMetric(float64(last.P50.Microseconds()), "p50_us")
	b.ReportMetric(float64(last.P99.Microseconds()), "p99_us")
	b.ReportMetric(last.EventsPerSec, "events/s")
	b.ReportMetric(last.PerPartition, "events/s/part")
}

// TestServeSteadyStateIsBounded drives ScorePlan through a 4-machine
// durable streaming job for 72 waves of equal request count and checks —
// in counts, not timings — that a wave costs O(live state): the partition
// checkpoints and the GroupApply's live groups late in the run are no
// larger than early in it (they used to grow with every impression ever
// scored), and that every impression's group is dropped again.
func TestServeSteadyStateIsBounded(t *testing.T) {
	const perWave, waves = 32, 72
	cfg := testConfig()
	cfg.Requests = perWave * waves
	srv, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := obs.New("serve")
	streamCfg := core.DefaultConfig()
	streamCfg.Obs = sc
	store, err := dur.OpenStore(t.TempDir(), dur.Options{})
	if err != nil {
		t.Fatal(err)
	}
	job, err := core.NewStreamingJob(bt.ScorePlan(srv.params, true),
		map[string]*temporal.Schema{bt.SourceReduced: bt.TrainSchema, bt.SourceModels: bt.ModelSchema},
		core.WithMachines(4), core.WithConfig(streamCfg), core.WithDurable(store))
	if err != nil {
		t.Fatal(err)
	}
	modelSrc, err := job.Source(bt.SourceModels)
	if err != nil {
		t.Fatal(err)
	}
	if err := modelSrc.FeedBatch(srv.models); err != nil {
		t.Fatal(err)
	}
	reduced, err := job.Source(bt.SourceReduced)
	if err != nil {
		t.Fatal(err)
	}
	metric := func(name string) int64 {
		var sum int64
		for _, p := range sc.Snapshot() {
			if p.Name == name {
				sum += p.Value
			}
		}
		return sum
	}

	gen := workload.NewLoadGen(srv.data, srv.cfg.Load)
	var ckptBytes, liveGroups []int64 // one sample per wave
	impressions := int64(0)
	for i := 0; i < cfg.Requests; i++ {
		req := gen.Next()
		if i > 0 && i%perWave == 0 {
			before := metric("checkpoint_bytes")
			if err := job.Advance(req.Time); err != nil {
				t.Fatal(err)
			}
			ckptBytes = append(ckptBytes, metric("checkpoint_bytes")-before)
			liveGroups = append(liveGroups, metric("groups_live"))
		}
		if req.Search {
			continue
		}
		impressions++
		if err := reduced.FeedBatch(temporal.RowsToPointEvents(req.Rows, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if len(ckptBytes) < 64 || ckptBytes[8] == 0 {
		t.Fatalf("%d waves, %v checkpoint bytes each", len(ckptBytes), ckptBytes)
	}
	last := len(ckptBytes) - 1
	if ckptBytes[last] > 2*ckptBytes[8] {
		t.Errorf("partition checkpoints grow: %d B at wave 8, %d B at wave %d", ckptBytes[8], ckptBytes[last], last)
	}
	// One partition's gauge (the last writer's); an impression's group
	// outlives only the wave that closes it.
	if liveGroups[last] > 2*liveGroups[8] || liveGroups[last] > perWave {
		t.Errorf("live groups grow: %d at wave 8, %d at wave %d (%d requests per wave)", liveGroups[8], liveGroups[last], last, perWave)
	}
	if held := impressions - metric("groups_reclaimed"); held > 4*perWave {
		t.Errorf("%d impressions: %d groups never dropped (4 partitions, %d requests per wave)", impressions, held, perWave)
	}
	job.Flush()
	results, err := job.Results()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(results)) != impressions {
		t.Fatalf("%d impressions, %d scores", impressions, len(results))
	}
}
