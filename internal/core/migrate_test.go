package core

// Migration differential gate (`make servegate`): a streaming job that
// splits and merges workers mid-stream — including under injected crash
// chaos — must produce output bit-identical to a static run, because a
// migration is the same checkpoint+replay reconstruction a crash
// recovery performs, aligned to the PR 4 wave invariant.

import (
	"errors"
	"testing"

	"timr/internal/leakcheck"
	"timr/internal/obs"
	"timr/internal/temporal"
)

// chainedMigrPlan is a two-fragment chained plan (UserId exchange, then
// C exchange) so migrations exercise inter-stage routing, not just a
// single barrier.
func chainedMigrPlan(annotate bool) *temporal.Plan {
	src := temporal.Scan("clicks", clickSchema())
	s := src
	if annotate {
		s = src.Exchange(temporal.PartitionBy{Cols: []string{"UserId"}})
	}
	perUser := s.GroupApply([]string{"UserId"}, func(g *temporal.Plan) *temporal.Plan {
		return g.WithWindow(30).Count("C")
	}).ToPoint()
	if annotate {
		perUser = perUser.Exchange(temporal.PartitionBy{Cols: []string{"C"}})
	}
	return perUser.GroupApply([]string{"C"}, func(g *temporal.Plan) *temporal.Plan {
		return g.WithWindow(50).Count("N")
	})
}

func migrEvents() []temporal.Event {
	var events []temporal.Event
	tm := temporal.Time(0)
	for i := 0; i < 900; i++ {
		tm += temporal.Time(i % 3)
		events = append(events, temporal.PointEvent(tm, temporal.Row{
			temporal.Int(int64(tm)), temporal.Int(int64(i % 17)), temporal.Int(int64(i % 5)),
		}))
	}
	return events
}

// driveMigrating feeds events with a punctuation wave every period
// ticks, calling hook(job, waveNo) after each wave and also mid-interval
// (feedNo measured in events) via midHook — so migrations land both at
// wave boundaries and in the middle of a feed interval. No goroutine may
// outlive the run.
func driveMigrating(t *testing.T, cfg Config, hook func(*StreamingJob, int), midHook func(*StreamingJob, int), opts ...StreamOption) []temporal.Event {
	t.Helper()
	defer leakcheck.Goroutines(t)()
	events := migrEvents()
	opts = append([]StreamOption{WithMachines(4), WithConfig(cfg)}, opts...)
	job, err := NewStreamingJob(chainedMigrPlan(true),
		map[string]*temporal.Schema{"clicks": clickSchema()}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	clicks, err := job.Source("clicks")
	if err != nil {
		t.Fatal(err)
	}
	const period = 20
	last, wave := temporal.Time(temporal.MinTime), 0
	for i, e := range events {
		if last == temporal.MinTime {
			last = e.LE
		} else if e.LE-last >= period {
			if err := job.Advance(e.LE); err != nil {
				t.Fatal(err)
			}
			last = e.LE
			wave++
			if hook != nil {
				hook(job, wave)
			}
		}
		if err := clicks.Feed(e); err != nil {
			t.Fatal(err)
		}
		if midHook != nil {
			midHook(job, i)
		}
	}
	job.Flush()
	res, err := job.Results()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sumCounter(sc *obs.Scope, name string) int64 {
	var n int64
	for _, p := range sc.Snapshot() {
		if p.Name == name {
			n += p.Value
		}
	}
	return n
}

func TestMigrationSplitMergeBitIdentical(t *testing.T) {
	static := driveMigrating(t, DefaultConfig(), nil, nil)

	scope := obs.New("migr")
	cfg := DefaultConfig()
	cfg.Obs = scope
	split, merged := false, false
	migrated := driveMigrating(t, cfg, func(j *StreamingJob, wave int) {
		// Split both stages early, merge them back later — mid-stream,
		// with live state on every shard.
		if wave == 3 {
			for frag := range j.Partitions() {
				if err := j.ForceSplit(frag); err == nil {
					split = true
				}
			}
		}
		if wave == 9 {
			for frag := range j.Partitions() {
				if err := j.ForceMerge(frag); err == nil {
					merged = true
				}
			}
		}
	}, nil)
	if !split || !merged {
		t.Fatalf("forced split=%v merge=%v; the differential is vacuous", split, merged)
	}
	if !temporal.EventsEqual(migrated, static) {
		t.Fatalf("migrated run diverges from static: %d vs %d events", len(migrated), len(static))
	}
	if n := sumCounter(scope, "migrations"); n == 0 {
		t.Fatal("no migrations counted despite forced split+merge")
	}
	if sumCounter(scope, "migrated_bytes") == 0 {
		t.Fatal("migrations transferred no checkpoint bytes")
	}
}

func TestMigrationMidIntervalBitIdentical(t *testing.T) {
	// Migrations fired in the middle of a feed interval — between waves,
	// with a non-empty replay log — must still be invisible in the output.
	static := driveMigrating(t, DefaultConfig(), nil, nil)
	forced := 0
	migrated := driveMigrating(t, DefaultConfig(), nil, func(j *StreamingJob, feedNo int) {
		switch feedNo {
		case 137, 411: // mid-interval: 900 events / ~20-tick waves
			for frag := range j.Partitions() {
				if err := j.ForceSplit(frag); err == nil {
					forced++
				}
			}
		case 633:
			for frag := range j.Partitions() {
				if err := j.ForceMerge(frag); err == nil {
					forced++
				}
			}
		}
	})
	if forced == 0 {
		t.Fatal("no mid-interval migration happened; the differential is vacuous")
	}
	if !temporal.EventsEqual(migrated, static) {
		t.Fatalf("mid-interval migration diverges: %d vs %d events", len(migrated), len(static))
	}
}

func TestMigrationUnderChaosBitIdentical(t *testing.T) {
	// The full gate: forced split+merge while partitions crash at 30%
	// per wave. Crash recovery and migration share the reconstruction
	// path; composing them must not change a single byte of output.
	static := driveMigrating(t, DefaultConfig(), nil, nil)
	for _, seed := range []int64{1, 2, 3} {
		scope := obs.New("migr")
		cfg := DefaultConfig()
		cfg.Obs = scope
		got := driveMigrating(t, cfg, func(j *StreamingJob, wave int) {
			if wave == 3 || wave == 7 {
				for frag := range j.Partitions() {
					_ = j.ForceSplit(frag)
				}
			}
			if wave == 11 {
				for frag := range j.Partitions() {
					_ = j.ForceMerge(frag)
				}
			}
		}, nil, WithCrash(CrashConfig{Rate: 0.3, Seed: seed}))
		if !temporal.EventsEqual(got, static) {
			t.Fatalf("seed %d: chaos+migration diverges: %d vs %d events", seed, len(got), len(static))
		}
		if sumCounter(scope, "crashes") == 0 {
			t.Fatalf("seed %d: no crashes injected; gate is vacuous", seed)
		}
		if sumCounter(scope, "migrations") == 0 {
			t.Fatalf("seed %d: no migrations happened; gate is vacuous", seed)
		}
	}
}

func TestAutoRebalanceElasticity(t *testing.T) {
	// Capacity-driven policy: a hot interval should grow workers, a
	// quiet tail should shrink them back — and the output must match the
	// static run bit for bit.
	static := driveMigrating(t, DefaultConfig(), nil, nil)

	scope := obs.New("rebal")
	cfg := DefaultConfig()
	cfg.Obs = scope
	maxWorkers := 1
	got := driveMigrating(t, cfg, func(j *StreamingJob, wave int) {
		for _, n := range j.Workers() {
			if n > maxWorkers {
				maxWorkers = n
			}
		}
	}, nil, WithRebalance(RebalanceConfig{SplitAbove: 20, MergeBelow: 3, MaxWorkers: 4}))
	if !temporal.EventsEqual(got, static) {
		t.Fatalf("auto-rebalanced run diverges: %d vs %d events", len(got), len(static))
	}
	if maxWorkers < 2 {
		t.Fatalf("policy never split despite SplitAbove=20 (max workers seen: %d)", maxWorkers)
	}
	if sumCounter(scope, "migrations") == 0 {
		t.Fatal("policy performed no migrations")
	}
}

func TestForceSplitMergeErrors(t *testing.T) {
	job, err := NewStreamingJob(chainedMigrPlan(true),
		map[string]*temporal.Schema{"clicks": clickSchema()}, WithMachines(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.ForceSplit("nope"); err == nil {
		t.Fatal("ForceSplit on unknown stage must error")
	}
	frag := ""
	for f := range job.Partitions() {
		frag = f
		break
	}
	// No shards exist yet — nothing to split or merge.
	if err := job.ForceSplit(frag); err == nil {
		t.Fatal("ForceSplit with no splittable worker must error")
	}
	if err := job.ForceMerge(frag); err == nil {
		t.Fatal("ForceMerge with a single worker must error")
	}
	job.Flush()
	if err := job.ForceSplit(frag); !errors.Is(err, ErrFlushed) {
		t.Fatalf("ForceSplit after Flush: err = %v, want ErrFlushed", err)
	}
}
