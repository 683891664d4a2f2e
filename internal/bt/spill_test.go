package bt

import (
	"testing"

	"timr/internal/core"
	"timr/internal/mapreduce"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// spillAll, as a MemoryBudget, spills every shuffle run and output
// segment: any negative budget does.
const spillAll int64 = -1

// TestPipelineLowBudgetMatchesResident is the out-of-core gate run by
// `make check` under -race: the full BT pipeline (BotElim through Score)
// with the memory budget squeezed to a few KB — and with spilling forced
// outright — must produce every phase output bit-identical to the
// all-resident run.
func TestPipelineLowBudgetMatchesResident(t *testing.T) {
	d := workload.Generate(workload.Config{
		Users: 150, Keywords: 300, AdClasses: 3, Days: 1, Seed: 11,
		BotFraction: 0.02,
	})
	p := DefaultParams()
	p.T1, p.T2 = 30, 60
	p.TrainPeriod = 12 * temporal.Hour

	run := func(budget int64) (map[string][]temporal.Event, int) {
		cl := mapreduce.NewCluster(mapreduce.Config{
			Machines: 4, MemoryBudget: budget, SpillDir: t.TempDir(),
		})
		tm := core.New(cl, core.DefaultConfig())
		cl.FS.Write("events", mapreduce.SinglePartition(workload.UnifiedSchema(), d.Rows))
		pl := NewPipeline(p, tm)
		if err := pl.Run("events"); err != nil {
			t.Fatal(err)
		}
		// Read every output before Close: spilled result segments live in
		// the cluster's spill dir.
		out := make(map[string][]temporal.Event, len(pl.Phases))
		spilled := 0
		for _, ph := range pl.Phases {
			evs, err := pl.Events(ph.Output)
			if err != nil {
				t.Fatalf("%s: %v", ph.Name, err)
			}
			out[ph.Output] = evs
			spilled += ph.SpillSegments
		}
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
		return out, spilled
	}

	want, residentSpills := run(0)
	if residentSpills != 0 {
		t.Fatalf("unlimited budget spilled %d segments", residentSpills)
	}
	for _, budget := range []int64{spillAll, 4 << 10} {
		got, spilled := run(budget)
		if spilled == 0 {
			t.Errorf("budget=%d: pipeline recorded no spill activity", budget)
		}
		for ds, evs := range want {
			if !temporal.EventsEqual(got[ds], evs) {
				t.Errorf("budget=%d: %s diverges from resident run (%d vs %d events)",
					budget, ds, len(got[ds]), len(evs))
			}
		}
	}
}
