package baseline

import (
	"testing"

	"timr/internal/bt"
	"timr/internal/core"
	"timr/internal/mapreduce"
	"timr/internal/ml"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// mustRead fetches a dataset the test expects to exist.
func mustRead(t *testing.T, fs *mapreduce.FS, name string) *mapreduce.Dataset {
	t.Helper()
	d, err := fs.Read(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustReadAll(t *testing.T, ds *mapreduce.Dataset) []mapreduce.Row {
	t.Helper()
	rows, err := ds.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestCustomBTJobMatchesTiMRPipeline(t *testing.T) {
	// The full Figure-14 comparison is only fair if the staged custom job
	// computes the same result as TiMR's pipeline on the same cluster.
	d := workload.Generate(workload.Config{
		Users: 300, Keywords: 150, AdClasses: 2, Days: 2, Seed: 9,
		BotFraction: 0.02, BaseCTR: 0.1,
	})
	p := bt.DefaultParams()
	p.T1, p.T2 = 25, 50
	p.TrainPeriod = 24 * temporal.Hour
	p.ZThreshold = 0
	cp := CustomParams{
		T1: p.T1, T2: p.T2, BotHop: p.BotHop, Tau: p.Tau, D: p.D,
		TrainPeriod: p.TrainPeriod, ZThreshold: p.ZThreshold, ModelEpochs: p.ModelEpochs,
	}

	// Custom staged job.
	cl1 := mapreduce.NewCluster(mapreduce.Config{Machines: 4})
	cl1.FS.Write("events", mapreduce.SinglePartition(workload.UnifiedSchema(), d.Rows))
	stat, err := CustomBTJob(cl1, "events", cp)
	if err != nil {
		t.Fatal(err)
	}
	if len(stat.Stages) != 6 {
		t.Fatalf("stages = %d", len(stat.Stages))
	}

	// TiMR pipeline.
	cl2 := mapreduce.NewCluster(mapreduce.Config{Machines: 4})
	tm := core.New(cl2, core.DefaultConfig())
	cl2.FS.Write("events", mapreduce.SinglePartition(workload.UnifiedSchema(), d.Rows))
	pipe := bt.NewPipeline(p, tm)
	if err := pipe.Run("events"); err != nil {
		t.Fatal(err)
	}

	// Compare the train datasets (the richest intermediate) as multisets.
	timrTrain, err := pipe.Events(bt.DSTrain)
	if err != nil {
		t.Fatal(err)
	}
	customTrain := mustReadAll(t, mustRead(t, cl1.FS, CustomDSTrain))
	sameRowMultiset(t, "train", customTrain, eventPayloadRows(timrTrain))

	// And the reduced datasets.
	timrReduced, err := pipe.Events(bt.DSReduced)
	if err != nil {
		t.Fatal(err)
	}
	customReduced := mustReadAll(t, mustRead(t, cl1.FS, CustomDSReduced))
	sameRowMultiset(t, "reduced", customReduced, eventPayloadRows(timrReduced))

	// Models from the staged job must parse and carry weights.
	models := mustReadAll(t, mustRead(t, cl1.FS, CustomDSModels))
	if len(models) == 0 {
		t.Fatal("no models")
	}
	for _, r := range models {
		m, err := bt.ParseModel(r[1].AsString())
		if err != nil {
			t.Fatal(err)
		}
		if m == nil {
			t.Fatal("nil model")
		}
	}
}

func TestCustomBTJobDeterministicUnderFailures(t *testing.T) {
	d := workload.Generate(workload.Config{
		Users: 150, Keywords: 100, AdClasses: 2, Days: 1, Seed: 4, BaseCTR: 0.1,
	})
	cp := CustomParams{
		T1: 25, T2: 50, BotHop: 15 * temporal.Minute, Tau: 6 * temporal.Hour,
		D: 5 * temporal.Minute, TrainPeriod: 12 * temporal.Hour, ModelEpochs: 5,
	}
	var ref []temporal.Row
	for seed := int64(0); seed < 3; seed++ {
		cl := mapreduce.NewCluster(mapreduce.Config{
			Machines: 3, FailureRate: 0.3, MaxAttempts: 50, Seed: seed,
		})
		cl.FS.Write("events", mapreduce.SinglePartition(workload.UnifiedSchema(), d.Rows))
		if _, err := CustomBTJob(cl, "events", cp); err != nil {
			t.Fatal(err)
		}
		got := mustReadAll(t, mustRead(t, cl.FS, CustomDSTrain))
		if ref == nil {
			ref = got
		} else {
			sameRowMultiset(t, "train-under-failures", ref, got)
		}
	}
}

func TestSerializeCustomModel(t *testing.T) {
	m := &ml.Model{Bias: 0.25, Weights: map[int64]float64{7: -1, 3: 2}}
	s := serializeCustomModel(m)
	back, err := bt.ParseModel(s) // wire format is shared
	if err != nil {
		t.Fatal(err)
	}
	if back.Bias != 0.25 || back.Weights[7] != -1 || back.Weights[3] != 2 {
		t.Fatalf("round trip: %q -> %+v", s, back)
	}
}

func TestCustomRunningClickCountStageOnCluster(t *testing.T) {
	cl := mapreduce.NewCluster(mapreduce.Config{Machines: 4})
	schema := temporal.NewSchema(
		temporal.Field{Name: "Time", Kind: temporal.KindInt},
		temporal.Field{Name: "UserId", Kind: temporal.KindInt},
		temporal.Field{Name: "AdId", Kind: temporal.KindInt},
	)
	var rows []temporal.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, clickRow(temporal.Time(i), int64(i), int64(i%3)))
	}
	cl.FS.Write("clicks", mapreduce.SinglePartition(schema, rows))
	if _, err := cl.Run(CustomRunningClickCountStage("clicks", "out", 10)); err != nil {
		t.Fatal(err)
	}
	out := mustRead(t, cl.FS, "out")
	if out.Rows() != 100 {
		t.Fatalf("rows = %d, want one per click", out.Rows())
	}
}
