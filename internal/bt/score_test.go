package bt

import (
	"math"
	"testing"

	"timr/internal/core"
	"timr/internal/mapreduce"
	"timr/internal/ml"
	"timr/internal/stats"
	"timr/internal/temporal"
	"timr/internal/workload"
)

func TestScorePlanMatchesDirectPrediction(t *testing.T) {
	p := testParams()
	// Model trained in window 0 is valid for window 1 ([P, 2P)).
	m := &ml.Model{Bias: -0.5, Weights: map[int64]float64{100: 1.5, 200: -2.0}}
	blob := SerializeModel(m)
	models := []temporal.Event{{
		LE: int64(p.TrainPeriod), RE: 2 * int64(p.TrainPeriod),
		Payload: temporal.Row{temporal.Int(ad1), temporal.String(blob)},
	}}

	// Two test impressions inside the model's validity window.
	base := int64(p.TrainPeriod)
	mkRow := func(t int64, user int64, kw int64, cnt int64) temporal.Row {
		return temporal.Row{
			temporal.Int(t), temporal.Int(user), temporal.Int(ad1),
			temporal.Int(0), temporal.Int(kw), temporal.Int(cnt),
		}
	}
	rows := []temporal.Row{
		mkRow(base+1000, 1, 100, 2), // features {100: 2}
		mkRow(base+2000, 2, 100, 1), // features {100: 1, 200: 3}
		mkRow(base+2000, 2, 200, 3),
	}
	out, err := temporal.RunPlan(ScorePlan(p, false), map[string][]temporal.Event{
		SourceReduced: pointEvents(rows),
		SourceModels:  models,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("scored %d impressions, want 2: %v", len(out), out)
	}
	want1 := stats.Sigmoid(-0.5 + 1.5*2)
	want2 := stats.Sigmoid(-0.5 + 1.5*1 - 2.0*3)
	got := map[int64]float64{}
	for _, e := range out {
		got[e.Payload[1].AsInt()] = e.Payload[4].AsFloat()
	}
	if math.Abs(got[1]-want1) > 1e-9 {
		t.Errorf("user 1 score = %v, want %v", got[1], want1)
	}
	if math.Abs(got[2]-want2) > 1e-9 {
		t.Errorf("user 2 score = %v, want %v", got[2], want2)
	}
	// Direct prediction agreement.
	direct := m.Predict([]ml.Feature{{ID: 100, Val: 1}, {ID: 200, Val: 3}})
	if math.Abs(got[2]-direct) > 1e-9 {
		t.Errorf("CQ score %v != model.Predict %v", got[2], direct)
	}
}

func TestScorePlanIgnoresRowsOutsideModelValidity(t *testing.T) {
	p := testParams()
	m := &ml.Model{Bias: 0, Weights: map[int64]float64{100: 1}}
	models := []temporal.Event{{
		LE: int64(p.TrainPeriod), RE: 2 * int64(p.TrainPeriod),
		Payload: temporal.Row{temporal.Int(ad1), temporal.String(blobOf(m))},
	}}
	rows := []temporal.Row{{
		temporal.Int(10), temporal.Int(1), temporal.Int(ad1), // before validity
		temporal.Int(0), temporal.Int(100), temporal.Int(1),
	}}
	out, err := temporal.RunPlan(ScorePlan(p, false), map[string][]temporal.Event{
		SourceReduced: pointEvents(rows),
		SourceModels:  models,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("rows outside model validity must not be scored: %v", out)
	}
}

func blobOf(m *ml.Model) string { return SerializeModel(m) }

func TestEndToEndModelAndScore(t *testing.T) {
	// Train on window 0 (via ModelPlan) and score window-1 rows (via
	// ScorePlan): the full M3 loop in CQs.
	p := testParams()
	p.TrainPeriod = 200 * temporal.Second
	_, train := buildCorrelatedLog() // all rows within [0, 306s)... spread over window 0 and 1

	models, err := temporal.RunPlan(ModelPlan(p, false), map[string][]temporal.Event{
		SourceReduced: pointEvents(train),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(models) == 0 {
		t.Fatal("no models")
	}
	// Score the rows of the second window with the first window's model.
	// The fixture's second window carries a single keyword, so vary the
	// counts to get distinguishable feature vectors.
	var testRows []temporal.Row
	for i, r := range train {
		if r[0].AsInt() >= int64(p.TrainPeriod) {
			r = r.Clone()
			r[5] = temporal.Int(int64(i%3) + 1)
			testRows = append(testRows, r)
		}
	}
	if len(testRows) == 0 {
		t.Fatal("no test rows")
	}
	out, err := temporal.RunPlan(ScorePlan(p, false), map[string][]temporal.Event{
		SourceReduced: pointEvents(testRows),
		SourceModels:  models,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no scores")
	}
	// Higher scores should skew toward clicked impressions (kw100 was
	// planted positive in the fixture's first window... the second window
	// of the fixture is the kw300 background, so just check scores are
	// within (0,1) and vary).
	lo, hi := 1.0, 0.0
	for _, e := range out {
		s := e.Payload[4].AsFloat()
		if s <= 0 || s >= 1 {
			t.Fatalf("score %v out of range", s)
		}
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if lo == hi {
		t.Error("all scores identical; model carries no signal")
	}
}

// TestScoreStageConcurrentReducers runs the whole DAG — Score included —
// through TiMR on eight machines, repeatedly. Every reducer of the Score
// stage compiles the same ScorePlan and so shares its closures; the model
// cache behind them once was a plain map and died with "concurrent map
// read and map write". Run under -race (make race / make check).
func TestScoreStageConcurrentReducers(t *testing.T) {
	d := workload.Generate(workload.Config{
		Users: 120, Keywords: 200, AdClasses: 8, Days: 2, Seed: 5,
		BaseCTR: 0.18, NegDamp: 0.5, PosLift: 3,
	})
	p := DefaultParams()
	p.TrainPeriod = temporal.Day
	var want []temporal.Event
	for run := 0; run < 20; run++ {
		cl := mapreduce.NewCluster(mapreduce.Config{Machines: 8})
		cl.FS.Write("events", mapreduce.SinglePartition(workload.UnifiedSchema(), d.Rows))
		pl := NewPipeline(p, core.New(cl, core.DefaultConfig()))
		if err := pl.Run("events"); err != nil {
			t.Fatal(err)
		}
		if n := len(pl.Phases); n != len(Stages(false)) {
			t.Fatalf("run %d: %d phases, want all %d stages", run, n, len(Stages(false)))
		}
		got, err := pl.Events(DSPredictions)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			if want = got; len(want) == 0 {
				t.Fatal("Score stage produced no predictions")
			}
		} else if !temporal.EventsEqual(got, want) {
			t.Fatalf("run %d: %d predictions differ from run 0's %d", run, len(got), len(want))
		}
	}
}
