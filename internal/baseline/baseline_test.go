package baseline

import (
	"math"
	"sort"
	"testing"

	"timr/internal/bt"
	"timr/internal/mapreduce"
	"timr/internal/ml"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// rowSource reads rows through the RowReader of a resident segment.
func rowSource(rows []temporal.Row) RowSource {
	return mapreduce.NewRowReader(mapreduce.ResidentSegment(rows, false)).Next
}

func clickRow(t temporal.Time, user, ad int64) temporal.Row {
	return temporal.Row{temporal.Int(t), temporal.Int(user), temporal.Int(ad)}
}

func TestScopeSelfJoinMatchesOracle(t *testing.T) {
	rows := []temporal.Row{
		clickRow(10, 1, 100),
		clickRow(15, 2, 100),
		clickRow(30, 3, 100),
		clickRow(12, 4, 200),
	}
	out, ok, err := ScopeRunningClickCount(rowSource(rows), 10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("aborted")
	}
	// ad 100: t=10 → {10}; t=15 → {10,15}; t=30 → {30} (others expired).
	cases := map[[2]int64]int64{
		{10, 100}: 1, {15, 100}: 2, {30, 100}: 1, {12, 200}: 1,
	}
	for k, want := range cases {
		if out[k] != want {
			t.Errorf("count%v = %d, want %d", k, out[k], want)
		}
	}
}

func TestScopeSelfJoinIntractable(t *testing.T) {
	// A dense single-ad log: join output grows quadratically and blows
	// the cap — the paper's "prohibitively expensive" outcome.
	var rows []temporal.Row
	for i := 0; i < 2000; i++ {
		rows = append(rows, clickRow(temporal.Time(i), int64(i), 1))
	}
	if _, ok, err := ScopeRunningClickCount(rowSource(rows), 10_000, 100_000); err != nil || ok {
		t.Fatalf("expected the self-join to exceed the output cap (ok=%v err=%v)", ok, err)
	}
	if n, err := ScopeJoinOutputSize(rowSource(rows), 10_000); err != nil || n < 1_000_000 {
		t.Errorf("predicted join size %d, want ~2M (err=%v)", n, err)
	}
}

func TestScopeJoinSizePredictionMatches(t *testing.T) {
	var rows []temporal.Row
	for i := 0; i < 300; i++ {
		rows = append(rows, clickRow(temporal.Time(i*3%101), int64(i), int64(i%5)))
	}
	out, ok, err := ScopeRunningClickCount(rowSource(rows), 50, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("unexpected abort")
	}
	var materialized int64
	for _, c := range out {
		materialized += c
	}
	if predicted, err := ScopeJoinOutputSize(rowSource(rows), 50); err != nil || predicted != materialized {
		t.Errorf("predicted %d != materialized %d (err=%v)", predicted, materialized, err)
	}
}

func TestCustomRunningClickCountMatchesCQ(t *testing.T) {
	// The custom linked-list reducer must agree with the declarative
	// windowed count at every click instant.
	var rows []temporal.Row
	for i := 0; i < 500; i++ {
		rows = append(rows, clickRow(temporal.Time(i*7%997), int64(i), int64(i%3)))
	}
	w := temporal.Time(100)
	custom := CustomRunningClickCount(rows, w)

	schema := temporal.NewSchema(
		temporal.Field{Name: "Time", Kind: temporal.KindInt},
		temporal.Field{Name: "UserId", Kind: temporal.KindInt},
		temporal.Field{Name: "AdId", Kind: temporal.KindInt},
	)
	plan := temporal.Scan("clicks", schema).
		GroupApply([]string{"AdId"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(w).Count("C")
		})
	events, err := temporal.RunPlan(plan, map[string][]temporal.Event{
		"clicks": temporal.RowsToPointEvents(rows, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	cqAt := func(ad int64, tm temporal.Time) int64 {
		for _, e := range events {
			if e.Payload[0].AsInt() == ad && e.Contains(tm) {
				return e.Payload[1].AsInt()
			}
		}
		return -1
	}
	for _, r := range custom {
		tm, ad, cnt := r[0].AsInt(), r[1].AsInt(), r[2].AsInt()
		if got := cqAt(ad, tm); got != cnt {
			t.Fatalf("ad %d @%d: custom %d, CQ %d", ad, tm, cnt, got)
		}
	}
}

// rowsKey flattens a row for multiset comparison.
func rowsKey(r temporal.Row) string {
	s := ""
	for _, v := range r {
		s += v.String() + "|"
	}
	return s
}

func sameRowMultiset(t *testing.T, name string, a, b []temporal.Row) {
	t.Helper()
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i, r := range a {
		ka[i] = rowsKey(r)
	}
	for i, r := range b {
		kb[i] = rowsKey(r)
	}
	sort.Strings(ka)
	sort.Strings(kb)
	if len(ka) != len(kb) {
		t.Fatalf("%s: %d rows vs %d rows", name, len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("%s: multiset differs at %d: %s vs %s", name, i, ka[i], kb[i])
		}
	}
}

func eventPayloadRows(evs []temporal.Event) []temporal.Row {
	out := make([]temporal.Row, len(evs))
	for i, e := range evs {
		out[i] = e.Payload
	}
	return out
}

func TestCustomBTPipelineMatchesCQPipeline(t *testing.T) {
	// The headline §V-B comparison is only meaningful if both pipelines
	// compute the same thing. Verify phase by phase on generated data.
	d := workload.Generate(workload.Config{
		Users: 400, Keywords: 120, AdClasses: 2, Days: 2, Seed: 5,
		BotFraction: 0.03, BaseCTR: 0.08,
	})
	p := bt.DefaultParams()
	p.T1, p.T2 = 20, 40
	p.TrainPeriod = 24 * temporal.Hour
	p.ZThreshold = 0
	cp := CustomParams{
		T1: p.T1, T2: p.T2, BotHop: p.BotHop, Tau: p.Tau, D: p.D,
		TrainPeriod: p.TrainPeriod, ZThreshold: p.ZThreshold, ModelEpochs: p.ModelEpochs,
	}

	cq, err := bt.RunSingleNode(p, d.Events())
	if err != nil {
		t.Fatal(err)
	}
	clean := CustomBotElim(d.Rows, cp)
	labeled := CustomLabel(clean, cp)
	train := CustomTrainData(labeled, clean, cp)
	scores := CustomFeatureSelect(labeled, train, cp)
	models := CustomModels(CustomReduce(train, scores, cp.TrainPeriod), cp)

	sameRowMultiset(t, "clean", clean, eventPayloadRows(cq[bt.DSClean]))
	sameRowMultiset(t, "labeled", labeled, eventPayloadRows(cq[bt.DSLabeled]))
	sameRowMultiset(t, "train", train, eventPayloadRows(cq[bt.DSTrain]))

	// Scores: compare (ad, keyword, window, z) sets.
	type sk struct {
		ad, kw, win int64
	}
	cqScores := map[sk]float64{}
	for _, e := range cq[bt.DSScores] {
		win := e.LE/int64(p.TrainPeriod) - 1 // scores valid one period later
		cqScores[sk{e.Payload[0].AsInt(), e.Payload[1].AsInt(), win}] = e.Payload[2].AsFloat()
	}
	if len(cqScores) == 0 {
		t.Fatal("fixture produced no scored keywords; the comparison is vacuous")
	}
	if len(scores) != len(cqScores) {
		t.Fatalf("scores: custom %d vs CQ %d", len(scores), len(cqScores))
	}
	for _, s := range scores {
		z, ok := cqScores[sk{s.AdID, s.Keyword, s.Win}]
		if !ok {
			t.Fatalf("CQ missing score for %+v", s)
		}
		if math.Abs(z-s.Z) > 1e-6 {
			t.Fatalf("z mismatch for %+v: %v vs %v", s, s.Z, z)
		}
	}

	// Reduced data must agree too.
	reduced := CustomReduce(train, scores, p.TrainPeriod)
	sameRowMultiset(t, "reduced", reduced, eventPayloadRows(cq[bt.DSReduced]))

	if len(models) == 0 {
		t.Error("custom pipeline produced no models")
	}
}

func TestSchemesKEZ(t *testing.T) {
	s := NewKEZ(map[int64]float64{1: 3.0, 2: -2.5, 3: 0.5}, 1.28)
	fs := []ml.Feature{{ID: 1, Val: 1}, {ID: 2, Val: 2}, {ID: 3, Val: 3}, {ID: 4, Val: 4}}
	out := s.Transform(fs)
	if len(out) != 2 || out[0].ID != 1 || out[1].ID != 2 {
		t.Fatalf("out = %v", out)
	}
	if s.Dims() != 2 {
		t.Errorf("Dims = %d", s.Dims())
	}
	if s.Name() != "KE-1.28" {
		t.Errorf("Name = %s", s.Name())
	}
}

func TestSchemesKEPop(t *testing.T) {
	pop := map[int64]int64{10: 100, 20: 50, 30: 200, 40: 1}
	s := NewKEPop(pop, 2)
	out := s.Transform([]ml.Feature{{ID: 10, Val: 1}, {ID: 20, Val: 1}, {ID: 30, Val: 1}})
	if len(out) != 2 { // 30 and 10 are the top 2
		t.Fatalf("out = %v", out)
	}
	if s.Dims() != 2 {
		t.Errorf("Dims = %d", s.Dims())
	}
	// topN larger than vocabulary clamps.
	if NewKEPop(pop, 100).Dims() != 4 {
		t.Error("clamp failed")
	}
}

func TestSchemesFEx(t *testing.T) {
	s := NewFEx(2000)
	fs := []ml.Feature{{ID: 42, Val: 2}, {ID: 99, Val: 1}}
	out := s.Transform(fs)
	if len(out) == 0 {
		t.Fatal("no categories")
	}
	for _, f := range out {
		if f.ID < CategoryBase || f.ID >= CategoryBase+2000 {
			t.Fatalf("category id %d out of range", f.ID)
		}
	}
	// Deterministic mapping.
	out2 := s.Transform(fs)
	if len(out) != len(out2) {
		t.Fatal("mapping not deterministic")
	}
	for i := range out {
		if out[i] != out2[i] {
			t.Fatal("mapping not deterministic")
		}
	}
	// Every keyword maps to 1..3 categories.
	for kw := int64(0); kw < 200; kw++ {
		n := len(s.Transform([]ml.Feature{{ID: kw, Val: 1}}))
		if n < 1 || n > 3 {
			t.Fatalf("keyword %d maps to %d categories", kw, n)
		}
	}
	if s.Dims() != 2000 || s.Name() != "F-Ex" {
		t.Error("metadata")
	}
}

func TestSchemeIdentityAndTransformExamples(t *testing.T) {
	ex := []ml.Example{
		{Features: []ml.Feature{{ID: 1, Val: 1}}, Clicked: true},
		{Features: []ml.Feature{{ID: 2, Val: 1}}, Clicked: false},
	}
	out := TransformExamples(Identity(), ex)
	if len(out) != 2 || !out[0].Clicked || len(out[0].Features) != 1 {
		t.Fatalf("out = %+v", out)
	}
	drop := NewKEZ(nil, 1.0)
	out = TransformExamples(drop, ex)
	if len(out[0].Features) != 0 || out[1].Clicked {
		t.Fatal("labels/features mishandled")
	}
}

func TestCustomModelsLearn(t *testing.T) {
	// Reuse the bt test fixture idea: keyword 100 positive, 200 negative.
	var train []temporal.Row
	ad := workload.AdIDBase
	mk := func(i int, clicked int64, kw int64) {
		train = append(train, temporal.Row{
			temporal.Int(int64(i) * 1000), temporal.Int(int64(i)), temporal.Int(ad),
			temporal.Int(clicked), temporal.Int(kw), temporal.Int(1),
		})
	}
	for i := 0; i < 60; i++ {
		c := int64(0)
		if i%2 == 0 {
			c = 1
		}
		if i < 30 {
			mk(i, c|boolToInt(i%4 != 3), 100) // mostly clicked with kw100
		} else {
			mk(i, c&boolToInt(i%4 == 0), 200) // mostly not clicked with kw200
		}
	}
	models := CustomModels(train, CustomParams{ModelEpochs: 40})
	m := models[ad]
	if m == nil {
		t.Fatal("no model")
	}
	if m.Predict([]ml.Feature{{ID: 100, Val: 1}}) <= m.Predict([]ml.Feature{{ID: 200, Val: 1}}) {
		t.Error("model failed to learn the planted signal")
	}
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
