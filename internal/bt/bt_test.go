package bt

import (
	"math"
	"math/rand"
	"testing"

	"timr/internal/core"
	"timr/internal/mapreduce"
	"timr/internal/ml"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// row builds a unified-schema row.
func row(t temporal.Time, stream, user, kwAd int64) temporal.Row {
	return temporal.Row{temporal.Int(t), temporal.Int(stream), temporal.Int(user), temporal.Int(kwAd)}
}

func pointEvents(rows []temporal.Row) []temporal.Event {
	return temporal.RowsToPointEvents(rows, 0)
}

func testParams() Params {
	p := DefaultParams()
	p.T1, p.T2 = 5, 8 // small thresholds for hand-built logs
	p.BotHop = temporal.Minute
	p.Tau = 10 * temporal.Minute
	p.TrainPeriod = temporal.Hour
	p.ZThreshold = 0
	return p
}

const ad1 = workload.AdIDBase // first ad id

func TestBotElimRemovesBots(t *testing.T) {
	p := testParams()
	var rows []temporal.Row
	// User 1: normal — 2 searches, 1 impression.
	rows = append(rows,
		row(1000, workload.StreamKeyword, 1, 10),
		row(2000, workload.StreamKeyword, 1, 11),
		row(3000, workload.StreamImpression, 1, ad1),
	)
	// User 2: bot — 10 clicks within τ (> T1=5).
	for i := 0; i < 10; i++ {
		rows = append(rows, row(temporal.Time(1000+i*100), workload.StreamClick, 2, ad1))
	}
	// Bot's later activity (within the flagged window) must be dropped.
	rows = append(rows, row(70_000, workload.StreamKeyword, 2, 12))

	out, err := temporal.RunPlan(BotElimPlan(p, false), map[string][]temporal.Event{
		SourceEvents: pointEvents(rows),
	})
	if err != nil {
		t.Fatal(err)
	}
	var user1, user2 int
	for _, e := range out {
		switch e.Payload[2].AsInt() {
		case 1:
			user1++
		case 2:
			user2++
		}
	}
	if user1 != 3 {
		t.Errorf("normal user kept %d/3 events", user1)
	}
	// The bot's first few clicks happen before the count crosses the
	// threshold (the bot list updates at hop boundaries), but events in
	// flagged windows must disappear — in particular the one at t=70s.
	if user2 >= 11 {
		t.Errorf("bot events not removed: kept %d", user2)
	}
	for _, e := range out {
		if e.Payload[2].AsInt() == 2 && e.LE == 70_000 {
			t.Error("bot event inside flagged window survived")
		}
	}
}

func TestBotElimSearchThreshold(t *testing.T) {
	p := testParams()
	var rows []temporal.Row
	// User 3 searches 12 times (> T2=8) — flagged via the search branch.
	for i := 0; i < 12; i++ {
		rows = append(rows, row(temporal.Time(1000+i*100), workload.StreamKeyword, 3, int64(20+i)))
	}
	rows = append(rows, row(80_000, workload.StreamImpression, 3, ad1))
	out, err := temporal.RunPlan(BotElimPlan(p, false), map[string][]temporal.Event{
		SourceEvents: pointEvents(rows),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range out {
		if e.LE == 80_000 {
			t.Error("search-bot impression survived")
		}
	}
}

func TestLabelPlanSeparatesClicksAndNonClicks(t *testing.T) {
	p := testParams()
	rows := []temporal.Row{
		// Impression at 1000 followed by a click at 60000 (within 5 min)
		// → the impression is NOT a non-click; the click is labeled 1.
		row(1000, workload.StreamImpression, 1, ad1),
		row(60_000, workload.StreamClick, 1, ad1),
		// Impression at 1000 for another ad with no click → non-click.
		row(1000, workload.StreamImpression, 1, ad1+1),
		// Impression by another user, no click → non-click.
		row(2000, workload.StreamImpression, 2, ad1),
	}
	out, err := temporal.RunPlan(LabelPlan(p, false), map[string][]temporal.Event{
		SourceClean: pointEvents(rows),
	})
	if err != nil {
		t.Fatal(err)
	}
	type lab struct {
		t       temporal.Time
		user    int64
		ad      int64
		clicked int64
	}
	var got []lab
	for _, e := range out {
		got = append(got, lab{e.LE, e.Payload[1].AsInt(), e.Payload[2].AsInt(), e.Payload[3].AsInt()})
	}
	want := []lab{
		{1000, 1, ad1 + 1, 0},
		{2000, 2, ad1, 0},
		{60_000, 1, ad1, 1},
	}
	if len(got) != len(want) {
		t.Fatalf("labeled = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("labeled[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLabelPlanClickOutsideWindowIsNonClick(t *testing.T) {
	p := testParams()
	rows := []temporal.Row{
		row(1000, workload.StreamImpression, 1, ad1),
		// Click 20 minutes later — outside d=5min, so the impression
		// stays a non-click (and the click is still labeled 1).
		row(1000+20*temporal.Minute, workload.StreamClick, 1, ad1),
	}
	out, err := temporal.RunPlan(LabelPlan(p, false), map[string][]temporal.Event{
		SourceClean: pointEvents(rows),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
	if out[0].Payload[3].AsInt() != 0 || out[1].Payload[3].AsInt() != 1 {
		t.Fatalf("labels = %v", out)
	}
}

func TestUBPCountsWithinTau(t *testing.T) {
	p := testParams() // τ = 10 min
	rows := []temporal.Row{
		row(0, workload.StreamKeyword, 1, 42),
		row(temporal.Minute, workload.StreamKeyword, 1, 42),
		row(30*temporal.Minute, workload.StreamKeyword, 1, 42), // far later
	}
	clean := temporal.Scan(SourceClean, workload.UnifiedSchema())
	out, err := temporal.RunPlan(UBPPlan(p, clean), map[string][]temporal.Event{
		SourceClean: pointEvents(rows),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Snapshots: [1min, 10min) → 2; then decay; isolated 1 at 30min.
	at := func(t0 temporal.Time) int64 {
		for _, e := range out {
			if e.Contains(t0) {
				return e.Payload[2].AsInt()
			}
		}
		return -1
	}
	if got := at(2 * temporal.Minute); got != 2 {
		t.Errorf("count@2min = %d, want 2", got)
	}
	if got := at(11 * temporal.Minute); got > 1 {
		t.Errorf("count@11min = %d, want <=1 after expiry", got)
	}
	if got := at(31 * temporal.Minute); got != 1 {
		t.Errorf("count@31min = %d, want 1", got)
	}
}

func TestTrainDataJoinsUBPAtImpressionTime(t *testing.T) {
	p := testParams()
	labeled := []temporal.Row{
		{temporal.Int(5 * temporal.Minute), temporal.Int(1), temporal.Int(ad1), temporal.Int(1)},
	}
	clean := []temporal.Row{
		row(temporal.Minute, workload.StreamKeyword, 1, 42),
		row(2*temporal.Minute, workload.StreamKeyword, 1, 42),
		row(2*temporal.Minute+1, workload.StreamKeyword, 1, 77),
		row(20*temporal.Minute, workload.StreamKeyword, 1, 99), // after the impression
	}
	out, err := temporal.RunPlan(TrainDataPlan(p, false), map[string][]temporal.Event{
		SourceLabeled: pointEvents(labeled),
		SourceClean:   pointEvents(clean),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Expect two training rows: keyword 42 with count 2, keyword 77 with 1.
	if len(out) != 2 {
		t.Fatalf("train rows = %v", out)
	}
	counts := map[int64]int64{}
	for _, e := range out {
		if e.Payload[3].AsInt() != 1 {
			t.Errorf("clicked label lost: %v", e.Payload)
		}
		counts[e.Payload[4].AsInt()] = e.Payload[5].AsInt()
	}
	if counts[42] != 2 || counts[77] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if _, has99 := counts[99]; has99 {
		t.Error("future keyword leaked into the UBP")
	}
}

// buildCorrelatedLog synthesizes labeled+train rows where keyword 100 is
// strongly positive for ad1 and keyword 200 strongly negative.
func buildCorrelatedLog() (labeled, train []temporal.Row) {
	mk := func(i int, clicked int64, kws ...int64) {
		tm := temporal.Time(i) * temporal.Second
		labeled = append(labeled, temporal.Row{
			temporal.Int(tm), temporal.Int(int64(i)), temporal.Int(ad1), temporal.Int(clicked),
		})
		for _, kw := range kws {
			train = append(train, temporal.Row{
				temporal.Int(tm), temporal.Int(int64(i)), temporal.Int(ad1), temporal.Int(clicked),
				temporal.Int(kw), temporal.Int(1),
			})
		}
	}
	i := 0
	// 40 impressions with kw100: 30 clicked.
	for ; i < 40; i++ {
		c := int64(0)
		if i < 30 {
			c = 1
		}
		mk(i, c, 100)
	}
	// 60 impressions with kw200: none clicked.
	for ; i < 100; i++ {
		mk(i, 0, 200)
	}
	// A few clicks with kw200 to give the test support.
	for ; i < 106; i++ {
		mk(i, 1, 200)
	}
	// Background: 200 impressions with kw300 clicking at ~33% — close to
	// the complement's CTR, so the keyword is uncorrelated.
	for ; i < 306; i++ {
		c := int64(0)
		if i%3 == 0 {
			c = 1
		}
		mk(i, c, 300)
	}
	return labeled, train
}

func TestFeatureSelectFindsPlantedCorrelations(t *testing.T) {
	p := testParams()
	labeled, train := buildCorrelatedLog()
	out, err := temporal.RunPlan(FeatureSelectPlan(p, false), map[string][]temporal.Event{
		SourceLabeled: pointEvents(labeled),
		SourceTrain:   pointEvents(train),
	})
	if err != nil {
		t.Fatal(err)
	}
	z := map[int64]float64{}
	for _, e := range out {
		if e.Payload[0].AsInt() != ad1 {
			t.Errorf("unexpected ad id %d", e.Payload[0].AsInt())
		}
		z[e.Payload[1].AsInt()] = e.Payload[2].AsFloat()
	}
	if z[100] <= 2 {
		t.Errorf("z(kw100) = %v, want strongly positive", z[100])
	}
	if z[200] >= -2 {
		t.Errorf("z(kw200) = %v, want strongly negative", z[200])
	}
	if math.Abs(z[300]) > 2 {
		t.Errorf("z(kw300) = %v, want near zero", z[300])
	}
}

func TestFeatureSelectThresholdFilters(t *testing.T) {
	p := testParams()
	p.ZThreshold = 2.5
	labeled, train := buildCorrelatedLog()
	out, err := temporal.RunPlan(FeatureSelectPlan(p, false), map[string][]temporal.Event{
		SourceLabeled: pointEvents(labeled),
		SourceTrain:   pointEvents(train),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range out {
		kw := e.Payload[1].AsInt()
		if kw == 300 {
			t.Error("uncorrelated keyword survived the threshold")
		}
	}
	if len(out) < 2 {
		t.Errorf("planted keywords should survive, got %v", out)
	}
}

func TestReducePlanKeepsOnlyScoredKeywords(t *testing.T) {
	p := testParams()
	labeled, train := buildCorrelatedLog()
	p.ZThreshold = 2.5
	scores, err := temporal.RunPlan(FeatureSelectPlan(p, false), map[string][]temporal.Event{
		SourceLabeled: pointEvents(labeled),
		SourceTrain:   pointEvents(train),
	})
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := temporal.RunPlan(ReducePlan(p, false), map[string][]temporal.Event{
		SourceTrain:  pointEvents(train),
		SourceScores: scores,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reduced) == 0 {
		t.Fatal("no reduced rows")
	}
	for _, e := range reduced {
		kw := e.Payload[4].AsInt()
		if kw == 300 {
			t.Error("eliminated keyword still present in reduced data")
		}
	}
	if len(reduced) >= len(train) {
		t.Errorf("reduction did not shrink data: %d -> %d", len(train), len(reduced))
	}
}

func TestModelPlanEmitsUsableModel(t *testing.T) {
	p := testParams()
	labeled, train := buildCorrelatedLog()
	_ = labeled
	models, err := temporal.RunPlan(ModelPlan(p, false), map[string][]temporal.Event{
		SourceReduced: pointEvents(train),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(models) == 0 {
		t.Fatal("no model events")
	}
	e := models[0]
	if e.Payload[0].AsInt() != ad1 {
		t.Errorf("model ad = %d", e.Payload[0].AsInt())
	}
	m, err := ParseModel(e.Payload[1].AsString())
	if err != nil {
		t.Fatal(err)
	}
	pPos := m.Predict([]ml.Feature{{ID: 100, Val: 1}})
	pNeg := m.Predict([]ml.Feature{{ID: 200, Val: 1}})
	if pPos <= pNeg {
		t.Errorf("model did not learn: P(click|kw100)=%v <= P(click|kw200)=%v", pPos, pNeg)
	}
}

func TestSerializeParseModelRoundTrip(t *testing.T) {
	m := &ml.Model{Bias: -1.25, Weights: map[int64]float64{3: 0.5, 1: -2.75}}
	s := SerializeModel(m)
	back, err := ParseModel(s)
	if err != nil {
		t.Fatal(err)
	}
	if back.Bias != m.Bias || len(back.Weights) != 2 ||
		back.Weights[1] != -2.75 || back.Weights[3] != 0.5 {
		t.Fatalf("round trip: %q -> %+v", s, back)
	}
	if SerializeModel(m) != s {
		t.Error("serialization not deterministic")
	}
	if _, err := ParseModel("garbage"); err == nil {
		t.Error("garbage must not parse")
	}
	if _, err := ParseModel("1.5;bad"); err == nil {
		t.Error("bad term must not parse")
	}
	empty, err := ParseModel("0.5;")
	if err != nil || empty.Bias != 0.5 || len(empty.Weights) != 0 {
		t.Error("empty weight list must parse")
	}
}

func TestRowsToExamples(t *testing.T) {
	rows := []temporal.Row{
		{temporal.Int(10), temporal.Int(1), temporal.Int(ad1), temporal.Int(1), temporal.Int(5), temporal.Int(2)},
		{temporal.Int(10), temporal.Int(1), temporal.Int(ad1), temporal.Int(1), temporal.Int(7), temporal.Int(1)},
		{temporal.Int(20), temporal.Int(2), temporal.Int(ad1), temporal.Int(0), temporal.Int(5), temporal.Int(3)},
	}
	ex := RowsToExamples(rows)
	if len(ex) != 2 {
		t.Fatalf("examples = %d", len(ex))
	}
	if !ex[0].Clicked || len(ex[0].Features) != 2 {
		t.Errorf("ex0 = %+v", ex[0])
	}
	if ex[1].Clicked || ex[1].Features[0].Val != 3 {
		t.Errorf("ex1 = %+v", ex[1])
	}
}

// TestRowsToExamplesOrderInvariant: when two users see one ad at one
// instant, the window's rows reach the model UDO in whatever order the run
// merged them. The fitted model must not depend on it.
func TestRowsToExamplesOrderInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var rows []temporal.Row
	for i := 0; i < 400; i++ {
		ts, user := int64(i/4), int64(i%4*3+r.Intn(3)) // four distinct users per instant
		clicked := int64(r.Intn(2))
		for n := 1 + r.Intn(3); n > 0; n-- {
			rows = append(rows, temporal.Row{temporal.Int(ts), temporal.Int(user), temporal.Int(ad1),
				temporal.Int(clicked), temporal.Int(int64(r.Intn(8))), temporal.Int(int64(1 + r.Intn(4)))})
		}
	}
	want := SerializeModel(ml.TrainLR(RowsToExamples(rows), 0))
	for seed := int64(1); seed <= 3; seed++ {
		perm := append([]temporal.Row(nil), rows...)
		rand.New(rand.NewSource(seed)).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if got := SerializeModel(ml.TrainLR(RowsToExamples(perm), 0)); got != want {
			t.Fatalf("permutation %d fits a different model:\n%s\n%s", seed, got, want)
		}
	}
}

func TestAddEmptyExamples(t *testing.T) {
	labeled := []temporal.Row{
		{temporal.Int(10), temporal.Int(1), temporal.Int(ad1), temporal.Int(0)},
		{temporal.Int(20), temporal.Int(2), temporal.Int(ad1), temporal.Int(1)},
		{temporal.Int(30), temporal.Int(3), temporal.Int(ad1 + 1), temporal.Int(0)}, // other ad
	}
	train := []temporal.Row{
		{temporal.Int(10), temporal.Int(1), temporal.Int(ad1), temporal.Int(0), temporal.Int(5), temporal.Int(1)},
	}
	ex := RowsToExamples(train)
	ex = AddEmptyExamples(ex, labeled, train, ad1)
	if len(ex) != 2 {
		t.Fatalf("examples = %d", len(ex))
	}
	if !ex[1].Clicked || len(ex[1].Features) != 0 {
		t.Errorf("empty example = %+v", ex[1])
	}
}

func TestQueryInventoryCount(t *testing.T) {
	// Figure 14: "end-to-end BT using TiMR uses 20 easy-to-write temporal
	// queries."
	if got := len(QueryInventory()); got != 20 {
		t.Errorf("query inventory = %d, want 20", got)
	}
}

func TestPipelineOnTiMRMatchesSingleNode(t *testing.T) {
	// The whole BT pipeline, executed phase-by-phase on the cluster, must
	// equal the single-node run — over generated data with bots.
	d := workload.Generate(workload.Config{
		Users: 150, Keywords: 300, AdClasses: 3, Days: 1, Seed: 11,
		BotFraction: 0.02,
	})
	p := DefaultParams()
	p.T1, p.T2 = 30, 60
	p.TrainPeriod = 12 * temporal.Hour

	cl := mapreduce.NewCluster(mapreduce.Config{Machines: 4})
	tm := core.New(cl, core.DefaultConfig())
	cl.FS.Write("events", mapreduce.SinglePartition(workload.UnifiedSchema(), d.Rows))
	pl := NewPipeline(p, tm)
	if err := pl.Run("events"); err != nil {
		t.Fatal(err)
	}
	if len(pl.Phases) != 7 {
		t.Fatalf("phases = %d", len(pl.Phases))
	}

	single, err := RunSingleNode(p, d.Events())
	if err != nil {
		t.Fatal(err)
	}
	// Models too: RowsToExamples orders a window's examples itself, so the
	// order partitions happened to merge in does not reach the SGD.
	for _, ds := range []string{DSClean, DSLabeled, DSTrain, DSScores, DSReduced, DSModels} {
		got, err := pl.Events(ds)
		if err != nil {
			t.Fatal(err)
		}
		if !temporal.EventsEqual(got, single[ds]) {
			t.Errorf("%s: TiMR %d events != single-node %d events", ds, len(got), len(single[ds]))
		}
	}
	// Sanity: bot elimination removed something.
	clean := single[DSClean]
	if len(clean) >= len(d.Rows) {
		t.Error("bot elimination removed nothing")
	}
}

func TestNaivePipelineSameResultMoreShuffle(t *testing.T) {
	// Example 3: the naive annotation gives identical results but
	// strictly more stages/shuffle.
	d := workload.Generate(workload.Config{
		Users: 100, Keywords: 200, AdClasses: 2, Days: 1, Seed: 3,
	})
	p := DefaultParams()
	p.TrainPeriod = 12 * temporal.Hour

	runPipeline := func(naive bool) (*Pipeline, []temporal.Event) {
		cl := mapreduce.NewCluster(mapreduce.Config{Machines: 4})
		tm := core.New(cl, core.DefaultConfig())
		cl.FS.Write("events", mapreduce.SinglePartition(workload.UnifiedSchema(), d.Rows))
		pl := NewPipeline(p, tm)
		pl.Naive = naive
		if err := pl.Run("events"); err != nil {
			t.Fatal(err)
		}
		evs, err := pl.Events(DSTrain)
		if err != nil {
			t.Fatal(err)
		}
		return pl, evs
	}
	plGood, evGood := runPipeline(false)
	plNaive, evNaive := runPipeline(true)
	if !temporal.EventsEqual(evGood, evNaive) {
		t.Fatal("annotation choice changed results")
	}
	shuffle := func(pl *Pipeline, phase string) int {
		for _, ph := range pl.Phases {
			if ph.Name == phase {
				n := 0
				for _, st := range ph.Stat.Stages {
					n += st.ShuffleRows
				}
				return n
			}
		}
		return -1
	}
	gs, ns := shuffle(plGood, "TrainData"), shuffle(plNaive, "TrainData")
	if ns <= gs {
		t.Errorf("naive plan should shuffle more: %d vs %d", ns, gs)
	}
}
