package bt

import (
	"math"
	"sort"
	"strings"
	"testing"

	"timr/internal/core"
)

// costStats is the fixed cost model the golden regression prices plans
// under: round source cardinalities shrinking down the pipeline (bot
// elimination and labeling are selective; reduce joins against a small
// score set) and distinct counts for the partitioning keys the annotated
// plans exchange on.
func costStats() *core.Stats {
	s := core.DefaultStats()
	s.SourceRows = map[string]int64{
		SourceEvents:  1_000_000,
		SourceClean:   900_000,
		SourceLabeled: 600_000,
		SourceTrain:   400_000,
		SourceScores:  5_000,
		SourceReduced: 300_000,
		SourceModels:  200,
	}
	s.Distinct = map[string]int64{
		"UserId":  50_000,
		"AdId":    40,
		"Keyword": 10_000,
	}
	return s
}

// TestEstimateCostGolden pins EstimateCost over every annotated stage
// plan of the DAG (plus the Example-3 naive TrainData strawman) under
// the fixed costStats model. The values are regression anchors, not
// truths: any change to the cost model, the operator factors, or a
// stage's plan shape must show up here as a deliberate golden update.
func TestEstimateCostGolden(t *testing.T) {
	p := DefaultParams()
	golden := map[string]float64{
		"BotElim":        3_036_666.666667,
		"Label":          2_722_080,
		"TrainData":      4_521_700,
		"NaiveTrainData": 5_871_700, // Example 3: the strawman annotation loses
		"FeatureSelect":  4_289_000,
		"Reduce":         1_220_946.666667,
		"Model":          911_250,
		"Score":          929_869.5,
	}
	if golden["NaiveTrainData"] <= golden["TrainData"] {
		t.Fatal("golden table lost Example 3's point: naive must cost more than the optimized annotation")
	}

	plans := map[string]func() float64{}
	for _, st := range Stages(false) {
		spec := st
		plans[spec.Name] = func() float64 {
			return core.NewOptimizer(costStats()).EstimateCost(spec.Plan(p, true))
		}
	}
	plans["NaiveTrainData"] = func() float64 {
		return core.NewOptimizer(costStats()).EstimateCost(NaiveTrainDataPlan(p))
	}

	names := make([]string, 0, len(plans))
	for n := range plans {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) != len(golden) {
		t.Fatalf("golden table covers %d plans, DAG builds %d", len(golden), len(names))
	}
	for _, name := range names {
		got := plans[name]()
		want, ok := golden[name]
		if !ok {
			t.Errorf("%s: no golden cost (got %.6f)", name, got)
			continue
		}
		if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Errorf("%s: EstimateCost = %.6f, golden %.6f", name, got, want)
		}
	}

	// Every sub-query in the paper's 20-query inventory belongs to a
	// stage priced above — the goldens cover the whole inventory.
	for _, q := range QueryInventory() {
		stage := q[:strings.Index(q, ".")]
		if _, ok := golden[stage]; !ok {
			t.Errorf("inventory query %s: stage %s has no golden cost", q, stage)
		}
	}
}

// TestOptimizeCostIsEstimateCost: for every stage, the cost Optimize
// reports is the EstimateCost of the plan it returns. A subplan shared by
// several consumers (a scan feeding two branches) is priced once by both.
func TestOptimizeCostIsEstimateCost(t *testing.T) {
	p := DefaultParams()
	for _, stats := range []*core.Stats{core.DefaultStats(), costStats()} {
		for _, st := range Stages(false) {
			plan, cost, err := core.NewOptimizer(stats).Optimize(st.Plan(p, false))
			if err != nil {
				t.Fatalf("%s: %v", st.Name, err)
			}
			if est := core.NewOptimizer(stats).EstimateCost(plan); cost != est {
				t.Errorf("%s: Optimize prices its plan at %.6f, EstimateCost at %.6f", st.Name, cost, est)
			}
		}
	}
}
