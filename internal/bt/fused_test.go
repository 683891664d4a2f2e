package bt

// The kernel differential for the end-to-end BT pipeline: every phase,
// compiled as written and with its stateless runs split into one-member
// kernels over the same feed, must produce bit-identical raw (uncoalesced,
// unsorted-by-coalescer) results. The BT plans keep their stateless runs
// inside GroupApply sub-plans, so this is where sub-plan kernels are
// checked. Phases chain like RunSingleNode so each differential runs over
// the real intermediate streams — bot-eliminated logs, labeled
// impressions, reduced training data — not synthetic inputs.

import (
	"bytes"
	"sort"
	"testing"

	"timr/internal/temporal"
	"timr/internal/workload"
)

// splitRuns copies the plan DAG (sub-plans included) with an Exchange
// annotation between every two adjacent stateless nodes; the compiler
// breaks kernels there and compiles nothing for the annotation.
func splitRuns(p *temporal.Plan) *temporal.Plan {
	stateless := func(n *temporal.Plan) bool {
		return n.Kind == temporal.OpSelect || n.Kind == temporal.OpProject ||
			n.Kind == temporal.OpAlterLifetime && n.Mode != temporal.LifePoint
	}
	memo := make(map[*temporal.Plan]*temporal.Plan)
	var rec func(n *temporal.Plan) *temporal.Plan
	rec = func(n *temporal.Plan) *temporal.Plan {
		if c, ok := memo[n]; ok {
			return c
		}
		c := *n
		c.Inputs = make([]*temporal.Plan, len(n.Inputs))
		for i, in := range n.Inputs {
			c.Inputs[i] = rec(in)
			if stateless(n) && stateless(in) {
				c.Inputs[i] = c.Inputs[i].Exchange(temporal.PartitionBy{})
			}
		}
		if n.Sub != nil {
			c.Sub = rec(n.Sub)
		}
		memo[n] = &c
		return &c
	}
	return rec(p)
}

// runPhaseBoth runs one phase's plan and its split-run form over the same
// source feed, requires bit-identical raw results and checkpoint bytes,
// and returns the coalesced output for chaining.
func runPhaseBoth(t *testing.T, name string, plan func() *temporal.Plan, inputs map[string][]temporal.Event) []temporal.Event {
	t.Helper()
	// Both engines must see the identical feed order: one run per source, in
	// name order (the merged ingest writes to neither).
	var runs []temporal.Run
	for src, evs := range inputs {
		runs = append(runs, temporal.Run{Source: src, Events: evs})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Source < runs[j].Source })
	// run returns the plan's raw output, as emitted and then sorted.
	run := func(p *temporal.Plan) ([]temporal.Event, []byte) {
		out := &temporal.Collector{}
		eng, err := temporal.NewEngine(p, temporal.WithSink(out))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := eng.FeedMerged(runs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		snap := eng.Checkpoint()
		eng.Flush()
		temporal.SortEvents(out.Events)
		return out.Events, snap
	}
	// operators counts the plan's nodes other than exchanges.
	operators := func(p *temporal.Plan) (n int) {
		p.Walk(func(x *temporal.Plan) {
			if x.Kind != temporal.OpExchange {
				n++
			}
		})
		return n
	}
	p := plan()
	split := splitRuns(p)
	if operators(split) != operators(p) {
		t.Fatalf("%s: split plan has %d operators, original %d", name, operators(split), operators(p))
	}
	kraw, ksnap := run(p)
	sraw, ssnap := run(split)
	if !temporal.EventsEqual(kraw, sraw) {
		t.Fatalf("%s: %d raw events != split-run %d", name, len(kraw), len(sraw))
	}
	if !bytes.Equal(ksnap, ssnap) {
		t.Fatalf("%s: checkpoint bytes differ from the split-run plan's", name)
	}
	return temporal.Coalesce(kraw)
}

func TestFusedBTPipelineMatchesSplitRuns(t *testing.T) {
	d := workload.Generate(workload.Config{
		Users: 150, Keywords: 300, AdClasses: 3, Days: 1, Seed: 11,
		BotFraction: 0.02,
	})
	p := DefaultParams()
	p.T1, p.T2 = 30, 60
	p.TrainPeriod = 12 * temporal.Hour
	events := d.Events()

	clean := runPhaseBoth(t, "BotElim", func() *temporal.Plan { return BotElimPlan(p, false) },
		map[string][]temporal.Event{SourceEvents: events})
	labeled := runPhaseBoth(t, "Label", func() *temporal.Plan { return LabelPlan(p, false) },
		map[string][]temporal.Event{SourceClean: clean})
	train := runPhaseBoth(t, "TrainData", func() *temporal.Plan { return TrainDataPlan(p, false) },
		map[string][]temporal.Event{SourceLabeled: labeled, SourceClean: clean})
	scores := runPhaseBoth(t, "FeatureSelect", func() *temporal.Plan { return FeatureSelectPlan(p, false) },
		map[string][]temporal.Event{SourceLabeled: labeled, SourceTrain: train})
	reduced := runPhaseBoth(t, "Reduce", func() *temporal.Plan { return ReducePlan(p, false) },
		map[string][]temporal.Event{SourceTrain: train, SourceScores: scores})
	models := runPhaseBoth(t, "Model", func() *temporal.Plan { return ModelPlan(p, false) },
		map[string][]temporal.Event{SourceReduced: reduced})
	preds := runPhaseBoth(t, "Score", func() *temporal.Plan { return ScorePlan(p, false) },
		map[string][]temporal.Event{SourceReduced: reduced, SourceModels: models})

	// The differential is only meaningful if some phase has a run to split
	// (FeatureSelect's sub-plans filter and then window) and the chain
	// stayed live all the way down.
	splits := 0
	splitRuns(FeatureSelectPlan(p, false)).Walk(func(n *temporal.Plan) {
		if n.Kind == temporal.OpExchange {
			splits++
		}
	})
	if splits == 0 {
		t.Error("no multi-member stateless run in FeatureSelect; nothing was split")
	}
	for _, phase := range []struct {
		name string
		evs  []temporal.Event
	}{{"clean", clean}, {"labeled", labeled}, {"train", train}, {"scores", scores},
		{"reduced", reduced}, {"models", models}, {"predictions", preds}} {
		if len(phase.evs) == 0 {
			t.Errorf("%s output empty; pipeline differential is vacuous", phase.name)
		}
	}
}
