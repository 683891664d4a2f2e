package core

// Fused-path coverage at the TiMR boundary: a columnar FS input must
// reach the reducer's columnar fast path (timr.go), feed the fragment
// engine through FeedColBatch slice views, and still produce exactly
// the single-node result. The fragment heads carry a stateless filter
// so the reducer engines compile a fused kernel and the batch lands on
// its columnar entry point rather than a row transpose.

import (
	"math/rand"
	"testing"

	"timr/internal/mapreduce"
	"timr/internal/obs"
	"timr/internal/temporal"
)

// fusedChainPlan is the chained two-fragment pipeline of
// TestTiMRTwoStagePipeline with a stateless filter at the first
// fragment's head, placed just above the exchange so it compiles into
// the reducer engine as a fused run.
func fusedChainPlan(annotate bool) *temporal.Plan {
	src := temporal.Scan("clicks", clickSchema())
	var s *temporal.Plan = src
	if annotate {
		s = src.Exchange(temporal.PartitionBy{Cols: []string{"UserId"}})
	}
	perUser := s.Where(temporal.ColGtInt("AdId", 0)).
		GroupApply([]string{"UserId"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(30).Count("C")
		}).ToPoint()
	if annotate {
		perUser = perUser.Exchange(temporal.PartitionBy{Cols: []string{"C"}})
	}
	return perUser.GroupApply([]string{"C"}, func(g *temporal.Plan) *temporal.Plan {
		return g.WithWindow(60).Count("N")
	})
}

func TestFusedTiMRColumnarInput(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	rows := clickRows(r, 3000, 25, 6)
	want := singleNode(t, fusedChainPlan(false), "clicks", rows, 0)

	run := func(cfg Config) []temporal.Event {
		t.Helper()
		tm := New(mapreduce.NewCluster(mapreduce.Config{Machines: 6}), cfg)
		cb := temporal.ColBatchFromRows(rows, clickSchema().Len())
		tm.Cluster.FS.Write("ds.clicks", mapreduce.SingleColumnarPartition(clickSchema(), cb, true))
		if _, err := tm.Run(fusedChainPlan(true), map[string]string{"clicks": "ds.clicks"}, "out"); err != nil {
			t.Fatal(err)
		}
		got, err := tm.ResultEvents("out")
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	if got := run(DefaultConfig()); !temporal.EventsEqual(got, want) {
		t.Fatalf("columnar-input TiMR %d events != single-node %d", len(got), len(want))
	}

	// Instrumented re-run: prove the reducer columnar fast path actually
	// fired. Observed engines run the same metered kernel, columnar entry
	// included, so the same input must take the same path and agree
	// bit-for-bit.
	scope := obs.New("timr")
	cfg := DefaultConfig()
	cfg.Obs = scope
	if got := run(cfg); !temporal.EventsEqual(got, want) {
		t.Fatalf("instrumented columnar run diverges from single-node reference")
	}
	var feeds int64
	for _, p := range scope.Snapshot() {
		if p.Name == "columnar_feeds" {
			feeds += p.Value
		}
	}
	if feeds == 0 {
		t.Fatal("columnar input never hit the reducer columnar fast path; the test is vacuous")
	}
}
