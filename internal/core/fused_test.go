package core

// Kernel coverage at the TiMR boundary: a fragment whose head is a
// stateless filter compiles a kernel into every reducer engine, and the
// job — observed or not — must still produce exactly the single-node
// result.

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

func TestFusedTiMRMatchesSingleNode(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	rows := clickRows(r, 3000, 25, 6)
	want := singleNode(t, fusedChainPlan(false), "clicks", rows, 0)

	observed := DefaultConfig()
	observed.Obs = obs.New("timr")
	for _, cfg := range []Config{DefaultConfig(), observed} {
		tm := New(mapreduce.NewCluster(mapreduce.Config{Machines: 6}), cfg)
		tm.Cluster.FS.Write("ds.clicks", mapreduce.SinglePartition(clickSchema(), rows))
		if _, err := tm.Run(fusedChainPlan(true), map[string]string{"clicks": "ds.clicks"}, "out"); err != nil {
			t.Fatal(err)
		}
		got, err := tm.ResultEvents("out")
		if err != nil {
			t.Fatal(err)
		}
		if !temporal.EventsEqual(got, want) {
			t.Fatalf("TiMR (observed=%v) %d events != single-node %d", cfg.Obs != nil, len(got), len(want))
		}
	}
}
