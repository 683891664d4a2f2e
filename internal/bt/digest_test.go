package bt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"timr/internal/temporal"
	"timr/internal/workload"
)

// TestModelAndScoreDigests pins what the Model and Score stages produce on
// one node to digests measured at commit b96519e, before the per-key
// GroupApply was deleted: the comparisons elsewhere (TiMR against single
// node, one run against another) run the same GroupApply code on both
// sides and cannot see an error they share. Config A is
// TestPipelineOnTiMRMatchesSingleNode's, config B
// TestScoreStageConcurrentReducers'.
func TestModelAndScoreDigests(t *testing.T) {
	a := DefaultParams()
	a.T1, a.T2 = 30, 60
	a.TrainPeriod = 12 * temporal.Hour
	b := DefaultParams()
	b.TrainPeriod = temporal.Day
	for _, c := range []struct {
		name   string
		cfg    workload.Config
		p      Params
		counts [2]int
		sums   [2]string
	}{
		{"A", workload.Config{Users: 150, Keywords: 300, AdClasses: 3, Days: 1, Seed: 11, BotFraction: 0.02}, a,
			[2]int{6, 666}, [2]string{
				"d626f190a3483776388d948024254bfbc2b05b9edec436c998d407e2a1fadb85",
				"45060ca5d449fd7374c7e8b1b11c19a44b930fd33e9319a17b9d7fac4b00caa4"}},
		{"B", workload.Config{Users: 120, Keywords: 200, AdClasses: 8, Days: 2, Seed: 5, BaseCTR: 0.18, NegDamp: 0.5, PosLift: 3}, b,
			[2]int{15, 538}, [2]string{
				"52d7e3b642ebd0cf1c1e4aface4d09e23b3a8cbd339d94c2992736d9568bade5",
				"a7b1ea408e2f8b003a62ae402da6d7bcc0376de86d6153c55259605d984a349b"}},
	} {
		out, err := RunSingleNode(c.p, workload.Generate(c.cfg).Events())
		if err != nil {
			t.Fatal(err)
		}
		for i, ds := range []string{DSModels, DSPredictions} {
			h := sha256.New()
			for _, e := range out[ds] {
				fmt.Fprintf(h, "%v\n", e)
			}
			if n, sum := len(out[ds]), hex.EncodeToString(h.Sum(nil)); n != c.counts[i] || sum != c.sums[i] {
				t.Errorf("config %s, %s: %d events, sha256 %s; want %d, %s", c.name, ds, n, sum, c.counts[i], c.sums[i])
			}
		}
	}
}
