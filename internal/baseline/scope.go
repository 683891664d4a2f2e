// Package baseline implements everything the paper compares TiMR and its
// BT solution against:
//
//   - the SCOPE-style set-oriented strawman for RunningClickCount whose
//     self-join plan is intractable (§II-C);
//   - hand-written, carefully optimized custom reducers for
//     RunningClickCount and every BT phase — the "360 lines of code"
//     alternative of Figure 14;
//   - the production data-reduction baselines of §V-C: F-Ex (static
//     feature extraction into a ~2000-category concept hierarchy) and
//     KE-pop (popularity-based keyword selection, Chen et al.).
package baseline

import (
	"sort"

	"timr/internal/temporal"
)

// RowSource is a pull iterator over rows — the contract of
// (*mapreduce.RowReader).Next — so baselines scan datasets (resident or
// spilled) one row at a time instead of requiring a materialized slice.
type RowSource = func() (temporal.Row, bool, error)

// scanByAd drains src grouping click times by AdId — the build side of
// the strawman's hash join. Only (Time, AdId) survive the scan, so even
// a spilled input costs one streaming pass, not a resident copy.
func scanByAd(src RowSource) (map[int64][]temporal.Time, error) {
	byAd := make(map[int64][]temporal.Time)
	for {
		r, ok, err := src()
		if err != nil {
			return nil, err
		}
		if !ok {
			return byAd, nil
		}
		ad := r[2].AsInt()
		byAd[ad] = append(byAd[ad], r[0].AsInt())
	}
}

// ScopeRunningClickCount executes the paper's §II-C SCOPE query pair
// literally:
//
//	OUT1 = SELECT a.Time, a.AdId, b.Time FROM ClickLog a JOIN ClickLog b
//	       ON a.AdId = b.AdId AND b.Time > a.Time - 6h AND b.Time <= a.Time
//	OUT2 = SELECT Time, AdId, COUNT(*) FROM OUT1 GROUP BY Time, AdId
//
// as a set-oriented (non-sequential) plan: a per-AdId self equi-join
// followed by a grouped count. Its cost is Θ(Σ_ad n_ad · w_ad) — the
// self-join materializes one row per (click, earlier-click-in-window)
// pair, which is why the paper calls the query intractable at log scale.
// maxOutput caps the materialized join size; exceeding it aborts with
// ok=false (the "intractable" outcome, observable at small scale).
//
// Rows follow the click-log schema (Time, UserId, AdId); the result maps
// (Time, AdId) to the count of clicks in (Time-window, Time].
func ScopeRunningClickCount(src RowSource, window temporal.Time, maxOutput int) (map[[2]int64]int64, bool, error) {
	byAd, err := scanByAd(src)
	if err != nil {
		return nil, false, err
	}
	out := make(map[[2]int64]int64)
	produced := 0
	for ad, times := range byAd {
		// The set-oriented join has no order to exploit: every pair is
		// tested (a sort-merge band join is exactly the kind of
		// sequential processing SCOPE's model does not express).
		for _, ta := range times {
			for _, tb := range times {
				if tb > ta-window && tb <= ta {
					produced++
					if produced > maxOutput {
						return nil, false, nil
					}
					out[[2]int64{ta, ad}]++
				}
			}
		}
	}
	return out, true, nil
}

// ScopeJoinOutputSize predicts the strawman's intermediate-result size
// without materializing it (used to report the blow-up factor).
func ScopeJoinOutputSize(src RowSource, window temporal.Time) (int64, error) {
	byAd, err := scanByAd(src)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, times := range byAd {
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		lo := 0
		for i, ta := range times {
			for times[lo] <= ta-window {
				lo++
			}
			total += int64(i - lo + 1)
		}
	}
	return total, nil
}
