// Package stats provides the statistical machinery of the paper's BT
// feature-selection stage: the unpooled two-proportion z-test (§IV-B.3),
// normal-distribution helpers for choosing thresholds, and small
// utilities shared by the workload generator.
package stats

import "math"

// MinSupport is the paper's support floor: "given that we have at least 5
// independent observations of clicks and impressions with and without
// keyword K".
const MinSupport = 5

// TwoProportionZ computes the unpooled two-proportion z-score of the
// paper's equation:
//
//	z = (pK − pK') / sqrt(pK(1−pK)/IK + pK'(1−pK')/IK')
//
// where pK = CK/IK is the CTR with keyword K in the user's profile and
// pK' = CK'/IK' the CTR without it. Highly positive (negative) scores
// indicate positive (negative) correlation between the keyword and clicks
// on the ad. ok is false when the test lacks support (fewer than
// MinSupport observations on either side, or a degenerate denominator).
func TwoProportionZ(clicksWith, imprWith, clicksWithout, imprWithout int64) (z float64, ok bool) {
	if clicksWith < MinSupport || imprWith < MinSupport ||
		clicksWithout < MinSupport || imprWithout < MinSupport {
		return 0, false
	}
	pk := float64(clicksWith) / float64(imprWith)
	pk2 := float64(clicksWithout) / float64(imprWithout)
	v := pk*(1-pk)/float64(imprWith) + pk2*(1-pk2)/float64(imprWithout)
	if v <= 0 {
		return 0, false
	}
	return (pk - pk2) / math.Sqrt(v), true
}

// ClickCounts is the mergeable sufficient statistic of the BT count
// stages: clicks and non-clicks observed for one key within one training
// window. Two partitions of the same window merge by addition, and the
// z-test over the merged counts equals the z-test over the union of the
// underlying observations — the algebraic exactness the incremental
// refresh path relies on.
type ClickCounts struct {
	Clicks int64
	Non    int64
}

// Add tallies one observation.
func (c *ClickCounts) Add(clicked bool) {
	if clicked {
		c.Clicks++
	} else {
		c.Non++
	}
}

// Total returns the number of observations behind the statistic.
func (c ClickCounts) Total() int64 { return c.Clicks + c.Non }

// ZFromSummary computes the pipeline's two-proportion z-test from merged
// sufficient statistics: kw counts observations with the keyword in the
// profile, total counts every observation of the ad. The arithmetic is
// exactly TwoProportionZ over (CK, CK+NK, CT−CK, (CT+NT)−(CK+NK)), the
// derivation bt.FeatureSelectPlan applies to its joined count columns.
func ZFromSummary(kw, total ClickCounts) (z float64, ok bool) {
	return TwoProportionZ(kw.Clicks, kw.Total(), total.Clicks-kw.Clicks, total.Total()-kw.Total())
}

// NormalCDF is Φ(x), the standard normal CDF.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// ZForConfidence returns the two-sided z threshold for a confidence level
// (e.g. 0.95 → 1.96, 0.80 → 1.28), via bisection on the normal CDF.
func ZForConfidence(conf float64) float64 {
	if conf <= 0 {
		return 0
	}
	if conf >= 1 {
		return math.Inf(1)
	}
	target := 0.5 + conf/2
	lo, hi := 0.0, 40.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if NormalCDF(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Common confidence thresholds used throughout the paper's evaluation
// (80%, 95% and the doubled variants swept in Figure 20).
var (
	Z80 = ZForConfidence(0.80) // ≈ 1.28
	Z95 = ZForConfidence(0.95) // ≈ 1.96
)

// Sigmoid is the logistic function 1/(1+e^-x), numerically stable on both
// tails.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}
