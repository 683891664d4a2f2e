package ml

import "sort"

// LiftPoint is one point of a CTR-lift vs coverage curve (paper §V-D):
// at some prediction threshold, Coverage is the fraction of test
// impressions above it, CTR their click-through rate, and Lift the relative
// improvement (V − V0)/V0 over the overall test CTR V0 (zero at full
// coverage by construction).
type LiftPoint struct {
	Coverage float64
	CTR      float64
	Lift     float64
}

// LiftCoverageCurve sweeps thresholds over test predictions and returns
// the lift/coverage tradeoff, from smallest coverage to full coverage.
// "The bigger the area under this plot, the more effective the
// advertising strategy."
func LiftCoverageCurve(preds []float64, clicked []bool, points int) []LiftPoint {
	if len(preds) != len(clicked) {
		panic("ml: preds/clicked length mismatch")
	}
	n := len(preds)
	if n == 0 {
		return nil
	}
	if points <= 0 {
		points = 20
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Sort by descending prediction; ties broken by index for determinism.
	sort.Slice(idx, func(i, j int) bool {
		if preds[idx[i]] != preds[idx[j]] {
			return preds[idx[i]] > preds[idx[j]]
		}
		return idx[i] < idx[j]
	})
	totalClicks := 0
	for _, c := range clicked {
		if c {
			totalClicks++
		}
	}
	v0 := float64(totalClicks) / float64(n)

	var curve []LiftPoint
	clicks := 0
	next := 1
	for rank, i := range idx {
		if clicked[i] {
			clicks++
		}
		// Emit `points` evenly spaced coverage levels plus the full set.
		if (rank+1)*points >= next*n || rank == n-1 {
			cov := float64(rank+1) / float64(n)
			ctr := float64(clicks) / float64(rank+1)
			lift := 0.0
			if v0 > 0 {
				lift = (ctr - v0) / v0
			}
			curve = append(curve, LiftPoint{
				Coverage: cov,
				CTR:      ctr,
				Lift:     lift,
			})
			for (rank+1)*points >= next*n {
				next++
			}
		}
	}
	return curve
}

// CurveArea integrates lift over coverage (trapezoidal, from coverage 0).
// Larger is better; used to compare data-reduction schemes in the
// Figure 22/23 reproduction.
func CurveArea(curve []LiftPoint) float64 {
	var area float64
	prevCov, prevLift := 0.0, 0.0
	if len(curve) > 0 {
		prevLift = curve[0].Lift // extend the first lift back to coverage 0
	}
	for _, p := range curve {
		area += (p.Coverage - prevCov) * (p.Lift + prevLift) / 2
		prevCov, prevLift = p.Coverage, p.Lift
	}
	return area
}

// LiftAtCoverage interpolates the curve's lift at a coverage level.
func LiftAtCoverage(curve []LiftPoint, cov float64) float64 {
	if len(curve) == 0 {
		return 0
	}
	if cov <= curve[0].Coverage {
		return curve[0].Lift
	}
	for i := 1; i < len(curve); i++ {
		if cov <= curve[i].Coverage {
			a, b := curve[i-1], curve[i]
			if b.Coverage == a.Coverage {
				return b.Lift
			}
			f := (cov - a.Coverage) / (b.Coverage - a.Coverage)
			return a.Lift + f*(b.Lift-a.Lift)
		}
	}
	return curve[len(curve)-1].Lift
}
