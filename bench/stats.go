package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive
// method — the one Python's statistics.quantiles(xs, n=4) uses, so the
// spreads printed here are the ones the acceptance procedure computes.
// Fewer than two samples have no spread: both quartiles are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	if len(s) == 1 {
		return s[0], s[0]
	}
	return exclusiveQuantile(s, 1, 4), exclusiveQuantile(s, 3, 4)
}

func exclusiveQuantile(s []float64, k, parts int) float64 {
	n := len(s)
	j := k * (n + 1) / parts
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := float64(k*(n+1) - j*parts)
	return (s[j-1]*(float64(parts)-delta) + s[j]*delta) / float64(parts)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// supportedPercentile lowers p (in percent) until at least ten samples
// lie beyond it, so no reported tail rests on a handful of outliers;
// the floor is the median.
func supportedPercentile(n int, p float64) float64 {
	if n <= 0 {
		return 50
	}
	if max := 100 * (1 - 10/float64(n)); p > max {
		p = max
	}
	if p < 50 {
		p = 50
	}
	return p
}

// percentile returns the nearest-rank p-th percentile of xs after
// clamping p with supportedPercentile, and the percentile actually used.
func percentile(xs []float64, p float64) (value, used float64) {
	if len(xs) == 0 {
		return 0, p
	}
	used = supportedPercentile(len(xs), p)
	s := sorted(xs)
	rank := int(math.Ceil(used / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], used
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func maxOf(xs []float64) float64 {
	var m float64
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
