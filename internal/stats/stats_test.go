package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTwoProportionZSupport(t *testing.T) {
	if _, ok := TwoProportionZ(4, 100, 100, 1000); ok {
		t.Error("insufficient clicks-with must fail support")
	}
	if _, ok := TwoProportionZ(5, 4, 100, 1000); ok {
		t.Error("insufficient impressions-with must fail support")
	}
	if _, ok := TwoProportionZ(50, 100, 4, 1000); ok {
		t.Error("insufficient clicks-without must fail support")
	}
	if _, ok := TwoProportionZ(50, 100, 100, 4); ok {
		t.Error("insufficient impressions-without must fail support")
	}
	if _, ok := TwoProportionZ(50, 100, 100, 1000); !ok {
		t.Error("sufficient support must pass")
	}
}

func TestTwoProportionZSign(t *testing.T) {
	// CTR with keyword 50% vs 10% without → strongly positive.
	z, ok := TwoProportionZ(50, 100, 100, 1000)
	if !ok || z <= 0 {
		t.Errorf("z = %v, ok = %v; want positive", z, ok)
	}
	// Reversed → strongly negative, same magnitude.
	z2, ok := TwoProportionZ(100, 1000, 50, 100)
	if !ok || z2 >= 0 {
		t.Errorf("z2 = %v", z2)
	}
	if math.Abs(z+z2) > 1e-9 {
		t.Errorf("antisymmetry violated: %v vs %v", z, z2)
	}
}

func TestTwoProportionZNoEffect(t *testing.T) {
	// Identical CTRs → z == 0.
	z, ok := TwoProportionZ(10, 100, 100, 1000)
	if !ok || math.Abs(z) > 1e-9 {
		t.Errorf("z = %v", z)
	}
}

func TestTwoProportionZDegenerate(t *testing.T) {
	// Both proportions 1.0 → zero variance → no valid test.
	if _, ok := TwoProportionZ(100, 100, 1000, 1000); ok {
		t.Error("degenerate variance must fail")
	}
}

func TestTwoProportionZKnownValue(t *testing.T) {
	// Hand-computed example: pK=0.2 (20/100), pK'=0.1 (100/1000).
	// se = sqrt(0.2*0.8/100 + 0.1*0.9/1000) = sqrt(0.0016+0.00009)
	z, ok := TwoProportionZ(20, 100, 100, 1000)
	if !ok {
		t.Fatal("support")
	}
	want := 0.1 / math.Sqrt(0.0016+0.00009)
	if math.Abs(z-want) > 1e-9 {
		t.Errorf("z = %v, want %v", z, want)
	}
}

func TestNormalCDF(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.96, 0.975},
		{-1.96, 0.025},
		{1.28, 0.8997},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); math.Abs(got-c.want) > 0.001 {
			t.Errorf("Φ(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestZForConfidence(t *testing.T) {
	if z := ZForConfidence(0.95); math.Abs(z-1.9600) > 0.001 {
		t.Errorf("z95 = %v", z)
	}
	if z := ZForConfidence(0.80); math.Abs(z-1.2816) > 0.001 {
		t.Errorf("z80 = %v", z)
	}
	if ZForConfidence(0) != 0 {
		t.Error("conf 0")
	}
	if !math.IsInf(ZForConfidence(1), 1) {
		t.Error("conf 1")
	}
	if math.Abs(Z80-1.2816) > 0.001 || math.Abs(Z95-1.96) > 0.001 {
		t.Error("package-level thresholds wrong")
	}
}

func TestPropertyZConfidenceRoundTrip(t *testing.T) {
	err := quick.Check(func(cRaw uint16) bool {
		conf := 0.01 + 0.98*float64(cRaw)/65535
		z := ZForConfidence(conf)
		back := 2*NormalCDF(z) - 1
		return math.Abs(back-conf) < 1e-6
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestSigmoid(t *testing.T) {
	if s := Sigmoid(0); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("σ(0) = %v", s)
	}
	if s := Sigmoid(100); s <= 0.999 || s > 1 {
		t.Errorf("σ(100) = %v", s)
	}
	if s := Sigmoid(-100); s < 0 || s >= 0.001 {
		t.Errorf("σ(-100) = %v", s)
	}
	// Stability: no NaN at extremes.
	for _, x := range []float64{-1e9, 1e9} {
		if math.IsNaN(Sigmoid(x)) {
			t.Errorf("σ(%v) is NaN", x)
		}
	}
}

func TestPropertySigmoidSymmetry(t *testing.T) {
	err := quick.Check(func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		return math.Abs(Sigmoid(x)+Sigmoid(-x)-1) < 1e-9
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestClickCountsMergeExact(t *testing.T) {
	// Partitioned tallies merged must give the same z as one global tally
	// — bit-for-bit, since the merged counts are identical integers.
	err := quick.Check(func(obs []bool, cut uint8) bool {
		var whole, left, right ClickCounts
		split := 0
		if n := len(obs); n > 0 {
			split = int(cut) % (n + 1)
		}
		for i, clicked := range obs {
			whole.Add(clicked)
			if i < split {
				left.Add(clicked)
			} else {
				right.Add(clicked)
			}
		}
		merged := ClickCounts{Clicks: left.Clicks + right.Clicks, Non: left.Non + right.Non}
		if merged != whole {
			return false
		}
		total := ClickCounts{Clicks: whole.Clicks + 40, Non: whole.Non + 400}
		zw, okw := ZFromSummary(whole, total)
		zm, okm := ZFromSummary(merged, total)
		return okw == okm && zw == zm
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestZFromSummaryMatchesTwoProportionZ(t *testing.T) {
	kw := ClickCounts{Clicks: 20, Non: 80}
	total := ClickCounts{Clicks: 120, Non: 980}
	z, ok := ZFromSummary(kw, total)
	want, wok := TwoProportionZ(20, 100, 100, 1000)
	if ok != wok || z != want {
		t.Errorf("ZFromSummary = (%v, %v), want (%v, %v)", z, ok, want, wok)
	}
}
