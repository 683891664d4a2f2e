package ml

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synthExamples builds a linearly separable-ish task: clicking depends on
// feature 1 (positive) and feature 2 (negative).
func synthExamples(r *rand.Rand, n int) []Example {
	out := make([]Example, n)
	for i := range out {
		var fs []Feature
		score := -1.0
		if r.Intn(3) == 0 {
			fs = append(fs, Feature{ID: 1, Val: 1})
			score += 2.5
		}
		if r.Intn(3) == 0 {
			fs = append(fs, Feature{ID: 2, Val: 1})
			score -= 2.5
		}
		if r.Intn(2) == 0 {
			fs = append(fs, Feature{ID: 3, Val: 1}) // noise
		}
		p := 1 / (1 + math.Exp(-score))
		out[i] = Example{Features: SortFeatures(fs), Clicked: r.Float64() < p}
	}
	return out
}

func TestSortFeatures(t *testing.T) {
	fs := SortFeatures([]Feature{{ID: 3, Val: 1}, {ID: 1, Val: 2}, {ID: 3, Val: 4}})
	if len(fs) != 2 || fs[0].ID != 1 || fs[1].ID != 3 || fs[1].Val != 5 {
		t.Fatalf("fs = %v", fs)
	}
}

func TestTrainLRLearnsSigns(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := TrainLR(synthExamples(r, 4000), 0)
	if m.Weights[1] <= 0 {
		t.Errorf("w1 = %v, want positive", m.Weights[1])
	}
	if m.Weights[2] >= 0 {
		t.Errorf("w2 = %v, want negative", m.Weights[2])
	}
	if math.Abs(m.Weights[3]) >= math.Abs(m.Weights[1]) {
		t.Errorf("noise weight %v should stay small vs %v", m.Weights[3], m.Weights[1])
	}
	if m.Epochs != 50 {
		t.Errorf("epochs = %d", m.Epochs)
	}
}

func TestTrainLRPredictOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	m := TrainLR(synthExamples(r, 4000), 0)
	pPos := m.Predict([]Feature{{ID: 1, Val: 1}})
	pNeg := m.Predict([]Feature{{ID: 2, Val: 1}})
	pNone := m.Predict(nil)
	if !(pPos > pNone && pNone > pNeg) {
		t.Errorf("ordering violated: %v, %v, %v", pPos, pNone, pNeg)
	}
}

func TestTrainLRDeterministic(t *testing.T) {
	r1 := rand.New(rand.NewSource(3))
	r2 := rand.New(rand.NewSource(3))
	m1 := TrainLR(synthExamples(r1, 500), 0)
	m2 := TrainLR(synthExamples(r2, 500), 0)
	if m1.Bias != m2.Bias || len(m1.Weights) != len(m2.Weights) {
		t.Fatal("training is not deterministic")
	}
	for k, v := range m1.Weights {
		if m2.Weights[k] != v {
			t.Fatalf("weight %d differs", k)
		}
	}
}

func TestTrainLREmptyAndDegenerate(t *testing.T) {
	m := TrainLR(nil, 0)
	if m.Predict(nil) != 0.5 {
		t.Error("empty model must predict 0.5")
	}
	// All negative: balanced set keeps them; model should predict low.
	var negs []Example
	for i := 0; i < 50; i++ {
		negs = append(negs, Example{Clicked: false})
	}
	m = TrainLR(negs, 0)
	if m.Predict(nil) >= 0.5 {
		t.Errorf("all-negative model predicts %v", m.Predict(nil))
	}
}

func TestBalanceExamples(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var ex []Example
	for i := 0; i < 10; i++ {
		ex = append(ex, Example{Clicked: true})
	}
	for i := 0; i < 990; i++ {
		ex = append(ex, Example{Clicked: false})
	}
	b := BalanceExamples(ex, r)
	var pos, neg int
	for _, e := range b {
		if e.Clicked {
			pos++
		} else {
			neg++
		}
	}
	if pos != 10 || neg != 10 {
		t.Errorf("balance = %d pos, %d neg", pos, neg)
	}
	// Fewer negatives than positives: keep all.
	b2 := BalanceExamples(ex[:12], r) // 10 pos, 2 neg
	if len(b2) != 12 {
		t.Errorf("len = %d", len(b2))
	}
}

func TestCalibrator(t *testing.T) {
	// Validation: predictions 0.0..0.99; an example clicks iff pred>=0.5.
	var preds []float64
	var labels []bool
	for i := 0; i < 100; i++ {
		p := float64(i) / 100
		preds = append(preds, p)
		labels = append(labels, p >= 0.5)
	}
	c := NewCalibrator(preds, labels, 10)
	if ctr := c.CTR(0.95); ctr != 1.0 {
		t.Errorf("CTR(0.95) = %v", ctr)
	}
	if ctr := c.CTR(0.05); ctr != 0.0 {
		t.Errorf("CTR(0.05) = %v", ctr)
	}
	mid := c.CTR(0.5)
	if mid < 0.3 || mid > 0.7 {
		t.Errorf("CTR(0.5) = %v", mid)
	}
}

func TestCalibratorEdgeCases(t *testing.T) {
	c := NewCalibrator(nil, nil, 5)
	if c.CTR(0.5) != 0 {
		t.Error("empty calibrator")
	}
	c2 := NewCalibrator([]float64{0.3}, []bool{true}, 10)
	if c2.CTR(0.9) != 1.0 {
		t.Error("k larger than n must clamp")
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched lengths must panic")
		}
	}()
	NewCalibrator([]float64{1}, nil, 1)
}

func TestPropertyCalibratorMonotoneOnSeparableData(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var preds []float64
		var labels []bool
		for i := 0; i < 200; i++ {
			p := r.Float64()
			preds = append(preds, p)
			labels = append(labels, r.Float64() < p)
		}
		c := NewCalibrator(preds, labels, 50)
		// Calibrated CTR should roughly increase with prediction.
		return c.CTR(0.9) >= c.CTR(0.1)
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

func TestLiftCoverageCurve(t *testing.T) {
	// Perfect model: predictions equal to click indicator.
	preds := []float64{0.9, 0.9, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}
	clicked := []bool{true, true, false, false, false, false, false, false, false, false}
	curve := LiftCoverageCurve(preds, clicked, 10)
	if len(curve) == 0 {
		t.Fatal("empty curve")
	}
	last := curve[len(curve)-1]
	if last.Coverage != 1.0 || math.Abs(last.Lift) > 1e-9 {
		t.Errorf("full coverage must have zero lift: %+v", last)
	}
	first := curve[0]
	// At 20% coverage the CTR is 1.0 vs base 0.2 → lift 4.0.
	if first.Coverage > 0.21 && first.Lift < 3.9 {
		t.Errorf("first point = %+v", first)
	}
	if CurveArea(curve) <= 0 {
		t.Error("perfect model must have positive area")
	}
}

func TestLiftCoverageRandomModelNearZero(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var preds []float64
	var clicked []bool
	for i := 0; i < 5000; i++ {
		preds = append(preds, r.Float64())
		clicked = append(clicked, r.Float64() < 0.1)
	}
	curve := LiftCoverageCurve(preds, clicked, 20)
	if a := CurveArea(curve); math.Abs(a) > 0.25 {
		t.Errorf("random model area = %v, want ≈0", a)
	}
}

func TestLiftAtCoverage(t *testing.T) {
	curve := []LiftPoint{
		{Coverage: 0.1, Lift: 4},
		{Coverage: 0.5, Lift: 1},
		{Coverage: 1.0, Lift: 0},
	}
	if l := LiftAtCoverage(curve, 0.05); l != 4 {
		t.Errorf("below first = %v", l)
	}
	if l := LiftAtCoverage(curve, 0.3); math.Abs(l-2.5) > 1e-9 {
		t.Errorf("interp = %v", l)
	}
	if l := LiftAtCoverage(curve, 1.0); l != 0 {
		t.Errorf("full = %v", l)
	}
	if LiftAtCoverage(nil, 0.5) != 0 {
		t.Error("empty curve")
	}
}

func TestPropertyCurveLastPointZeroLift(t *testing.T) {
	err := quick.Check(func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw)%100 + 5
		var preds []float64
		var clicked []bool
		anyClick := false
		for i := 0; i < n; i++ {
			preds = append(preds, r.Float64())
			c := r.Float64() < 0.3
			anyClick = anyClick || c
			clicked = append(clicked, c)
		}
		if !anyClick {
			clicked[0] = true
		}
		curve := LiftCoverageCurve(preds, clicked, 10)
		last := curve[len(curve)-1]
		return last.Coverage == 1.0 && math.Abs(last.Lift) < 1e-9
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

// TestNumWeights: the model is sparse, one weight per feature id seen.
func TestNumWeights(t *testing.T) {
	m := TrainLR([]Example{
		{Features: []Feature{{ID: 1, Val: 1}}, Clicked: true},
		{Features: []Feature{{ID: 2, Val: 1}}, Clicked: false},
	}, 1)
	if len(m.Weights) != 2 {
		t.Errorf("%d weights, want 2", len(m.Weights))
	}
}

// trainLRReference is TrainLR as it stood at commit 2d5c927: the weights
// in a map, updated feature by feature, and the loss summed every epoch.
// The dense trainer must return the same bits.
func trainLRReference(examples []Example, epochs int) *Model {
	if epochs <= 0 {
		epochs = 50
	}
	rng := rand.New(rand.NewSource(trainSeed))
	data := BalanceExamples(examples, rng)
	m := &Model{Weights: make(map[int64]float64)}
	if len(data) == 0 {
		return m
	}
	order := rng.Perm(len(data))
	for epoch := 0; epoch < epochs; epoch++ {
		lr := learningRate / (1 + 0.1*float64(epoch))
		var loss float64
		for _, i := range order {
			ex := data[i]
			p := m.score(ex.Features)
			y := 0.0
			if ex.Clicked {
				y = 1.0
			}
			g := p - y
			m.Bias -= lr * g
			for _, f := range ex.Features {
				w := m.Weights[f.ID]
				m.Weights[f.ID] = w - lr*(g*f.Val+ridgeL2*w)
			}
			if ex.Clicked {
				loss -= math.Log(math.Max(p, 1e-12))
			} else {
				loss -= math.Log(math.Max(1-p, 1e-12))
			}
		}
		m.Loss = loss / float64(len(data))
		m.Epochs = epoch + 1
	}
	return m
}

// sparseExamples draws n examples over ids from a pool of the given size:
// ids repeat across examples, some examples have no feature, values span
// several magnitudes, and about one in clickEvery is a positive (0: none).
func sparseExamples(r *rand.Rand, n, pool, clickEvery int) []Example {
	out := make([]Example, n)
	for i := range out {
		var fs []Feature
		for k := r.Intn(12); k > 0; k-- {
			fs = append(fs, Feature{ID: int64(r.Intn(pool))*7919 - 5000, Val: math.Ldexp(r.Float64(), r.Intn(9)-4)})
		}
		out[i] = Example{Features: SortFeatures(fs), Clicked: clickEvery > 0 && r.Intn(clickEvery) == 0}
	}
	return out
}

func sameModel(got, want *Model) string {
	switch {
	case math.Float64bits(got.Bias) != math.Float64bits(want.Bias):
		return fmt.Sprintf("bias %v, want %v", got.Bias, want.Bias)
	case math.Float64bits(got.Loss) != math.Float64bits(want.Loss):
		return fmt.Sprintf("loss %v, want %v", got.Loss, want.Loss)
	case got.Epochs != want.Epochs:
		return fmt.Sprintf("%d epochs, want %d", got.Epochs, want.Epochs)
	case len(got.Weights) != len(want.Weights):
		return fmt.Sprintf("%d weights, want %d", len(got.Weights), len(want.Weights))
	}
	for id, w := range want.Weights {
		if g, ok := got.Weights[id]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Sprintf("weight of %d is %v (present %v), want %v", id, g, ok, w)
		}
	}
	return ""
}

// TestTrainLRMatchesReference: the dense trainer returns the map-based
// trainer's model bit for bit — bias, every weight and its key set, loss
// and epochs — over seeded example sets with ids repeated across
// examples, featureless examples, no positives, a feature repeated inside
// one example, and every epoch count kind (≤ 0 meaning the default).
func TestTrainLRMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	for trial := 0; trial < 60; trial++ {
		n, pool, clickEvery := 1+r.Intn(400), 1+r.Intn(60), []int{0, 1, 2, 5, 30}[trial%5]
		exs := sparseExamples(r, n, pool, clickEvery)
		if trial%7 == 3 { // unnormalized: one id twice in one example
			exs[0].Features = append(exs[0].Features, Feature{ID: 42, Val: 0.5}, Feature{ID: 42, Val: -1.25})
		}
		epochs := []int{-3, 0, 1, 2, 7}[trial%5]
		if msg := sameModel(TrainLR(exs, epochs), trainLRReference(exs, epochs)); msg != "" {
			t.Fatalf("trial %d (%d examples, %d ids, clicks 1 in %d, epochs %d): %s", trial, n, pool, clickEvery, epochs, msg)
		}
	}
	for _, exs := range [][]Example{nil, {{}}, {{Clicked: true}, {}}} {
		if msg := sameModel(TrainLR(exs, 3), trainLRReference(exs, 3)); msg != "" {
			t.Fatalf("%v: %s", exs, msg)
		}
	}
}

// BenchmarkTrainLR trains one ad's model at about the size of a BT model
// stage's: 4 000 examples over 800 ids, one in five a click, the default
// epoch count.
func BenchmarkTrainLR(b *testing.B) {
	exs := sparseExamples(rand.New(rand.NewSource(1)), 4000, 800, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TrainLR(exs, 0)
	}
}
