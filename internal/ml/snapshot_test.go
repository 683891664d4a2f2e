package ml

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"timr/internal/temporal"
)

func randomModel(rng *rand.Rand) *Model {
	m := &Model{
		Bias:    rng.NormFloat64(),
		Loss:    math.Abs(rng.NormFloat64()),
		Epochs:  rng.Intn(80),
		Weights: make(map[int64]float64),
	}
	for i, n := 0, rng.Intn(40); i < n; i++ {
		m.Weights[rng.Int63n(1<<20)-1<<10] = rng.NormFloat64() * 10
	}
	return m
}

func modelRoundtrip(t *testing.T, m *Model) *Model {
	t.Helper()
	var w temporal.Encoder
	m.Snapshot(&w)
	r := temporal.NewDecoder(w.Bytes())
	got, err := RestoreModel(r)
	if err != nil {
		t.Fatalf("RestoreModel: %v", err)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("trailing bytes after model: %v", err)
	}
	return got
}

// Property: Snapshot→Restore is the identity on models, the restored
// weights are NaN-free when the source's were, and re-snapshotting the
// restored model reproduces the exact bytes (canonical encoding).
func TestModelSnapshotRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		m := randomModel(rng)
		got := modelRoundtrip(t, m)
		if got.Bias != m.Bias || got.Loss != m.Loss || got.Epochs != m.Epochs {
			t.Fatalf("trial %d: scalar mismatch: got %+v want %+v", trial, got, m)
		}
		if !reflect.DeepEqual(got.Weights, m.Weights) {
			t.Fatalf("trial %d: weights mismatch", trial)
		}
		for id, wv := range got.Weights {
			if math.IsNaN(wv) {
				t.Fatalf("trial %d: NaN weight restored for id %d", trial, id)
			}
		}
		var a, b temporal.Encoder
		m.Snapshot(&a)
		got.Snapshot(&b)
		if string(a.Bytes()) != string(b.Bytes()) {
			t.Fatalf("trial %d: snapshot not canonical after round-trip", trial)
		}
	}
}

func TestModelSnapshotEmpty(t *testing.T) {
	m := &Model{Weights: make(map[int64]float64)}
	got := modelRoundtrip(t, m)
	if got.Bias != 0 || got.Loss != 0 || got.Epochs != 0 || len(got.Weights) != 0 {
		t.Fatalf("empty model round-trip changed state: %+v", got)
	}
	if got.Weights == nil {
		t.Fatal("restored model must carry a usable (non-nil) weight map")
	}
}

// A model that actually came out of TrainLR must serialize-restore to a
// scorer with bit-identical predictions.
func TestModelSnapshotPreservesPredictions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var exs []Example
	for i := 0; i < 400; i++ {
		fs := []Feature{{ID: rng.Int63n(30), Val: 1}, {ID: rng.Int63n(30), Val: float64(1 + rng.Intn(3))}}
		exs = append(exs, Example{Features: SortFeatures(fs), Clicked: rng.Float64() < 0.3})
	}
	m := TrainLR(exs, DefaultLRConfig())
	got := modelRoundtrip(t, m)
	for i := 0; i < 50; i++ {
		fs := []Feature{{ID: rng.Int63n(30), Val: 1}}
		if a, b := m.Predict(fs), got.Predict(fs); a != b {
			t.Fatalf("prediction drifted after round-trip: %v vs %v", a, b)
		}
	}
}

// Property: the calibrator round-trip preserves the sorted validation
// index exactly, so CTR(y) is bit-identical for arbitrary queries.
func TestCalibratorSnapshotRoundtrip(t *testing.T) {
	f := func(seed int64, n uint8, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		preds := make([]float64, int(n)+1)
		labels := make([]bool, len(preds))
		for i := range preds {
			preds[i] = rng.Float64()
			labels[i] = rng.Float64() < 0.25
		}
		c := NewCalibrator(preds, labels, int(kRaw%32))
		var w temporal.Encoder
		c.Snapshot(&w)
		r := temporal.NewDecoder(w.Bytes())
		got, err := RestoreCalibrator(r)
		if err != nil || r.Done() != nil {
			return false
		}
		if got.k != c.k || !reflect.DeepEqual(got.preds, c.preds) || !reflect.DeepEqual(got.labels, c.labels) {
			return false
		}
		for i := 0; i < 20; i++ {
			y := rng.Float64()*1.4 - 0.2
			if got.CTR(y) != c.CTR(y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRejectsMixedTags(t *testing.T) {
	var w temporal.Encoder
	(&Model{Weights: map[int64]float64{}}).Snapshot(&w)
	if _, err := RestoreCalibrator(temporal.NewDecoder(w.Bytes())); err == nil {
		t.Fatal("RestoreCalibrator accepted a model snapshot")
	}
	w.Reset()
	NewCalibrator([]float64{0.5}, []bool{true}, 1).Snapshot(&w)
	if _, err := RestoreModel(temporal.NewDecoder(w.Bytes())); err == nil {
		t.Fatal("RestoreModel accepted a calibrator snapshot")
	}
}

func TestRestoreCalibratorRejectsUnsortedPreds(t *testing.T) {
	var w temporal.Encoder
	w.Byte(0x4E) // tagCalibrator
	w.Uvarint(5) // k
	w.Uvarint(2)
	w.Uvarint(math.Float64bits(0.9))
	w.Bool(true)
	w.Uvarint(math.Float64bits(0.1)) // out of order
	w.Bool(false)
	if _, err := RestoreCalibrator(temporal.NewDecoder(w.Bytes())); err == nil {
		t.Fatal("unsorted preds accepted")
	}
}
