// Package ml implements the model-building and scoring stage of the
// paper's BT pipeline (§IV-B.4): sparse logistic regression trained on
// balanced samples of (UBP, click) examples, CTR calibration against a
// validation set, and the CTR-lift / coverage evaluation used throughout
// the paper's Figures 21–23.
package ml

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"timr/internal/stats"
)

// Feature is one sparse dimension of a user behavior profile: the feature
// id (keyword/URL id after data reduction) and its weight (typically the
// count of occurrences within the profile window τ).
type Feature struct {
	ID  int64
	Val float64
}

// Example is one training observation: the UBP x_k at the time the ad was
// shown, and whether it was clicked (y_k). Features must be sorted by ID
// (SortFeatures normalizes).
type Example struct {
	Features []Feature
	Clicked  bool
}

// SortFeatures sorts a sparse vector by feature id, summing duplicates.
func SortFeatures(fs []Feature) []Feature {
	sort.Slice(fs, func(i, j int) bool { return fs[i].ID < fs[j].ID })
	out := fs[:0]
	for _, f := range fs {
		if n := len(out); n > 0 && out[n-1].ID == f.ID {
			out[n-1].Val += f.Val
			continue
		}
		out = append(out, f)
	}
	return out
}

// Training constants of the paper's setup: the initial SGD step (decayed
// per epoch), the ridge penalty, and the seed of the generator that
// samples and orders the examples.
const (
	learningRate = 0.1
	ridgeL2      = 1e-4
	trainSeed    = 1
)

// Model is a trained logistic-regression scorer: y = σ(w0 + wᵀx).
type Model struct {
	Bias    float64
	Weights map[int64]float64
	// Iterations actually run and final training loss, for diagnostics
	// and the learning-time experiment (§V-D).
	Epochs int
	Loss   float64
}

// TrainLR fits a logistic regression by SGD over epochs passes (<= 0:
// 50) with per-epoch learning-rate decay. It trains on a balanced sample:
// negatives are subsampled to the positive count ("we create a balanced
// dataset by sampling the negative examples", §IV-B.4), so calibrate
// afterwards to recover CTR estimates. Training is deterministic for a
// fixed example order.
//
// The weights train dense: the sample's feature ids, sorted and unique,
// are positions in one []float64, and each example's positions are looked
// up once, before the first epoch. The arithmetic and its order are the
// sparse update's, so the model is the same bits; Weights holds every id
// of the sample, and Loss is the final epoch's, the only one it reports.
func TrainLR(examples []Example, epochs int) *Model {
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
	ids, at, pos := densePositions(data)
	w := make([]float64, len(ids))
	for epoch := 0; epoch < epochs; epoch++ {
		lr := learningRate / (1 + 0.1*float64(epoch))
		final := epoch == epochs-1
		var loss float64
		for _, i := range order {
			ex, ps := data[i], pos[at[i]:at[i+1]]
			s := m.Bias
			for k, f := range ex.Features {
				s += w[ps[k]] * f.Val
			}
			p := stats.Sigmoid(s)
			y := 0.0
			if ex.Clicked {
				y = 1.0
			}
			g := p - y // d(logloss)/d(margin)
			m.Bias -= lr * g
			for k, f := range ex.Features {
				j := ps[k]
				w[j] = w[j] - lr*(g*f.Val+ridgeL2*w[j])
			}
			if !final {
				continue
			}
			if ex.Clicked {
				loss -= math.Log(math.Max(p, 1e-12))
			} else {
				loss -= math.Log(math.Max(1-p, 1e-12))
			}
		}
		if final {
			m.Loss = loss / float64(len(data))
		}
	}
	m.Epochs = epochs
	m.Weights = make(map[int64]float64, len(ids))
	for j, id := range ids {
		m.Weights[id] = w[j]
	}
	return m
}

// densePositions maps the feature ids of data, sorted and unique, to
// positions: example i's features sit at pos[at[i]:at[i+1]], in order.
func densePositions(data []Example) (ids []int64, at, pos []int32) {
	at = make([]int32, len(data)+1)
	for i, ex := range data {
		at[i+1] = at[i] + int32(len(ex.Features))
	}
	ids = make([]int64, 0, at[len(data)])
	for _, ex := range data {
		for _, f := range ex.Features {
			ids = append(ids, f.ID)
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	pos = make([]int32, at[len(data)])
	for i, ex := range data {
		for k, f := range ex.Features {
			j, _ := slices.BinarySearch(ids, f.ID)
			pos[int(at[i])+k] = int32(j)
		}
	}
	return ids, at, pos
}

// BalanceExamples keeps all positives and a uniform sample of negatives
// of equal size (all negatives if there are fewer).
func BalanceExamples(examples []Example, rng *rand.Rand) []Example {
	var pos, neg []Example
	for _, e := range examples {
		if e.Clicked {
			pos = append(pos, e)
		} else {
			neg = append(neg, e)
		}
	}
	if len(neg) > len(pos) && len(pos) > 0 {
		idx := rng.Perm(len(neg))[:len(pos)]
		sort.Ints(idx)
		sampled := make([]Example, len(idx))
		for i, j := range idx {
			sampled[i] = neg[j]
		}
		neg = sampled
	}
	return append(append([]Example(nil), pos...), neg...)
}

func (m *Model) score(fs []Feature) float64 {
	s := m.Bias
	for _, f := range fs {
		s += m.Weights[f.ID] * f.Val
	}
	return stats.Sigmoid(s)
}

// Predict returns σ(w0 + wᵀx): the model's click propensity for a UBP.
// On a balanced-trained model this is not the CTR — calibrate with
// Calibrator to compare across ads (§IV-B.4).
func (m *Model) Predict(fs []Feature) float64 { return m.score(fs) }

// Calibrator maps raw balanced-model predictions to CTR estimates: "we
// compute predictions for a separate validation dataset, choose the k
// nearest validation examples with predictions closest to y, and estimate
// CTR as the fraction of positive examples in this set."
type Calibrator struct {
	preds  []float64 // sorted
	labels []bool    // aligned with preds
	k      int
}

// NewCalibrator indexes a validation set. k defaults to 100.
func NewCalibrator(preds []float64, labels []bool, k int) *Calibrator {
	if len(preds) != len(labels) {
		panic("ml: preds/labels length mismatch")
	}
	if k <= 0 {
		k = 100
	}
	idx := make([]int, len(preds))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return preds[idx[i]] < preds[idx[j]] })
	c := &Calibrator{k: k, preds: make([]float64, len(preds)), labels: make([]bool, len(labels))}
	for i, j := range idx {
		c.preds[i] = preds[j]
		c.labels[i] = labels[j]
	}
	return c
}

// CTR estimates the click-through rate at a raw prediction y via the k
// nearest validation predictions.
func (c *Calibrator) CTR(y float64) float64 {
	n := len(c.preds)
	if n == 0 {
		return 0
	}
	k := c.k
	if k > n {
		k = n
	}
	// Locate the insertion point, then expand a window of size k around it.
	pos := sort.SearchFloat64s(c.preds, y)
	lo, hi := pos, pos // window [lo, hi)
	for hi-lo < k {
		switch {
		case lo == 0:
			hi++
		case hi == n:
			lo--
		case y-c.preds[lo-1] <= c.preds[hi]-y:
			lo--
		default:
			hi++
		}
	}
	clicks := 0
	for i := lo; i < hi; i++ {
		if c.labels[i] {
			clicks++
		}
	}
	return float64(clicks) / float64(k)
}
