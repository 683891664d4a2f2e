package ml

import (
	"math"
	"sort"

	"timr/internal/temporal"
)

// Snapshots of trained model state, for the incremental-refresh store.
//
// A refresh generation persists every frozen-window model so the next
// day's delta ingest can reuse it without retraining. The encoding rides the temporal codec: floats travel as
// IEEE-754 bit patterns through Uvarint (the same framing Value uses
// for KindFloat), weights are emitted in sorted id order so identical
// models produce identical bytes, and each record opens with a tag byte
// so a truncated or mixed-up payload fails decode instead of producing
// a silently wrong model.

const tagModel byte = 0x4D

func putFloat(w *temporal.Encoder, f float64) { w.Uvarint(math.Float64bits(f)) }
func getFloat(r *temporal.Decoder) float64    { return math.Float64frombits(r.Uvarint()) }

// Snapshot appends the model's canonical encoding. Weight ids are
// sorted, so two models with equal (Bias, Weights, Epochs, Loss)
// snapshot to identical bytes regardless of map history.
func (m *Model) Snapshot(w *temporal.Encoder) {
	w.Byte(tagModel)
	putFloat(w, m.Bias)
	putFloat(w, m.Loss)
	w.Uvarint(uint64(m.Epochs))
	ids := make([]int64, 0, len(m.Weights))
	for id := range m.Weights {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		w.Varint(id)
		putFloat(w, m.Weights[id])
	}
}

// RestoreModel decodes one model snapshot. The returned model is fully
// owned by the caller (fresh map, no aliasing into the decoder's data).
func RestoreModel(r *temporal.Decoder) (*Model, error) {
	if err := r.Expect(tagModel, "ml model snapshot"); err != nil {
		return nil, err
	}
	m := &Model{Weights: make(map[int64]float64)}
	m.Bias = getFloat(r)
	m.Loss = getFloat(r)
	m.Epochs = int(r.Uvarint())
	n := r.Count("model weights")
	for i := 0; i < n; i++ {
		id := r.Varint()
		wv := getFloat(r)
		if r.Err() != nil {
			break
		}
		m.Weights[id] = wv
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return m, nil
}
