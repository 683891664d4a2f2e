package bt

import (
	"math"
	"sync"
	"unsafe"

	"timr/internal/ml"
	"timr/internal/stats"
	"timr/internal/temporal"
)

// ScorePlan closes the M3 loop (paper §IV-B.4): "The output model weights
// are lodged in the right synopsis of a TemporalJoin operator (for
// scoring), so we can generate a prediction whenever a new UBP is fed on
// its left input."
//
// Left input: per-impression sparse feature rows (SourceReduced, the
// TrainSchema shape — at serving time these are the reduced UBPs of
// incoming impressions). Right input: the serialized per-ad models
// produced by ModelPlan, scanned as SourceModels. Each feature row joins
// the model valid at its instant, contributes w_kw · count, and the
// per-impression contributions are summed by a GroupApply whose key
// includes the model's bias (constant per ad), so the final projection can
// apply it and the logistic function.
//
// Impressions whose UBP was empty produce no rows here; a deployment
// scores them with the model's bias alone (the evaluation harness does).
func ScorePlan(p Params, annotate bool) *temporal.Plan {
	rows := maybeExchange(temporal.Scan(SourceReduced, TrainSchema), annotate, adKey())
	models := maybeExchange(temporal.Scan(SourceModels, ModelSchema), annotate, adKey())

	// Model events are valid for the hop AFTER their training window; at
	// serving time that alignment is exactly right. For offline
	// back-testing over the same log, the harness feeds test-period rows,
	// which fall inside the models' validity — no shift needed.
	joined := rows.Join(models, []string{"AdId"}, []string{"AdId"}, nil)

	// Per-row partial dot product w_kw * count. Model blobs are parsed
	// through a tiny cache keyed by the blob's identity — its data pointer
	// and length — not its bytes: every row of a model event carries that
	// event's string, so a hit hashes two words, however long the model.
	// The key's pointer keeps the blob alive, so an identity never comes
	// to name other bytes; a copy of a blob (a restored synopsis) is parsed
	// again. Every engine compiled from this plan shares these closures —
	// under TiMR, several reducers at once — hence a sync.Map: a hit is a
	// lock-free, allocation-free Load, on the single-goroutine serving path
	// too.
	type blobID struct {
		data *byte
		n    int
	}
	var cache sync.Map // blobID -> *ml.Model
	lookup := func(blob string) *ml.Model {
		id := blobID{unsafe.StringData(blob), len(blob)}
		if m, ok := cache.Load(id); ok {
			return m.(*ml.Model)
		}
		m, err := ParseModel(blob)
		if err != nil {
			m = &ml.Model{Weights: map[int64]float64{}}
		}
		cached, _ := cache.LoadOrStore(id, m)
		return cached.(*ml.Model)
	}
	partial := joined.Project(
		temporal.Keep("Time"),
		temporal.Keep("UserId"),
		temporal.Keep("AdId"),
		temporal.Keep("Clicked"),
		temporal.Compute("Bias", temporal.KindInt, func(v []temporal.Value) temporal.Value {
			return temporal.Int(int64(math.Float64bits(lookup(v[0].AsString()).Bias)))
		}, "Model"),
		temporal.Compute("Part", temporal.KindFloat, func(v []temporal.Value) temporal.Value {
			m := lookup(v[0].AsString())
			return temporal.Float(m.Weights[v[1].AsInt()] * float64(v[2].AsInt()))
		}, "Model", "Keyword", "KwCount"),
	)

	// One group per impression: sum the partial contributions. The
	// rows of one impression share a timestamp, so the snapshot Sum over
	// their point lifetimes is exactly the dot product. The key carries the
	// model's bias to the final projection. ModelPlan's hops do not overlap,
	// so one model per ad is valid at any instant and the bias groups
	// exactly as the model would, without hashing the model's blob per row.
	// It travels as its IEEE bits, so NaN and ±0 group exactly too.
	perImpression := partial.GroupApply(
		[]string{"Time", "UserId", "AdId", "Clicked", "Bias"},
		func(g *temporal.Plan) *temporal.Plan { return g.Sum("Part", "Dot") },
	)

	return perImpression.Project(
		temporal.Keep("Time"),
		temporal.Keep("UserId"),
		temporal.Keep("AdId"),
		temporal.Keep("Clicked"),
		temporal.Compute("Score", temporal.KindFloat, func(v []temporal.Value) temporal.Value {
			bias := math.Float64frombits(uint64(v[0].AsInt()))
			return temporal.Float(stats.Sigmoid(bias + v[1].AsFloat()))
		}, "Bias", "Dot"),
	)
}

// SourceModels is the scan name of the model stream in ScorePlan.
const SourceModels = "models"
