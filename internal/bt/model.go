package bt

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"timr/internal/ml"
	"timr/internal/temporal"
)

// RowsToExamples groups sparse training rows (TrainSchema) into per-
// impression examples: rows sharing (Time, UserId, AdId) form one
// example whose features are its (Keyword, KwCount) pairs.
//
// Rows for impressions whose UBP was empty never appear in the joined
// training data (a TemporalJoin drops them); callers that need them —
// the evaluation does, since empty-profile impressions still count
// against coverage — add them from the labeled stream via
// AddEmptyExamples.
//
// Examples come back ordered by (Time, UserId, AdId), not by arrival: SGD
// is order-sensitive, and rows sharing an instant reach a window in
// whatever order the run that produced them merged its partitions.
func RowsToExamples(rows []temporal.Row) []ml.Example {
	type key struct {
		t    int64
		user int64
		ad   int64
	}
	keys := make([]key, 0, len(rows))
	grouped := make(map[key]*ml.Example)
	for _, r := range rows {
		k := key{r[0].AsInt(), r[1].AsInt(), r[2].AsInt()}
		ex, ok := grouped[k]
		if !ok {
			ex = &ml.Example{Clicked: r[3].AsInt() == 1}
			grouped[k] = ex
			keys = append(keys, k)
		}
		ex.Features = append(ex.Features, ml.Feature{
			ID:  r[4].AsInt(),
			Val: float64(r[5].AsInt()),
		})
	}
	slices.SortFunc(keys, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.user, b.user), cmp.Compare(a.ad, b.ad))
	})
	out := make([]ml.Example, len(keys))
	for i, k := range keys {
		ex := grouped[k]
		ex.Features = ml.SortFeatures(ex.Features)
		out[i] = *ex
	}
	return out
}

// modelUDO returns the windowed UDO function fitting an LR model on the
// window's training rows and emitting it serialized.
func modelUDO(p Params) func(ws, we temporal.Time, rows []temporal.Row) []temporal.Row {
	return func(ws, we temporal.Time, rows []temporal.Row) []temporal.Row {
		// Inside the GroupApply the AdId column is still present; rows
		// here carry the full TrainSchema.
		examples := RowsToExamples(rows)
		m := ml.TrainLR(examples, p.ModelEpochs)
		return []temporal.Row{{temporal.String(SerializeModel(m))}}
	}
}

// SerializeModel encodes a model as "bias;id:w,id:w,..." with stable
// ordering, so repeated runs produce byte-identical model events (the
// repeatability guarantee extends through the UDO).
func SerializeModel(m *ml.Model) string {
	ids := make([]int64, 0, len(m.Weights))
	for id := range m.Weights {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "%.12g", m.Bias)
	b.WriteByte(';')
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d:%.12g", id, m.Weights[id])
	}
	return b.String()
}

// ParseModel decodes SerializeModel output.
func ParseModel(s string) (*ml.Model, error) {
	semi := strings.IndexByte(s, ';')
	if semi < 0 {
		return nil, fmt.Errorf("bt: malformed model %q", s)
	}
	bias, err := strconv.ParseFloat(s[:semi], 64)
	if err != nil {
		return nil, fmt.Errorf("bt: malformed model bias: %w", err)
	}
	m := &ml.Model{Bias: bias, Weights: make(map[int64]float64)}
	rest := s[semi+1:]
	if rest == "" {
		return m, nil
	}
	for _, part := range strings.Split(rest, ",") {
		colon := strings.IndexByte(part, ':')
		if colon < 0 {
			return nil, fmt.Errorf("bt: malformed model term %q", part)
		}
		id, err := strconv.ParseInt(part[:colon], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bt: malformed model term %q: %w", part, err)
		}
		w, err := strconv.ParseFloat(part[colon+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bt: malformed model term %q: %w", part, err)
		}
		m.Weights[id] = w
	}
	return m, nil
}

// AddEmptyExamples appends an empty-feature example for every labeled
// impression (Time, UserId, AdId, Clicked) of the given ad that produced
// no joined training rows.
func AddEmptyExamples(examples []ml.Example, labeled []temporal.Row, trainRows []temporal.Row, adID int64) []ml.Example {
	type key struct{ t, user int64 }
	have := make(map[key]bool, len(trainRows))
	for _, r := range trainRows {
		if r[2].AsInt() == adID {
			have[key{r[0].AsInt(), r[1].AsInt()}] = true
		}
	}
	for _, r := range labeled {
		if r[2].AsInt() != adID {
			continue
		}
		if have[key{r[0].AsInt(), r[1].AsInt()}] {
			continue
		}
		examples = append(examples, ml.Example{Clicked: r[3].AsInt() == 1})
	}
	return examples
}
