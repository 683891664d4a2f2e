package baseline

import (
	"fmt"
	"sort"
	"strings"

	"timr/internal/mapreduce"
	"timr/internal/ml"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// serializeCustomModel encodes a model deterministically (the custom
// pipeline's own copy of bt.SerializeModel, as with everything else here).
func serializeCustomModel(m *ml.Model) string {
	ids := make([]int64, 0, len(m.Weights))
	for id := range m.Weights {
		ids = append(ids, id)
	}
	sortInt64s(ids)
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

func sortInt64s(xs []int64) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

// Dataset names written by the custom M-R pipeline.
const (
	CustomDSClean   = "custom.clean"
	CustomDSLabeled = "custom.labeled"
	CustomDSTrain   = "custom.train"
	CustomDSScores  = "custom.scores"
	CustomDSReduced = "custom.reduced"
	CustomDSModels  = "custom.models"
)

var (
	customLabeledSchema = temporal.NewSchema(
		temporal.Field{Name: "Time", Kind: temporal.KindInt},
		temporal.Field{Name: "UserId", Kind: temporal.KindInt},
		temporal.Field{Name: "AdId", Kind: temporal.KindInt},
		temporal.Field{Name: "Clicked", Kind: temporal.KindInt},
	)
	customTrainSchema = temporal.NewSchema(
		temporal.Field{Name: "Time", Kind: temporal.KindInt},
		temporal.Field{Name: "UserId", Kind: temporal.KindInt},
		temporal.Field{Name: "AdId", Kind: temporal.KindInt},
		temporal.Field{Name: "Clicked", Kind: temporal.KindInt},
		temporal.Field{Name: "Keyword", Kind: temporal.KindInt},
		temporal.Field{Name: "KwCount", Kind: temporal.KindInt},
	)
	customScoreSchema = temporal.NewSchema(
		temporal.Field{Name: "AdId", Kind: temporal.KindInt},
		temporal.Field{Name: "Keyword", Kind: temporal.KindInt},
		temporal.Field{Name: "Win", Kind: temporal.KindInt},
		temporal.Field{Name: "Z", Kind: temporal.KindFloat},
	)
	customModelSchema = temporal.NewSchema(
		temporal.Field{Name: "AdId", Kind: temporal.KindInt},
		temporal.Field{Name: "Model", Kind: temporal.KindString},
	)
)

// CustomBTJob runs the hand-written BT pipeline as six map-reduce stages
// on the cluster — the configuration the paper times against TiMR in
// Figure 14 (right). Unlike TiMR, every reducer is query-specific code.
func CustomBTJob(c *mapreduce.Cluster, input string, p CustomParams) (*mapreduce.JobStat, error) {
	stages := []mapreduce.Stage{
		{
			Name: "custom-botelim", Inputs: []string{input}, Output: CustomDSClean,
			OutSchema: workload.UnifiedSchema(), PartitionCols: [][]int{{2}},
			Reduce: func(part int, in [][]mapreduce.Row, emit func(mapreduce.Row)) error {
				for _, r := range CustomBotElim(in[0], p) {
					emit(r)
				}
				return nil
			},
		},
		{
			Name: "custom-label", Inputs: []string{CustomDSClean}, Output: CustomDSLabeled,
			OutSchema: customLabeledSchema, PartitionCols: [][]int{{2}},
			Reduce: func(part int, in [][]mapreduce.Row, emit func(mapreduce.Row)) error {
				for _, r := range CustomLabel(in[0], p) {
					emit(r)
				}
				return nil
			},
		},
		{
			Name:   "custom-traindata",
			Inputs: []string{CustomDSLabeled, CustomDSClean}, Output: CustomDSTrain,
			OutSchema:     customTrainSchema,
			PartitionCols: [][]int{{1}, {2}}, // UserId in each schema
			Reduce: func(part int, in [][]mapreduce.Row, emit func(mapreduce.Row)) error {
				for _, r := range CustomTrainData(in[0], in[1], p) {
					emit(r)
				}
				return nil
			},
		},
		{
			Name:   "custom-featureselect",
			Inputs: []string{CustomDSLabeled, CustomDSTrain}, Output: CustomDSScores,
			OutSchema:     customScoreSchema,
			PartitionCols: [][]int{{2}, {2}}, // AdId in each schema
			Reduce: func(part int, in [][]mapreduce.Row, emit func(mapreduce.Row)) error {
				for _, s := range CustomFeatureSelect(in[0], in[1], p) {
					emit(temporal.Row{
						temporal.Int(s.AdID), temporal.Int(s.Keyword),
						temporal.Int(s.Win), temporal.Float(s.Z),
					})
				}
				return nil
			},
		},
		{
			Name:   "custom-reduce",
			Inputs: []string{CustomDSTrain, CustomDSScores}, Output: CustomDSReduced,
			OutSchema:     customTrainSchema,
			PartitionCols: [][]int{{2}, {0}}, // AdId
			Reduce: func(part int, in [][]mapreduce.Row, emit func(mapreduce.Row)) error {
				scores := make([]KeywordScore, len(in[1]))
				for i, r := range in[1] {
					scores[i] = KeywordScore{
						AdID: r[0].AsInt(), Keyword: r[1].AsInt(),
						Win: r[2].AsInt(), Z: r[3].AsFloat(),
					}
				}
				for _, r := range CustomReduce(in[0], scores, p.TrainPeriod) {
					emit(r)
				}
				return nil
			},
		},
		{
			Name:   "custom-models",
			Inputs: []string{CustomDSReduced}, Output: CustomDSModels,
			OutSchema:     customModelSchema,
			PartitionCols: [][]int{{2}}, // AdId
			Reduce: func(part int, in [][]mapreduce.Row, emit func(mapreduce.Row)) error {
				models := CustomModels(in[0], p)
				ads := make([]int64, 0, len(models))
				for ad := range models {
					ads = append(ads, ad)
				}
				sortInt64s(ads)
				for _, ad := range ads {
					emit(temporal.Row{temporal.Int(ad), temporal.String(serializeCustomModel(models[ad]))})
				}
				return nil
			},
		},
	}
	return c.Run(stages...)
}
