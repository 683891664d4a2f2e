package bt

import (
	"timr/internal/stats"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// Scan-source names used by the pipeline phases. Each phase's output
// dataset is the next phase's source.
const (
	SourceEvents  = "events"
	SourceClean   = "clean"
	SourceLabeled = "labeled"
	SourceTrain   = "train"
	SourceScores  = "scores"
	SourceReduced = "reduced"
)

func userKey() temporal.PartitionBy {
	return temporal.PartitionBy{Cols: []string{"UserId"}}
}

func adKey() temporal.PartitionBy {
	return temporal.PartitionBy{Cols: []string{"AdId"}}
}

func adKwKey() temporal.PartitionBy {
	return temporal.PartitionBy{Cols: []string{"AdId", "Keyword"}}
}

func maybeExchange(p *temporal.Plan, annotate bool, key temporal.PartitionBy) *temporal.Plan {
	if annotate {
		return p.Exchange(key)
	}
	return p
}

// BotElimPlan is the paper's Figure 11: flag any user who clicks more
// than T1 ads or searches more than T2 keywords within τ (refreshed every
// BotHop) and AntiSemiJoin the composite stream against the flagged
// intervals. annotate adds the paper's {UserId} partitioning.
func BotElimPlan(p Params, annotate bool) *temporal.Plan {
	return botElim(p, maybeExchange(temporal.Scan(SourceEvents, workload.UnifiedSchema()), annotate, userKey()))
}

// botElim is BotElimPlan's body over the raw event stream in.
func botElim(p Params, in *temporal.Plan) *temporal.Plan {
	bots := in.GroupApply([]string{"UserId"}, func(g *temporal.Plan) *temporal.Plan {
		clicks := g.Where(temporal.ColEqInt("StreamId", workload.StreamClick)).
			WithHop(p.Tau, p.BotHop).
			Count("Cnt").
			Where(temporal.ColGtInt("Cnt", p.T1))
		searches := g.Where(temporal.ColEqInt("StreamId", workload.StreamKeyword)).
			WithHop(p.Tau, p.BotHop).
			Count("Cnt").
			Where(temporal.ColGtInt("Cnt", p.T2))
		return clicks.Union(searches)
	})
	return in.AntiSemiJoin(bots, []string{"UserId"}, []string{"UserId"})
}

// LabelPlan derives the labeled impression stream S1 of Figure 12: ad
// clicks (Clicked=1) unioned with non-clicks — impressions that are NOT
// followed by a click by the same user on the same ad within d, detected
// by AntiSemiJoining impressions against click lifetimes moved d into the
// past.
func LabelPlan(p Params, annotate bool) *temporal.Plan {
	return label(p, maybeExchange(temporal.Scan(SourceClean, workload.UnifiedSchema()), annotate, userKey()))
}

// label is LabelPlan's body over the clean stream in.
func label(p Params, in *temporal.Plan) *temporal.Plan {
	toLabeled := func(s *temporal.Plan, clicked int64) *temporal.Plan {
		return s.Project(
			temporal.Keep("Time"),
			temporal.Keep("UserId"),
			temporal.Rename("KwAdId", "AdId"),
			temporal.ConstInt("Clicked", clicked),
		)
	}
	impressions := in.Where(temporal.ColEqInt("StreamId", workload.StreamImpression))
	clicks := in.Where(temporal.ColEqInt("StreamId", workload.StreamClick))
	// A click at time c covers [c-d, c): exactly the impressions it
	// "answers" ("AlterLifetime LE = OldLE - 5", Figure 12).
	clickCover := clicks.WithWindow(p.D).ShiftLifetime(-p.D)
	nonClicks := impressions.AntiSemiJoin(clickCover,
		[]string{"UserId", "KwAdId"}, []string{"UserId", "KwAdId"})
	return toLabeled(nonClicks, 0).Union(toLabeled(clicks, 1))
}

// UBPPlan computes sparse user behavior profiles (Definition 1): for each
// (user, keyword), the count of searches/pageviews within the last τ,
// "refreshed each time there is user activity".
func UBPPlan(p Params, clean *temporal.Plan) *temporal.Plan {
	return clean.Where(temporal.ColEqInt("StreamId", workload.StreamKeyword)).
		GroupApply([]string{"UserId", "KwAdId"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(p.Tau).Count("KwCount")
		}).
		Project(
			temporal.Keep("UserId"),
			temporal.Rename("KwAdId", "Keyword"),
			temporal.Keep("KwCount"),
		)
}

// TrainDataPlan is the heart of Figure 12: whenever there is a click or
// non-click for a user, join it with that user's UBP at that instant,
// emitting one sparse training row per profile keyword. The paper's
// Example 3 applies: the UBP GroupApply keys {UserId, Keyword} but the
// plan is annotated {UserId} only, so everything is one fragment.
func TrainDataPlan(p Params, annotate bool) *temporal.Plan {
	labeled := maybeExchange(temporal.Scan(SourceLabeled, LabeledSchema), annotate, userKey())
	clean := maybeExchange(temporal.Scan(SourceClean, workload.UnifiedSchema()), annotate, userKey())
	return trainRows(labeled, UBPPlan(p, clean))
}

// NaiveTrainDataPlan is the strawman annotation of Example 3: UBP
// generation partitioned by {UserId, Keyword}, repartitioned to {UserId}
// for the join. Used by the fragment-optimization experiment (§V-B).
func NaiveTrainDataPlan(p Params) *temporal.Plan {
	labeled := temporal.Scan(SourceLabeled, LabeledSchema).Exchange(userKey())
	clean := temporal.Scan(SourceClean, workload.UnifiedSchema()).
		Exchange(temporal.PartitionBy{Cols: []string{"UserId", "KwAdId"}})
	return trainRows(labeled, UBPPlan(p, clean).Exchange(userKey()))
}

// frontPlan composes BotElim, Label and TrainData into one plan DAG over
// the raw events, exchanged once, on {UserId}: every operator of the three
// is keyed on UserId, so the whole front is one fragment. It returns the
// labeled and train roots, which share the clean subplan.
func frontPlan(p Params) (labeled, train *temporal.Plan) {
	clean := botElim(p, temporal.Scan(SourceEvents, workload.UnifiedSchema()).Exchange(userKey()))
	labeled = label(p, clean)
	return labeled, trainRows(labeled, UBPPlan(p, clean))
}

// trainRows joins each labeled row with its user's profile entries at
// that instant, one training row per entry.
func trainRows(labeled, ubp *temporal.Plan) *temporal.Plan {
	return labeled.Join(ubp, []string{"UserId"}, []string{"UserId"}, nil).
		Project(
			temporal.Keep("Time"),
			temporal.Keep("UserId"),
			temporal.Keep("AdId"),
			temporal.Keep("Clicked"),
			temporal.Keep("Keyword"),
			temporal.Keep("KwCount"),
		)
}

// clickNonClickCounts builds the windowed click/non-click Count pair used
// by both halves of Figure 13.
func clickNonClickCounts(p Params, g *temporal.Plan, clickName, nonClickName string) *temporal.Plan {
	clicks := g.Where(temporal.ColEqInt("Clicked", 1)).
		WithHop(p.TrainPeriod, p.TrainPeriod).
		Count(clickName)
	nonClicks := g.Where(temporal.ColEqInt("Clicked", 0)).
		WithHop(p.TrainPeriod, p.TrainPeriod).
		Count(nonClickName)
	return clicks.Join(nonClicks, nil, nil, nil)
}

// TotalCountPlan is Figure 13's left half: per-ad total clicks (CT) and
// non-clicks (NT) over the training period, partitionable by {AdId}.
func TotalCountPlan(p Params, annotate bool) *temporal.Plan {
	labeled := maybeExchange(temporal.Scan(SourceLabeled, LabeledSchema), annotate, adKey())
	return labeled.GroupApply([]string{"AdId"}, func(g *temporal.Plan) *temporal.Plan {
		return clickNonClickCounts(p, g, "CT", "NT")
	})
}

// PerKeywordCountPlan is Figure 13's right half: per-(ad, keyword) clicks
// (CK) and non-clicks (NK), partitionable by {AdId, Keyword}.
func PerKeywordCountPlan(p Params, annotate bool) *temporal.Plan {
	train := maybeExchange(temporal.Scan(SourceTrain, TrainSchema), annotate, adKwKey())
	return train.GroupApply([]string{"AdId", "Keyword"}, func(g *temporal.Plan) *temporal.Plan {
		return clickNonClickCounts(p, g, "CK", "NK")
	})
}

// zScoreProjection computes the unpooled two-proportion z-score (§IV-B.3)
// from the joined count columns; Sup is false when the support floor (5
// observations each way) is not met.
func zScoreProjection() []temporal.Projection {
	return []temporal.Projection{
		temporal.Keep("AdId"),
		temporal.Keep("Keyword"),
		temporal.Compute("Z", temporal.KindFloat, func(v []temporal.Value) temporal.Value {
			z, _ := zFromCounts(v)
			return temporal.Float(z)
		}, "CK", "NK", "CT", "NT"),
		temporal.Compute("Sup", temporal.KindBool, func(v []temporal.Value) temporal.Value {
			_, ok := zFromCounts(v)
			return temporal.Bool(ok)
		}, "CK", "NK", "CT", "NT"),
	}
}

// zFromCounts derives the test inputs: clicks/impressions with the
// keyword (CK, CK+NK) and without it (CT−CK, (CT+NT)−(CK+NK)).
func zFromCounts(v []temporal.Value) (float64, bool) {
	ck, nk := v[0].AsInt(), v[1].AsInt()
	ct, nt := v[2].AsInt(), v[3].AsInt()
	return stats.TwoProportionZ(ck, ck+nk, ct-ck, (ct+nt)-(ck+nk))
}

// FeatureSelectPlan is the full Figure 13 (CalcScore): join per-keyword
// and total counts, compute z, and keep supported keywords with
// |z| >= ZThreshold. A threshold of 0 is the paper's KE-0 (support only).
func FeatureSelectPlan(p Params, annotate bool) *temporal.Plan {
	perKw := PerKeywordCountPlan(p, annotate)
	if annotate {
		// Repartition the per-keyword counts from {AdId,Keyword} to
		// {AdId} for the join with the totals.
		perKw = perKw.Exchange(adKey())
	}
	totals := TotalCountPlan(p, annotate)
	scored := perKw.Join(totals, []string{"AdId"}, []string{"AdId"}, nil).
		Project(zScoreProjection()...)
	return scored.
		Where(temporal.And(
			temporal.FnPred("Sup", func(v []temporal.Value) bool { return v[0].AsBool() }, "Sup"),
			temporal.AbsGeFloat("Z", p.ZThreshold),
		)).
		Project(temporal.Keep("AdId"), temporal.Keep("Keyword"), temporal.Keep("Z"))
}

// ReducePlan joins the training data with the retained keyword stream to
// produce reduced training data (end of §IV-B.3). Scores are learned over
// a period and joined back onto it by shifting their validity to the
// period they summarize.
func ReducePlan(p Params, annotate bool) *temporal.Plan {
	train := maybeExchange(temporal.Scan(SourceTrain, TrainSchema), annotate, adKwKey())
	scores := maybeExchange(temporal.Scan(SourceScores, ScoreSchema), annotate, adKwKey()).
		ShiftLifetime(-p.TrainPeriod)
	return train.Join(scores, []string{"AdId", "Keyword"}, []string{"AdId", "Keyword"}, nil).
		Project(
			temporal.Keep("Time"),
			temporal.Keep("UserId"),
			temporal.Keep("AdId"),
			temporal.Keep("Clicked"),
			temporal.Keep("Keyword"),
			temporal.Keep("KwCount"),
		)
}

// ModelPlan fits one logistic-regression model per ad over hopping
// windows of the reduced training data, using a windowed UDO (§IV-B.4:
// "the hop size determines the frequency of performing LR, while window
// size determines the amount of training data"). Models are emitted as
// serialized weight vectors valid for one hop.
func ModelPlan(p Params, annotate bool) *temporal.Plan {
	reduced := maybeExchange(temporal.Scan(SourceReduced, TrainSchema), annotate, adKey())
	return reduced.GroupApply([]string{"AdId"}, func(g *temporal.Plan) *temporal.Plan {
		return g.Apply(temporal.UDOSpec{
			Name:   "LogisticRegression",
			Window: p.TrainPeriod,
			Hop:    p.TrainPeriod,
			Out:    temporal.NewSchema(temporal.Field{Name: "Model", Kind: temporal.KindString}),
			Fn:     modelUDO(p),
		})
	})
}

// QueryInventory names the pipeline's temporal sub-queries — the unit the
// paper counts in Figure 14 ("end-to-end BT using TiMR uses 20
// easy-to-write temporal queries").
func QueryInventory() []string {
	return []string{
		"BotElim.ClickCount", "BotElim.ClickThreshold",
		"BotElim.SearchCount", "BotElim.SearchThreshold",
		"BotElim.BotUnion", "BotElim.AntiSemiJoin",
		"Label.ClickCover", "Label.NonClickASJ", "Label.Labeled",
		"TrainData.UBP", "TrainData.Join",
		"FeatureSelect.TotalClickCount", "FeatureSelect.TotalNonClickCount",
		"FeatureSelect.PerKwClickCount", "FeatureSelect.PerKwNonClickCount",
		"FeatureSelect.CountJoin", "FeatureSelect.ZScore", "FeatureSelect.Threshold",
		"Reduce.Join",
		"Model.LRWindow",
	}
}
