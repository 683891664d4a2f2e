package bt

import (
	"sort"

	"timr/internal/stats"
	"timr/internal/temporal"
)

// Mergeable stage summaries for incremental refresh.
//
// The back half of the BT DAG — FeatureSelect, Reduce, Model — consumes
// only tumbling-window aggregates of the front stages' output, and
// tumbling windows are algebraically mergeable: the click/non-click
// counts of a window are sums over disjoint row sets, so counting a new
// day and adding it to yesterday's summary equals recounting history.
// CountSummary is that sufficient statistic: per-(window, ad) totals
// from the labeled stream (Figure 13's left half) and per-(window, ad,
// keyword) counts from the training rows (its right half). Feature
// selection replays the engine's exact arithmetic on it (stats.
// ZFromSummary is the same two-proportion z the ZScore projection
// computes), so a summary-driven refresh reproduces the engine's
// retained keyword set bit-for-bit.

// CountKey identifies one per-ad total: the tumbling training window
// (floor(Time/TrainPeriod)) and the ad.
type CountKey struct {
	Win int64
	Ad  int64
}

// KwKey identifies one per-(ad, keyword) count within a window.
type KwKey struct {
	Win int64
	Ad  int64
	Kw  int64
}

// CountSummary is the mergeable sufficient statistic of the
// FeatureSelect stage.
type CountSummary struct {
	Totals map[CountKey]stats.ClickCounts // from labeled rows (CT/NT)
	PerKw  map[KwKey]stats.ClickCounts    // from train rows (CK/NK)
}

// NewCountSummary returns an empty summary.
func NewCountSummary() *CountSummary {
	return &CountSummary{
		Totals: make(map[CountKey]stats.ClickCounts),
		PerKw:  make(map[KwKey]stats.ClickCounts),
	}
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// Window maps an event time to its tumbling training window, matching
// the engine's absolute hop alignment (windows end at multiples of the
// hop).
func Window(t temporal.Time, trainPeriod temporal.Time) int64 {
	return floorDiv(int64(t), int64(trainPeriod))
}

// AddLabeled folds labeled rows (LabeledSchema: Time, UserId, AdId,
// Clicked) into the per-ad totals.
func (s *CountSummary) AddLabeled(rows []temporal.Row, tp temporal.Time) {
	for _, r := range rows {
		k := CountKey{Win: Window(temporal.Time(r[0].AsInt()), tp), Ad: r[2].AsInt()}
		c := s.Totals[k]
		c.Add(r[3].AsInt() == 1)
		s.Totals[k] = c
	}
}

// AddTrain folds training rows (TrainSchema: Time, UserId, AdId,
// Clicked, Keyword, KwCount) into the per-keyword counts.
func (s *CountSummary) AddTrain(rows []temporal.Row, tp temporal.Time) {
	for _, r := range rows {
		k := KwKey{Win: Window(temporal.Time(r[0].AsInt()), tp), Ad: r[2].AsInt(), Kw: r[4].AsInt()}
		c := s.PerKw[k]
		c.Add(r[3].AsInt() == 1)
		s.PerKw[k] = c
	}
}

// SelectFeatures replays FeatureSelectPlan on the summary, returning
// the retained (window, ad, keyword) set with z-scores. The engine's
// eligibility is reproduced exactly: a Count over an empty window emits
// nothing and the temporal join drops the key, so a (window, ad[, kw])
// pair participates only when it saw at least one click AND one
// non-click; survivors then pass the support floor and |z| threshold
// inside TwoProportionZ / zScoreProjection. Only windows from fromWin
// on are scored: the refresher reduces no training row of an earlier,
// frozen window again.
func (s *CountSummary) SelectFeatures(p Params, fromWin int64) map[KwKey]float64 {
	out := make(map[KwKey]float64)
	for k, kw := range s.PerKw {
		if k.Win < fromWin || kw.Clicks < 1 || kw.Non < 1 {
			continue
		}
		tot, ok := s.Totals[CountKey{Win: k.Win, Ad: k.Ad}]
		if !ok || tot.Clicks < 1 || tot.Non < 1 {
			continue
		}
		z, ok := stats.ZFromSummary(kw, tot)
		if !ok {
			continue
		}
		if z < 0 {
			if -z < p.ZThreshold {
				continue
			}
		} else if z < p.ZThreshold {
			continue
		}
		out[k] = z
	}
	return out
}

// ReduceRows filters training rows down to the reduced training data:
// rows whose (window, ad, keyword) is in the selected set — the
// summary-side equivalent of ReducePlan's join against the shifted
// score stream.
func ReduceRows(trainRows []temporal.Row, selected map[KwKey]float64, tp temporal.Time) []temporal.Row {
	var out []temporal.Row
	for _, r := range trainRows {
		k := KwKey{Win: Window(temporal.Time(r[0].AsInt()), tp), Ad: r[2].AsInt(), Kw: r[4].AsInt()}
		if _, ok := selected[k]; ok {
			out = append(out, r)
		}
	}
	return out
}

const tagCountSummary byte = 0x43 // 'C'

// sortedCountKeys returns the totals keys in (Win, Ad) order.
func (s *CountSummary) sortedCountKeys() []CountKey {
	keys := make([]CountKey, 0, len(s.Totals))
	for k := range s.Totals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Win != keys[j].Win {
			return keys[i].Win < keys[j].Win
		}
		return keys[i].Ad < keys[j].Ad
	})
	return keys
}

// sortedKwKeys returns the per-keyword keys in (Win, Ad, Kw) order.
func (s *CountSummary) sortedKwKeys() []KwKey {
	keys := make([]KwKey, 0, len(s.PerKw))
	for k := range s.PerKw {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Win != b.Win {
			return a.Win < b.Win
		}
		if a.Ad != b.Ad {
			return a.Ad < b.Ad
		}
		return a.Kw < b.Kw
	})
	return keys
}

// encode appends the summary's canonical encoding: keys sorted, so
// equal summaries produce equal bytes regardless of map history.
func (s *CountSummary) encode(w *temporal.Encoder) {
	w.Byte(tagCountSummary)
	tks := s.sortedCountKeys()
	w.Uvarint(uint64(len(tks)))
	for _, k := range tks {
		c := s.Totals[k]
		w.Varint(k.Win)
		w.Varint(k.Ad)
		w.Uvarint(uint64(c.Clicks))
		w.Uvarint(uint64(c.Non))
	}
	kks := s.sortedKwKeys()
	w.Uvarint(uint64(len(kks)))
	for _, k := range kks {
		c := s.PerKw[k]
		w.Varint(k.Win)
		w.Varint(k.Ad)
		w.Varint(k.Kw)
		w.Uvarint(uint64(c.Clicks))
		w.Uvarint(uint64(c.Non))
	}
}

// decodeCountSummary reads one summary encoding.
func decodeCountSummary(r *temporal.Decoder) (*CountSummary, error) {
	if err := r.Expect(tagCountSummary, "count summary"); err != nil {
		return nil, err
	}
	s := NewCountSummary()
	nt := r.Count("summary totals")
	for i := 0; i < nt; i++ {
		k := CountKey{Win: r.Varint(), Ad: r.Varint()}
		c := stats.ClickCounts{Clicks: int64(r.Uvarint()), Non: int64(r.Uvarint())}
		if r.Err() != nil {
			return nil, r.Err()
		}
		if _, dup := s.Totals[k]; dup {
			return nil, r.Failf("count summary: duplicate total key %+v", k)
		}
		s.Totals[k] = c
	}
	nk := r.Count("summary per-keyword counts")
	for i := 0; i < nk; i++ {
		k := KwKey{Win: r.Varint(), Ad: r.Varint(), Kw: r.Varint()}
		c := stats.ClickCounts{Clicks: int64(r.Uvarint()), Non: int64(r.Uvarint())}
		if r.Err() != nil {
			return nil, r.Err()
		}
		if _, dup := s.PerKw[k]; dup {
			return nil, r.Failf("count summary: duplicate per-kw key %+v", k)
		}
		s.PerKw[k] = c
	}
	return s, r.Err()
}
