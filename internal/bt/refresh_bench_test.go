package bt

import (
	"testing"

	"timr/internal/temporal"
	"timr/internal/workload"
)

// The refresh benchmark pair prices day 7 of the sliding window both
// ways: Refresh_Delta applies the day as a delta on top of six days of
// accumulated state (front stages over the lookback tail only, counts
// merged, frozen models reused), Refresh_Full recomputes the whole
// seven-day history from scratch — the work the full path performs at
// the same point. The benchmark ledger's refresh_week workload tracks
// the ratio (bt.delta_speedup_day3); TestRefreshDeltaMatchesFull
// separately proves both land on byte-identical state.

// benchSetup ingests the first six days on the delta path and returns
// the encoded state plus the seventh day's rows.
func benchSetup(b *testing.B) (Params, workload.Config, []byte, *workload.Dataset) {
	b.Helper()
	p, cfg := refreshWorkload()
	data := workload.Generate(cfg)
	r := NewRefresher(p, cfg, RefreshOptions{Mode: ModeDelta})
	for day := 0; day < 6; day++ {
		if err := r.IngestDay(data.DayRows(day), temporal.Time(day+1)*temporal.Day); err != nil {
			b.Fatal(err)
		}
	}
	enc, err := r.State.SummaryBytes()
	if err != nil {
		b.Fatal(err)
	}
	return p, cfg, enc, data
}

func BenchmarkRefresh_Delta(b *testing.B) {
	p, cfg, enc, data := benchSetup(b)
	day7 := data.DayRows(6)
	var trainRows int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := DecodeState(enc)
		if err != nil {
			b.Fatal(err)
		}
		r := &Refresher{State: st}
		b.StartTimer()
		if err := r.IngestDay(day7, 7*temporal.Day); err != nil {
			b.Fatal(err)
		}
		trainRows = len(r.State.Train)
	}
	_ = p
	_ = cfg
	b.ReportMetric(float64(trainRows), "train_rows")
}

func BenchmarkRefresh_Full(b *testing.B) {
	p, cfg, _, data := benchSetup(b)
	var trainRows int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A delta ingest of the full history onto empty state runs the
		// exact work of the full path: front stages over every raw row,
		// counts from zero, every window model trained from scratch.
		r := NewRefresher(p, cfg, RefreshOptions{Mode: ModeDelta})
		if err := r.IngestDay(data.Rows, 7*temporal.Day); err != nil {
			b.Fatal(err)
		}
		trainRows = len(r.State.Train)
	}
	b.ReportMetric(float64(trainRows), "train_rows")
}
