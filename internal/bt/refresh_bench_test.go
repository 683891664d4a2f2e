package bt

import (
	"testing"

	"timr/internal/temporal"
	"timr/internal/workload"
)

// The refresh benchmarks price day 7 of the sliding window three ways.
// Refresh_Delta is the steady state: one refresher ingests days 0–5 in
// process, and the seventh day is fed to its resident front stages, its
// counts merged and its open windows retrained. Refresh_Resume is the
// seventh day of a refresher that starts from the persisted state of
// days 0–5: it decodes the state and primes fresh front engines from its
// lookback tail before the day. Refresh_Full recomputes the whole
// seven-day history from scratch — the work the full path performs at
// the same point. The benchmark ledger's refresh_week workload tracks
// the full/delta ratio (bt.delta_speedup_day3);
// TestRefreshDeltaMatchesFull separately proves both land on
// byte-identical state.

// sixDays returns a refresher that has ingested the first six days on
// the delta path.
func sixDays(b *testing.B, p Params, cfg workload.Config, data *workload.Dataset) *Refresher {
	b.Helper()
	r := NewRefresher(p, cfg, RefreshOptions{Mode: ModeDelta})
	for day := 0; day < 6; day++ {
		if err := r.IngestDay(data.DayRows(day), temporal.Time(day+1)*temporal.Day); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

func BenchmarkRefresh_Delta(b *testing.B) {
	p, cfg := refreshWorkload()
	data := workload.Generate(cfg)
	day7 := data.DayRows(6)
	var trainRows int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := sixDays(b, p, cfg, data)
		b.StartTimer()
		if err := r.IngestDay(day7, 7*temporal.Day); err != nil {
			b.Fatal(err)
		}
		trainRows = len(r.State.Train)
	}
	b.ReportMetric(float64(trainRows), "train_rows")
}

func BenchmarkRefresh_Resume(b *testing.B) {
	p, cfg := refreshWorkload()
	data := workload.Generate(cfg)
	enc, err := sixDays(b, p, cfg, data).State.SummaryBytes()
	if err != nil {
		b.Fatal(err)
	}
	day7 := data.DayRows(6)
	var trainRows int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := DecodeState(enc)
		if err != nil {
			b.Fatal(err)
		}
		r := &Refresher{State: st}
		if err := r.IngestDay(day7, 7*temporal.Day); err != nil {
			b.Fatal(err)
		}
		trainRows = len(r.State.Train)
	}
	b.ReportMetric(float64(trainRows), "train_rows")
}

func BenchmarkRefresh_Full(b *testing.B) {
	p, cfg := refreshWorkload()
	data := workload.Generate(cfg)
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
