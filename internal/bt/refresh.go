package bt

import (
	"fmt"
	"math"
	"sort"
	"time"

	"timr/internal/dur"
	"timr/internal/ml"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// Incremental BT refresh (the sliding-window deployment of §IV): the
// pipeline ingests one day of raw log at a time instead of recomputing
// the whole history. The DAG's front stages (FrontStages) reach a
// bounded distance backward and forward in time, so each ingest
// recomputes them over a window of raw history — Lookback(P) behind the
// previous watermark through the new day's end — and finalizes exactly
// the output rows whose Time falls between the old and new watermarks
// (F = dayEnd − D: a row earlier than F can never change, because the
// only forward reach is the non-click detector's d). Everything behind
// the watermark is maintained as mergeable summaries: click counts add,
// z-tests replay exactly on the merged counts, reduced training rows
// concatenate, and frozen-window models are trained once and reused.
//
// The delta path is the refresher. A full recompute from complete raw
// history (ModeFull) is kept only as its reference: both land in
// byte-identical state (RefreshState.SummaryBytes), which
// TestRefreshDeltaMatchesFull asserts after every day.

// RefreshMode selects the refresh path.
type RefreshMode int

const (
	ModeDelta RefreshMode = iota // apply the day's delta: the refresher
	ModeFull                     // recompute from full history: the reference
)

// RefreshOptions configure a Refresher.
type RefreshOptions struct {
	Mode RefreshMode

	// RetainHistory keeps every ingested raw row in memory, which
	// ModeFull recomputes from (the delta path only needs the Lookback
	// tail the state carries).
	RetainHistory bool

	// Store persists one generation per ingest (nil: in-memory only).
	Store *dur.Store
}

// Refresher maintains RefreshState across daily ingests.
type Refresher struct {
	State *RefreshState
	Opts  RefreshOptions

	// DurErr is the newest persistence error (nil after a successful
	// commit). Commit failure does not fail the ingest — the previous
	// generation remains a correct, older recovery line.
	DurErr error

	history []temporal.Row // full raw log, kept only with RetainHistory
}

// NewRefresher builds a refresher with empty state.
func NewRefresher(p Params, cfg workload.Config, opts RefreshOptions) *Refresher {
	return &Refresher{State: NewRefreshState(p, cfg), Opts: opts}
}

// Restore loads the newest intact persisted generation from the
// configured store, replacing the in-memory state. Returns false when
// the store holds none (the refresher starts empty). Raw history is not
// persisted beyond the lookback tail, so a restored refresher continues
// on the delta path only: a ModeFull ingest after a restore errors,
// because its retained history no longer covers State.RawRows.
func (r *Refresher) Restore() (bool, error) {
	if r.Opts.Store == nil {
		return false, fmt.Errorf("bt: refresher has no store to restore from")
	}
	rec, err := r.Opts.Store.LoadState()
	if err != nil || rec == nil {
		return false, err
	}
	st, err := DecodeState(rec.Payload)
	if err != nil {
		return false, err
	}
	if int64(st.Watermark) != int64(rec.Wave) || st.Days != rec.Waves {
		return false, fmt.Errorf("bt: refresh state disagrees with generation header (wave %d/%d, days %d/%d)",
			st.Watermark, rec.Wave, st.Days, rec.Waves)
	}
	r.State = st
	r.history = nil
	return true, nil
}

// IngestDay advances the refresher by one day of raw log rows (Time-
// sorted, all within [previous dayEnd, dayEnd)). Both modes finalize
// rows up to the new watermark dayEnd − D and leave byte-identical
// SummaryBytes.
func (r *Refresher) IngestDay(dayRows []temporal.Row, dayEnd temporal.Time) error {
	st := r.State
	if newF := dayEnd - st.P.D; newF <= st.Watermark && st.Days > 0 {
		return fmt.Errorf("bt: refresh ingest does not advance the watermark (%d -> %d)", st.Watermark, newF)
	}

	var err error
	switch {
	case r.Opts.Mode != ModeFull:
		err = r.ingestDelta(dayRows, dayEnd)
	case !r.Opts.RetainHistory:
		return fmt.Errorf("bt: ModeFull requires RetainHistory")
	case int64(len(r.history)) < st.RawRows:
		return fmt.Errorf("bt: full recompute needs the whole raw history: %d rows retained, %d ingested (a restored refresher runs delta only)",
			len(r.history), st.RawRows)
	default:
		all := make([]temporal.Row, 0, len(r.history)+len(dayRows))
		all = append(all, r.history...)
		all = append(all, dayRows...)
		err = r.fullRecompute(all, dayEnd)
	}
	if err != nil {
		return err
	}
	if r.Opts.RetainHistory {
		r.history = append(r.history, dayRows...)
	}
	return r.persist()
}

func (r *Refresher) persist() error {
	r.DurErr = nil
	if r.Opts.Store == nil {
		return nil
	}
	payload, err := r.State.SummaryBytes()
	if err != nil {
		return err
	}
	r.DurErr = r.Opts.Store.CommitState(r.State.Watermark, r.State.Days, payload)
	return nil
}

// rowLess is the canonical row order: column-wise integer compare, Time
// (column 0) first. Both refresh paths sort finalized rows with it, so
// equal row sets serialize identically.
func rowLess(a, b temporal.Row) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		av, bv := a[i].AsInt(), b[i].AsInt()
		if av != bv {
			return av < bv
		}
	}
	return len(a) < len(b)
}

func sortRows(rows []temporal.Row) {
	sort.SliceStable(rows, func(i, j int) bool { return rowLess(rows[i], rows[j]) })
}

// eventRows flattens plan output events to their payload rows.
func eventRows(evs []temporal.Event) []temporal.Row {
	rows := make([]temporal.Row, 0, len(evs))
	for _, e := range evs {
		rows = append(rows, e.Payload)
	}
	return rows
}

// rowsInRange keeps rows with lo <= Time < hi.
func rowsInRange(rows []temporal.Row, lo, hi temporal.Time) []temporal.Row {
	var out []temporal.Row
	for _, row := range rows {
		if t := temporal.Time(row[0].AsInt()); t >= lo && t < hi {
			out = append(out, row)
		}
	}
	return out
}

// runFront executes the front stages single-node over a raw-row window,
// recording one aggregate timing observation, and returns the labeled
// and train output rows.
func (st *RefreshState) runFront(input []temporal.Row) (labeled, train []temporal.Row, err error) {
	ds := map[string][]temporal.Event{DSEvents: temporal.RowsToPointEvents(input, 0)}
	start := time.Now()
	if err := RunStagesSingleNode(st.P, FrontStages(false), ds); err != nil {
		return nil, nil, err
	}
	st.RecordTiming("Front", int64(len(input)), time.Since(start).Nanoseconds())
	return eventRows(ds[DSLabeled]), eventRows(ds[DSTrain]), nil
}

// finalize folds newly-owned front-stage rows (watermark interval
// [lo, hi)) into the state: rows append in canonical order, counts
// merge.
func (st *RefreshState) finalize(labeled, train []temporal.Row, lo, hi temporal.Time) {
	start := time.Now()
	newLabeled := rowsInRange(labeled, lo, hi)
	newTrain := rowsInRange(train, lo, hi)
	sortRows(newLabeled)
	sortRows(newTrain)
	st.Labeled = append(st.Labeled, newLabeled...)
	st.Train = append(st.Train, newTrain...)
	st.Counts.AddLabeled(newLabeled, st.P.TrainPeriod)
	st.Counts.AddTrain(newTrain, st.P.TrainPeriod)
	st.RecordTiming("Counts", int64(len(newLabeled)+len(newTrain)), time.Since(start).Nanoseconds())
}

// ingestDelta is the incremental path: recompute the front stages over
// the retained tail plus the new day, finalize the watermark interval,
// merge summaries, and retrain only non-frozen windows.
func (r *Refresher) ingestDelta(dayRows []temporal.Row, dayEnd temporal.Time) error {
	st := r.State
	fPrev, fNew := st.Watermark, dayEnd-st.P.D
	input := make([]temporal.Row, 0, len(st.TailRaw)+len(dayRows))
	input = append(input, st.TailRaw...)
	input = append(input, dayRows...)

	labeled, train, err := st.runFront(input)
	if err != nil {
		return err
	}
	st.finalize(labeled, train, fPrev, fNew)

	keep := fNew - Lookback(st.P)
	tail := rowsInRange(input, keep, temporal.Time(math.MaxInt64))
	st.TailRaw = append([]temporal.Row(nil), tail...)
	st.Watermark = fNew
	st.Days++
	st.RawRows += int64(len(dayRows))
	st.rebuildModels(st.Models)
	return nil
}

// fullRecompute rebuilds the whole state from complete raw history —
// the reference the delta path must match byte-for-byte.
func (r *Refresher) fullRecompute(allRaw []temporal.Row, dayEnd temporal.Time) error {
	old := r.State
	ns := NewRefreshState(old.P, old.Cfg)
	ns.Timings = old.Timings
	fNew := dayEnd - ns.P.D

	labeled, train, err := ns.runFront(allRaw)
	if err != nil {
		return err
	}
	ns.finalize(labeled, train, 0, fNew)
	ns.TailRaw = append([]temporal.Row(nil), rowsInRange(allRaw, fNew-Lookback(ns.P), temporal.Time(math.MaxInt64))...)
	ns.Watermark = fNew
	ns.Days = old.Days + 1
	ns.RawRows = int64(len(allRaw))
	ns.rebuildModels(nil) // no cache: every window trains from scratch
	r.State = ns
	return nil
}

type winAd struct{ win, ad int64 }

// rebuildModels recomputes the model cache from the finalized training
// rows: frozen windows reuse their cached model verbatim (their inputs
// can never change), non-frozen windows retrain from scratch.
func (st *RefreshState) rebuildModels(prev []WindowModel) {
	start := time.Now()
	selected := st.Counts.SelectFeatures(st.P)
	reduced := ReduceRows(st.Train, selected, st.P.TrainPeriod)

	groups := make(map[winAd][]temporal.Row)
	for _, row := range reduced {
		k := winAd{Window(temporal.Time(row[0].AsInt()), st.P.TrainPeriod), row[2].AsInt()}
		groups[k] = append(groups[k], row)
	}
	keys := make([]winAd, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].win != keys[j].win {
			return keys[i].win < keys[j].win
		}
		return keys[i].ad < keys[j].ad
	})

	cache := make(map[winAd]WindowModel, len(prev))
	for _, m := range prev {
		cache[winAd{m.Win, m.Ad}] = m
	}
	cfg := ml.DefaultLRConfig()
	cfg.Epochs = st.P.ModelEpochs
	var trained int64
	models := make([]WindowModel, 0, len(keys))
	for _, k := range keys {
		if pm, ok := cache[k]; ok && pm.Frozen {
			models = append(models, pm)
			continue
		}
		rows := groups[k]
		trained += int64(len(rows))
		models = append(models, WindowModel{
			Win:    k.win,
			Ad:     k.ad,
			Frozen: (k.win+1)*int64(st.P.TrainPeriod) <= int64(st.Watermark),
			Model:  ml.TrainLR(RowsToExamples(rows), cfg),
		})
	}
	st.Models = models
	st.RecordTiming("Model", trained, time.Since(start).Nanoseconds())
}
