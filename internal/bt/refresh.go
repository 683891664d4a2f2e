package bt

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"timr/internal/core"
	"timr/internal/dur"
	"timr/internal/ml"
	"timr/internal/par"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// Incremental BT refresh (the sliding-window deployment of §IV): the
// pipeline ingests one day of raw log at a time instead of recomputing
// the whole history. The DAG's front stages (FrontStages) reach a
// bounded distance backward and forward in time, and the delta path
// keeps them resident as one core.StreamingJob over the composed front
// plan (frontPlan): each ingest feeds it the new day once and runs one
// punctuation wave at dayEnd. Its two outputs, labeled and train rows,
// are then complete below the new watermark F = dayEnd − D, and what a
// wave delivers is exactly the output rows whose Time falls between the
// old and new watermarks (a row earlier than F can never change, because
// the only forward reach is the non-click detector's d). Everything
// behind the watermark is maintained as mergeable summaries: click counts
// add, z-tests replay exactly on the merged counts, reduced training rows
// concatenate, and frozen-window models are trained once and reused. The
// state keeps the raw rows of the last Lookback(P) as its recovery line:
// a refresher that starts from a persisted state primes a fresh job from
// them.
//
// Every front operator is keyed on UserId, so the composed plan is
// exchanged once, on {UserId} (the paper's annotation of Example 3), and
// is one fragment: the job runs it as one engine per UserId-hash
// partition, its waves on up to GOMAXPROCS goroutines. The job's output
// barrier releases a wave's rows of all partitions in (LE, RE, payload)
// order, which for these point rows is the canonical row order, so the
// state is the bytes one engine over all users would leave.
//
// The delta path is the refresher. A full recompute from complete raw
// history (ModeFull) is kept only as its reference, and evaluates the
// front differently: fresh engines over the whole log, run to the end of
// input and flushed. Both land in byte-identical state
// (RefreshState.SummaryBytes), which TestRefreshDeltaMatchesFull asserts
// after every day.

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

	// front is the delta path's resident front stages, one streaming job
	// extending the State frontOf. The next delta ingest primes a fresh
	// one from State.TailRaw when it is nil or frontOf is not State.
	front   *core.StreamingJob
	frontOf *RefreshState
	// labeled and train collect the rows the front delivers in a wave.
	labeled, train []temporal.Row

	// machines is the front job's machine count, the number of UserId-hash
	// partitions it runs (0: GOMAXPROCS). Only tests set it: the state
	// does not depend on it.
	machines int
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
	var st *RefreshState
	g, err := r.Opts.Store.Load(func(g *dur.Generation) error {
		var err error
		st, err = DecodeState(g.Payload)
		return err
	})
	if err != nil || g == nil {
		return false, err
	}
	if st.Watermark != g.Wave || st.Days != g.Waves {
		return false, fmt.Errorf("bt: refresh state disagrees with generation header (wave %d/%d, days %d/%d)",
			st.Watermark, g.Wave, st.Days, g.Waves)
	}
	r.State = st
	r.history = nil
	return true, nil
}

// IngestDay advances the refresher by one day of raw log rows (Time-
// sorted, all within [previous dayEnd, dayEnd)). Both modes finalize
// rows up to the new watermark dayEnd − D and leave byte-identical
// SummaryBytes. A row outside the day is refused before any work, with
// the state left as it was: a late row would be recomputed only by a
// full recompute, so the two paths would silently diverge.
func (r *Refresher) IngestDay(dayRows []temporal.Row, dayEnd temporal.Time) error {
	st := r.State
	if newF := dayEnd - st.P.D; newF <= st.Watermark && st.Days > 0 {
		return fmt.Errorf("bt: refresh ingest does not advance the watermark (%d -> %d)", st.Watermark, newF)
	}
	prevEnd := st.Watermark + st.P.D
	for i, row := range dayRows {
		switch t := temporal.Time(row[0].AsInt()); {
		case t >= dayEnd:
			return fmt.Errorf("bt: refresh ingest row %d has Time %d, not before the day's end %d", i, t, dayEnd)
		case st.Days > 0 && t < prevEnd:
			return fmt.Errorf("bt: refresh ingest row %d has Time %d, before the previous day's end %d", i, t, prevEnd)
		}
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
	r.DurErr = r.Opts.Store.Commit(r.State.Watermark, r.State.Days, payload)
	return nil
}

// rowCompare is the canonical row order: column-wise integer compare,
// Time (column 0) first. Both refresh paths finalize rows in it, so equal
// row sets serialize identically. Labeled and train rows hold only ints,
// so two rows that tie are identical and any sort lands on the same bytes.
func rowCompare(a, b temporal.Row) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if c := cmp.Compare(a[i].AsInt(), b[i].AsInt()); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// sortedRows flattens plan output events with lo <= Time < hi to their
// payload rows, sorted in the canonical order.
func sortedRows(evs []temporal.Event, lo, hi temporal.Time) []temporal.Row {
	var rows []temporal.Row
	for _, e := range evs {
		if t := temporal.Time(e.Payload[0].AsInt()); t >= lo && t < hi {
			rows = append(rows, e.Payload)
		}
	}
	slices.SortFunc(rows, rowCompare)
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

// runFront executes the front stages over the whole raw log on one
// chain of fresh single-node engines, run to the end of input —
// ModeFull's evaluation, which shares no composed plan, partitioning or
// punctuation with the delta path it checks — recording one timing
// observation, and returns the labeled and train output rows with
// 0 <= Time < hi in the canonical order.
func (st *RefreshState) runFront(input []temporal.Row, hi temporal.Time) (labeled, train []temporal.Row, err error) {
	start := time.Now()
	ds := map[string][]temporal.Event{DSEvents: temporal.RowsToPointEvents(input, 0)}
	if err := RunStagesSingleNode(st.P, FrontStages(false), ds); err != nil {
		return nil, nil, err
	}
	labeled, train = sortedRows(ds[DSLabeled], 0, hi), sortedRows(ds[DSTrain], 0, hi)
	st.RecordTiming("Front", int64(len(input)), time.Since(start).Nanoseconds())
	return labeled, train, nil
}

// finalize folds newly-owned front-stage rows, in canonical order, into
// the state: rows append, counts merge.
func (st *RefreshState) finalize(labeled, train []temporal.Row) {
	start := time.Now()
	st.Labeled = append(st.Labeled, labeled...)
	st.Train = append(st.Train, train...)
	st.Counts.AddLabeled(labeled, st.P.TrainPeriod)
	st.Counts.AddTrain(train, st.P.TrainPeriod)
	st.RecordTiming("Counts", int64(len(labeled)+len(train)), time.Since(start).Nanoseconds())
}

// newFront builds a fresh front job: the composed front plan, labeled
// rows as the plan's output and train rows as the named output "train",
// both collected into r.labeled and r.train.
func (r *Refresher) newFront() (*core.StreamingJob, error) {
	machines := r.machines
	if machines <= 0 {
		machines = runtime.GOMAXPROCS(0)
	}
	labeled, train := frontPlan(r.State.P)
	return core.NewStreamingJob(labeled, map[string]*temporal.Schema{SourceEvents: workload.UnifiedSchema()},
		core.WithMachines(machines),
		core.WithOnEvent(func(e temporal.Event) { r.labeled = append(r.labeled, e.Payload) }),
		core.WithOutput("train", train, func(e temporal.Event) { r.train = append(r.train, e.Payload) }))
}

// feedFront feeds the rows of the day ending at dayEnd to the front job
// and runs one wave at dayEnd, returning the labeled and train rows it
// delivered, in the canonical order. Both outputs' watermarks must reach
// f = dayEnd − D and no delivered row may lie at or after it; otherwise
// the interval below f is not complete, and feedFront errors.
func (r *Refresher) feedFront(front *core.StreamingJob, rows []temporal.Row, dayEnd, f temporal.Time) (labeled, train []temporal.Row, err error) {
	// finalize copies the rows out, so the buffers are reused.
	r.labeled, r.train = r.labeled[:0], r.train[:0]
	src, err := front.Source(SourceEvents)
	if err != nil {
		return nil, nil, err
	}
	if err := src.FeedBatch(temporal.RowsToPointEvents(rows, 0)); err != nil {
		return nil, nil, err
	}
	if err := front.Advance(dayEnd); err != nil {
		return nil, nil, err
	}
	for _, out := range []string{"", "train"} {
		if w, err := front.Watermark(out); err != nil {
			return nil, nil, err
		} else if w < f {
			return nil, nil, fmt.Errorf("%s output punctuated to %d, short of the watermark %d", cmp.Or(out, "labeled"), w, f)
		}
	}
	for _, rows := range [][]temporal.Row{r.labeled, r.train} {
		for _, row := range rows {
			if t := temporal.Time(row[0].AsInt()); t >= f {
				return nil, nil, fmt.Errorf("delivered a row at %d, at or after the watermark %d", t, f)
			}
		}
	}
	return r.labeled, r.train, nil
}

// ingestDelta is the incremental path: feed the day to the resident
// front job (priming a fresh one from the lookback tail first when there
// is none), finalize the watermark interval it delivers, merge summaries,
// and retrain only non-frozen windows. Any error drops the front and
// leaves the state as it was, so the next ingest primes again.
func (r *Refresher) ingestDelta(dayRows []temporal.Row, dayEnd temporal.Time) error {
	st := r.State
	fPrev, fNew := st.Watermark, dayEnd-st.P.D
	start := time.Now()
	// r.front is set again on success: an error or a panic drops it.
	front, fed := r.front, len(dayRows)
	r.front = nil
	if front == nil || r.frontOf != st { // a new refresher, or State replaced by Restore
		var err error
		if front, err = r.newFront(); err != nil {
			return err
		}
		r.frontOf = st
		if st.Days > 0 {
			// The primed output lies below fPrev and was finalized before.
			if _, _, err := r.feedFront(front, st.TailRaw, fPrev+st.P.D, fPrev); err != nil {
				return fmt.Errorf("bt: refresh front priming: %w", err)
			}
			fed += len(st.TailRaw)
		}
	}
	labeled, train, err := r.feedFront(front, dayRows, dayEnd, fNew)
	if err != nil {
		return fmt.Errorf("bt: refresh front: %w", err)
	}
	st.RecordTiming("Front", int64(fed), time.Since(start).Nanoseconds())
	st.finalize(labeled, train)

	keep, end := fNew-Lookback(st.P), temporal.Time(math.MaxInt64)
	st.TailRaw = append(rowsInRange(st.TailRaw, keep, end), rowsInRange(dayRows, keep, end)...)
	st.Watermark = fNew
	st.Days++
	st.RawRows += int64(len(dayRows))
	st.rebuildModels(st.Models)
	r.front = front
	return nil
}

// fullRecompute rebuilds the whole state from complete raw history —
// the reference the delta path must match byte-for-byte.
func (r *Refresher) fullRecompute(allRaw []temporal.Row, dayEnd temporal.Time) error {
	old := r.State
	ns := NewRefreshState(old.P, old.Cfg)
	ns.Timings = old.Timings
	fNew := dayEnd - ns.P.D

	labeled, train, err := ns.runFront(allRaw, fNew)
	if err != nil {
		return err
	}
	ns.finalize(labeled, train)
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
// rows. prev's frozen models are reused verbatim: a window is frozen once
// it ends at or before the watermark, so its rows, counts and selected
// features can never change, and its rows are not even reduced again.
// Windows freeze in time order and st.Train is in canonical (Time-first)
// order, so the rows of every later window are a suffix of it; those
// windows retrain from scratch, concurrently.
func (st *RefreshState) rebuildModels(prev []WindowModel) {
	start := time.Now()
	tp := st.P.TrainPeriod
	var models []WindowModel
	open := int64(math.MinInt64) // the first window not frozen in prev
	for _, m := range prev {
		if m.Frozen {
			models = append(models, m)
			open = max(open, m.Win+1)
		}
	}
	from := sort.Search(len(st.Train), func(i int) bool { return Window(temporal.Time(st.Train[i][0].AsInt()), tp) >= open })
	reduced := ReduceRows(st.Train[from:], st.Counts.SelectFeatures(st.P, open), tp)

	groups := make(map[winAd][]temporal.Row)
	for _, row := range reduced {
		k := winAd{Window(temporal.Time(row[0].AsInt()), tp), row[2].AsInt()}
		groups[k] = append(groups[k], row)
	}
	keys := make([]winAd, 0, len(groups))
	var trained int64
	for k, rows := range groups {
		keys = append(keys, k)
		trained += int64(len(rows))
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].win != keys[j].win {
			return keys[i].win < keys[j].win
		}
		return keys[i].ad < keys[j].ad
	})

	frozen := len(models)
	models = append(models, make([]WindowModel, len(keys))...)
	// ml.TrainLR seeds its own generator, so a model is the same bytes
	// whichever goroutine trains it.
	_ = par.ForEach(runtime.GOMAXPROCS(0), len(keys), func(i int) error {
		k := keys[i]
		models[frozen+i] = WindowModel{
			Win:    k.win,
			Ad:     k.ad,
			Frozen: temporal.Time(k.win+1)*tp <= st.Watermark,
			Model:  ml.TrainLR(RowsToExamples(groups[k]), st.P.ModelEpochs),
		}
		return nil
	})
	st.Models = models
	st.RecordTiming("Model", trained, time.Since(start).Nanoseconds())
}
