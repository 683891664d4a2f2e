package bt

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"timr/internal/dur"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// refreshWorkload is the 7-day sliding-window drill setup: small enough
// to run both refresh paths daily, with amplified CTR structure so
// feature selection and models have real signal, and a short τ so the
// delta window is a small fraction of a day.
func refreshWorkload() (Params, workload.Config) {
	cfg := workload.Config{
		Users: 220, Keywords: 180, AdClasses: 5, Days: 7, Seed: 5,
		SearchesPerUserDay: 12, ImpressionsPerUserDay: 8,
		BaseCTR: 0.18, PosLift: 3, NegDamp: 0.5,
		PosKeywordsPerAd: 6, NegKeywordsPerAd: 6,
		InterestKeywordsPerUser: 5,
		BotFraction:             0.01, BotRateMultiplier: 30,
		Tau: 2 * temporal.Hour,
	}
	p := Params{
		T1: 60, T2: 60,
		BotHop:      30 * temporal.Minute,
		Tau:         2 * temporal.Hour,
		D:           5 * temporal.Minute,
		TrainPeriod: temporal.Day,
		ZThreshold:  0,
		ModelEpochs: 6,
	}
	return p, cfg
}

func summaryBytes(t *testing.T, r *Refresher) []byte {
	t.Helper()
	b, err := r.State.SummaryBytes()
	if err != nil {
		t.Fatalf("SummaryBytes: %v", err)
	}
	return b
}

func ingestAllDays(t *testing.T, r *Refresher, d *workload.Dataset, onDay func(day int)) {
	t.Helper()
	for day := 0; day < d.Cfg.Days; day++ {
		end := temporal.Time(day+1) * temporal.Day
		if err := r.IngestDay(d.DayRows(day), end); err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		if onDay != nil {
			onDay(day)
		}
	}
}

// The tentpole invariant: every day's delta refresh lands in state
// byte-identical to a from-scratch full recompute over complete raw
// history — counts, z-selected features, train rows, tail, and every
// window model.
func TestRefreshDeltaMatchesFull(t *testing.T) {
	p, cfg := refreshWorkload()
	d := workload.Generate(cfg)

	deltaR := NewRefresher(p, cfg, RefreshOptions{Mode: ModeDelta})
	fullR := NewRefresher(p, cfg, RefreshOptions{Mode: ModeFull, RetainHistory: true})

	for day := 0; day < cfg.Days; day++ {
		end := temporal.Time(day+1) * temporal.Day
		rows := d.DayRows(day)
		if err := deltaR.IngestDay(rows, end); err != nil {
			t.Fatalf("delta day %d: %v", day, err)
		}
		if err := fullR.IngestDay(rows, end); err != nil {
			t.Fatalf("full day %d: %v", day, err)
		}
		db, fb := summaryBytes(t, deltaR), summaryBytes(t, fullR)
		if !bytes.Equal(db, fb) {
			t.Fatalf("day %d: delta state diverged from full recompute (%d vs %d bytes)", day, len(db), len(fb))
		}
	}
	st := deltaR.State
	if st.Days != cfg.Days || len(st.Train) == 0 || len(st.Models) == 0 {
		t.Fatalf("implausible final state: days=%d train=%d models=%d", st.Days, len(st.Train), len(st.Models))
	}
	frozen := 0
	for _, m := range st.Models {
		if m.Frozen {
			frozen++
		}
	}
	if frozen == 0 {
		t.Fatal("a 7-day run with daily training windows must freeze some windows")
	}
}

// Pins the summary path to the engine: with the watermark pushed past
// the horizon, the refresher's finalized train rows equal the engine
// pipeline's train dataset, and its z-selected feature set equals the
// engine's score stream (window w scores are valid during period w+1),
// z values bit-identical.
func TestRefreshSummaryMatchesEnginePipeline(t *testing.T) {
	p, cfg := refreshWorkload()
	d := workload.Generate(cfg)

	r := NewRefresher(p, cfg, RefreshOptions{Mode: ModeDelta})
	// One ingest covering the whole log, with dayEnd beyond the horizon
	// so F = Horizon and every row finalizes.
	if err := r.IngestDay(d.Rows, d.Horizon+p.D); err != nil {
		t.Fatal(err)
	}

	phases, err := RunSingleNode(p, d.Events())
	if err != nil {
		t.Fatal(err)
	}
	engineTrain := make([]temporal.Row, 0, len(phases[DSTrain]))
	for _, e := range phases[DSTrain] {
		engineTrain = append(engineTrain, e.Payload)
	}
	sortRows(engineTrain)
	if len(engineTrain) != len(r.State.Train) {
		t.Fatalf("train rows: summary %d vs engine %d", len(r.State.Train), len(engineTrain))
	}
	for i := range engineTrain {
		if rowLess(engineTrain[i], r.State.Train[i]) || rowLess(r.State.Train[i], engineTrain[i]) {
			t.Fatalf("train row %d differs: %v vs %v", i, r.State.Train[i], engineTrain[i])
		}
	}

	selected := r.State.Counts.SelectFeatures(p)
	engineSel := make(map[KwKey]float64)
	for _, e := range phases[DSScores] {
		win := int64(e.LE)/int64(p.TrainPeriod) - 1
		k := KwKey{Win: win, Ad: e.Payload[0].AsInt(), Kw: e.Payload[1].AsInt()}
		engineSel[k] = e.Payload[2].AsFloat()
	}
	if len(engineSel) == 0 {
		t.Fatal("engine selected no features; workload too weak to pin against")
	}
	if len(selected) != len(engineSel) {
		t.Fatalf("selected features: summary %d vs engine %d", len(selected), len(engineSel))
	}
	for k, z := range engineSel {
		sz, ok := selected[k]
		if !ok {
			t.Fatalf("engine selected %+v (z=%v) but summary did not", k, z)
		}
		if sz != z {
			t.Fatalf("z mismatch for %+v: summary %v vs engine %v", k, sz, z)
		}
	}
}

// The full path is only a reference, and it needs the whole raw log:
// without RetainHistory it refuses to run.
func TestRefreshFullRequiresHistory(t *testing.T) {
	p, cfg := refreshWorkload()
	cfg.Users = 120
	cfg.Days = 1
	d := workload.Generate(cfg)
	if err := NewRefresher(p, cfg, RefreshOptions{Mode: ModeFull}).IngestDay(d.DayRows(0), temporal.Day); err == nil {
		t.Fatal("ModeFull without RetainHistory must error")
	}
}

// A restored refresher holds only the lookback tail of the raw log, so a
// full recompute from it would silently drop every day ingested before
// the restart. It must refuse instead, naming both row counts, and leave
// the state as restored.
func TestRefreshFullRefusesPartialHistory(t *testing.T) {
	p, cfg := refreshWorkload()
	cfg.Users = 120
	cfg.Days = 3
	d := workload.Generate(cfg)
	dir := t.TempDir()

	open := func() *dur.Store {
		st, err := dur.OpenStore(dir, dur.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	full := RefreshOptions{Mode: ModeFull, RetainHistory: true}
	full.Store = open()
	r1 := NewRefresher(p, cfg, full)
	for day := 0; day < 2; day++ {
		if err := r1.IngestDay(d.DayRows(day), temporal.Time(day+1)*temporal.Day); err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
	}
	ingested := r1.State.RawRows

	full.Store = open()
	r2 := NewRefresher(p, cfg, full)
	if resumed, err := r2.Restore(); err != nil || !resumed {
		t.Fatalf("restore: resumed=%v err=%v", resumed, err)
	}
	before := summaryBytes(t, r2)
	err := r2.IngestDay(d.DayRows(2), 3*temporal.Day)
	if err == nil {
		t.Fatalf("full recompute after a restore ran on partial history (raw rows %d, want %d + day 2)", r2.State.RawRows, ingested)
	}
	if msg := err.Error(); !strings.Contains(msg, "0 rows retained") || !strings.Contains(msg, fmt.Sprintf("%d ingested", ingested)) {
		t.Fatalf("error does not name both row counts: %v", err)
	}
	if !bytes.Equal(summaryBytes(t, r2), before) {
		t.Fatal("refused full recompute changed the restored state")
	}
}

// Refresh state survives kill -9 between ingests: reopen the store,
// restore the newest intact generation, keep going — final state
// byte-identical to the uninterrupted run, under 30% injected I/O
// faults, including a fallback past a deliberately corrupted newest
// generation.
func TestRefreshDurableResume(t *testing.T) {
	p, cfg := refreshWorkload()
	cfg.Users = 150
	cfg.Days = 5
	d := workload.Generate(cfg)

	ref := NewRefresher(p, cfg, RefreshOptions{Mode: ModeDelta})
	ingestAllDays(t, ref, d, nil)
	want := summaryBytes(t, ref)

	for _, killAfter := range []int{1, 3} {
		dir := t.TempDir()
		open := func(seed int64) *dur.Store {
			fs := dur.NewFaultFS(dur.OS{}, dur.FaultConfig{Rate: 0.3, Seed: seed})
			st, err := dur.OpenStore(dir, dur.Options{FS: fs, Retries: 16})
			if err != nil {
				t.Fatalf("open store: %v", err)
			}
			return st
		}

		r1 := NewRefresher(p, cfg, RefreshOptions{Mode: ModeDelta, Store: open(int64(killAfter))})
		for day := 0; day < killAfter; day++ {
			if err := r1.IngestDay(d.DayRows(day), temporal.Time(day+1)*temporal.Day); err != nil {
				t.Fatalf("pre-kill day %d: %v", day, err)
			}
			if r1.DurErr != nil {
				t.Fatalf("commit day %d: %v", day, r1.DurErr)
			}
		}
		// kill -9: r1 is abandoned mid-flight; a new process reopens.
		r2 := NewRefresher(p, cfg, RefreshOptions{Mode: ModeDelta, Store: open(int64(killAfter) + 100)})
		resumed, err := r2.Restore()
		if err != nil || !resumed {
			t.Fatalf("restore after kill at day %d: resumed=%v err=%v", killAfter, resumed, err)
		}
		if r2.State.Days != killAfter {
			t.Fatalf("restored %d ingested days, want %d", r2.State.Days, killAfter)
		}
		for day := r2.State.Days; day < cfg.Days; day++ {
			if err := r2.IngestDay(d.DayRows(day), temporal.Time(day+1)*temporal.Day); err != nil {
				t.Fatalf("post-resume day %d: %v", day, err)
			}
		}
		if got := summaryBytes(t, r2); !bytes.Equal(got, want) {
			t.Fatalf("kill at day %d: resumed final state diverged from uninterrupted run", killAfter)
		}
	}
}

func TestRefreshQuarantineFallback(t *testing.T) {
	p, cfg := refreshWorkload()
	cfg.Users = 120
	cfg.Days = 3
	d := workload.Generate(cfg)
	dir := t.TempDir()

	st, err := dur.OpenStore(dir, dur.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRefresher(p, cfg, RefreshOptions{Mode: ModeDelta, Store: st})
	ingestAllDays(t, r1, d, nil)

	// Corrupt the newest generation's checkpoint payload.
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ckpts []string
	for _, n := range names {
		if strings.HasSuffix(n.Name(), ".ckpt") {
			ckpts = append(ckpts, n.Name())
		}
	}
	sort.Strings(ckpts)
	victim := filepath.Join(dir, ckpts[len(ckpts)-1])
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := dur.OpenStore(dir, dur.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRefresher(p, cfg, RefreshOptions{Mode: ModeDelta, Store: st2})
	resumed, err := r2.Restore()
	if err != nil || !resumed {
		t.Fatalf("restore past corruption: resumed=%v err=%v", resumed, err)
	}
	if r2.State.Days != cfg.Days-1 {
		t.Fatalf("fallback restored %d days, want %d (the predecessor generation)", r2.State.Days, cfg.Days-1)
	}
	// Re-ingest the lost day; the refresher must converge to the same
	// final state as the uninterrupted run.
	if err := r2.IngestDay(d.DayRows(cfg.Days-1), temporal.Time(cfg.Days)*temporal.Day); err != nil {
		t.Fatal(err)
	}
	if got, want := summaryBytes(t, r2), summaryBytes(t, r1); !bytes.Equal(got, want) {
		t.Fatal("state after quarantine fallback + re-ingest diverged")
	}
}

func TestRefreshStateRoundtrip(t *testing.T) {
	p, cfg := refreshWorkload()
	cfg.Users = 120
	cfg.Days = 2
	d := workload.Generate(cfg)
	r := NewRefresher(p, cfg, RefreshOptions{Mode: ModeDelta})
	ingestAllDays(t, r, d, nil)

	enc := summaryBytes(t, r)
	st2, err := DecodeState(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := st2.SummaryBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("state round-trip changed SummaryBytes")
	}
	if st2.P != r.State.P || st2.Cfg != r.State.Cfg || st2.Days != r.State.Days {
		t.Fatal("state round-trip changed header fields")
	}
}

// version1Header is the header frame of a version-1 state, the format
// that carried model areas and a timing section.
func version1Header() []byte {
	var w temporal.Encoder
	w.Byte(tagRefreshHeader)
	w.Uvarint(1)
	return temporal.AppendFrame(nil, w.Bytes())
}

// A version-1 state is refused by its header, with both versions named,
// before any section is parsed.
func TestDecodeStateRefusesVersion1(t *testing.T) {
	_, err := DecodeState(version1Header())
	if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), fmt.Sprintf("version %d", refreshVersion)) {
		t.Fatalf("version-1 state: got %v, want an error naming versions 1 and %d", err, refreshVersion)
	}
}

// FuzzSummaryRoundtrip: DecodeState must never panic on arbitrary
// bytes, and any state it accepts must re-encode and re-decode to the
// same canonical bytes.
func FuzzSummaryRoundtrip(f *testing.F) {
	p, cfg := refreshWorkload()
	cfg.Users = 12
	cfg.Days = 1
	d := workload.Generate(cfg)
	r := NewRefresher(p, cfg, RefreshOptions{Mode: ModeDelta})
	if err := r.IngestDay(d.DayRows(0), temporal.Day); err != nil {
		f.Fatal(err)
	}
	if seed, err := r.State.SummaryBytes(); err == nil {
		f.Add(seed)
	}
	empty, err := NewRefreshState(p, cfg).SummaryBytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add([]byte{})
	f.Add([]byte{0x52, 0x01})
	f.Add(version1Header())

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeState(data)
		if err != nil {
			return
		}
		enc, err := st.SummaryBytes()
		if err != nil {
			t.Fatalf("re-encode of accepted state failed: %v", err)
		}
		st2, err := DecodeState(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		enc2, err := st2.SummaryBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("canonical encoding not a fixed point")
		}
	})
}
