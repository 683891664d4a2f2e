package bt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"timr/internal/core"
	"timr/internal/dur"
	"timr/internal/leakcheck"
	"timr/internal/obs"
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
	defer leakcheck.Goroutines(t)()
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
	defer leakcheck.Goroutines(t)()
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
	engineTrain := sortedRows(phases[DSTrain], math.MinInt64, math.MaxInt64)
	if len(engineTrain) != len(r.State.Train) {
		t.Fatalf("train rows: summary %d vs engine %d", len(r.State.Train), len(engineTrain))
	}
	for i := range engineTrain {
		if rowCompare(engineTrain[i], r.State.Train[i]) != 0 {
			t.Fatalf("train row %d differs: %v vs %v", i, r.State.Train[i], engineTrain[i])
		}
	}

	selected := r.State.Counts.SelectFeatures(p, math.MinInt64)
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
	defer leakcheck.Goroutines(t)()
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
	defer leakcheck.Goroutines(t)()
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
// generation. The resumed refresher splits its front into another
// number of partitions than the killed one, so the engines it primes
// from the persisted lookback tail share no layout with the lost ones.
func TestRefreshDurableResume(t *testing.T) {
	defer leakcheck.Goroutines(t)()
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
		r1.machines = 1
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
		r2.machines = 3
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
	defer leakcheck.Goroutines(t)()
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

// TestRefreshAndStreamingGenerationsRefuseEachOther: a store holds one
// kind of generation, and each reader treats the other kind as corrupt.
// A streaming restore over a refresher's generation quarantines it and
// starts a clean job; a refresher restore over a streaming job's
// generation finds nothing to resume.
func TestRefreshAndStreamingGenerationsRefuseEachOther(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	sch := temporal.NewSchema(temporal.Field{Name: "Time", Kind: temporal.KindInt})
	plan := temporal.Scan("clicks", sch).WithWindow(10).Count("C")
	schemas := map[string]*temporal.Schema{"clicks": sch}
	p, cfg := refreshWorkload()

	t.Run("refresher generation", func(t *testing.T) {
		dir := t.TempDir()
		st, err := dur.OpenStore(dir, dur.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := NewRefresher(p, cfg, RefreshOptions{Store: st}).persist(); err != nil {
			t.Fatal(err)
		}
		scope := obs.New("dur")
		st2, err := dur.OpenStore(dir, dur.Options{Obs: scope})
		if err != nil {
			t.Fatal(err)
		}
		sj, err := core.NewStreamingJob(plan, schemas, core.WithDurable(st2))
		if err != nil {
			t.Fatal(err)
		}
		if g := sj.Recovered(); g != nil {
			t.Fatalf("streaming restore over a refresher generation: gen %v; want a clean start", g)
		}
		if n := scope.Counter("corrupt_detected").Value(); n != 1 {
			t.Fatalf("corrupt_detected = %d, want 1", n)
		}
		sj.Flush()
		res, err := sj.Results()
		if err != nil || len(res) != 0 {
			t.Fatalf("restored job is not clean: %d results, err %v", len(res), err)
		}
	})

	t.Run("streaming generation", func(t *testing.T) {
		st, err := dur.OpenStore(t.TempDir(), dur.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sj, err := core.NewStreamingJob(plan, schemas, core.WithDurable(st))
		if err != nil {
			t.Fatal(err)
		}
		src, err := sj.Source("clicks")
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Feed(temporal.PointEvent(5, temporal.Row{temporal.Int(5)})); err != nil {
			t.Fatal(err)
		}
		if err := sj.Advance(20); err != nil || sj.DurableErr() != nil {
			t.Fatalf("Advance: %v, commit: %v", err, sj.DurableErr())
		}
		resumed, err := NewRefresher(p, cfg, RefreshOptions{Store: st}).Restore()
		if err != nil || resumed {
			t.Fatalf("refresher restore over a streaming generation: resumed=%v err=%v; want false, nil", resumed, err)
		}
	})
}

func TestRefreshStateRoundtrip(t *testing.T) {
	defer leakcheck.Goroutines(t)()
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
	defer leakcheck.Goroutines(t)()
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

// TestRefreshStateDigest pins the refresher's state after every day of
// the drill to SHA-256 digests of SummaryBytes measured at commit
// eb2829a, before the front stages ran per-user partitions in parallel.
// Every other refresh check compares the refresher with itself (delta
// with full, resumed with uninterrupted) and cannot see an error both
// sides share.
func TestRefreshStateDigest(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	want := []string{
		"d339c2b81d173b1b20645874ed08096d76e8071059e71b08d20bb122233d28d0",
		"8b796ced21f8611bf3fc0fec975ed424ab3d12ffca9e3a29f624e2b0b7c5767d",
		"3773abd8bb80e82be5a9da545c796d80b33eb9873770bb7b5e792e25c4362877",
		"7f7d2f5af2b92eac35ad9a7a3d11738b97795d6ba892925e4bd7382366092f99",
		"e54468538136782a0ea4bcdad8418933cecf07f6d4e695a17e7b63b0f0e7109a",
		"b85275853878b549524e1a0edcc7c8e48456dc9ae61007c3e9aba6bcb37a3c88",
		"824d682a48fa850d5e76fdb4dc87514c2cb2e411f32eb11b81fe2eddf94eb1fb",
	}
	p, cfg := refreshWorkload()
	d := workload.Generate(cfg)
	r := NewRefresher(p, cfg, RefreshOptions{Mode: ModeDelta})
	ingestAllDays(t, r, d, func(day int) {
		sum := sha256.Sum256(summaryBytes(t, r))
		if got := hex.EncodeToString(sum[:]); got != want[day] {
			t.Errorf("day %d: state sha256 %s, want %s", day, got, want[day])
		}
	})
}

// A row outside [previous dayEnd, dayEnd) is refused, naming the row's
// index and Time, and leaves the state as it was. Accepted, a late row
// is seen by a full recompute but not by the delta path, which has
// already finalized its interval: the two would diverge with no error.
// A refusal must not touch the resident front either: the next ingest
// lands on the bytes of a refresher that was never refused.
func TestRefreshRejectsRowsOutsideDay(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	p, cfg := refreshWorkload()
	cfg.Users, cfg.Days, cfg.Seed = 200, 3, 3
	d := workload.Generate(cfg)
	r := NewRefresher(p, cfg, RefreshOptions{Mode: ModeDelta})
	clean := NewRefresher(p, cfg, RefreshOptions{Mode: ModeDelta})
	ingestAllDays(t, clean, d, nil)
	for day := 0; day < 2; day++ {
		if err := r.IngestDay(d.DayRows(day), temporal.Time(day+1)*temporal.Day); err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
	}
	before := summaryBytes(t, r)

	day0 := d.DayRows(0)
	late := day0[len(day0)/2:]
	withLate := append(append([]temporal.Row(nil), late...), d.DayRows(2)...)
	day2 := d.DayRows(2)
	atEnd := append(temporal.Row(nil), day2[len(day2)-1]...)
	atEnd[0] = temporal.Int(int64(3 * temporal.Day))
	past := append(append([]temporal.Row(nil), day2...), atEnd)
	for _, c := range []struct {
		name string
		rows []temporal.Row
		end  temporal.Time
		row  int
		time int64
	}{
		{"day 0's rows before day 2", withLate, 3 * temporal.Day, 0, late[0][0].AsInt()},
		{"a row at the day's end", past, 3 * temporal.Day, len(day2), int64(3 * temporal.Day)},
	} {
		err := r.IngestDay(c.rows, c.end)
		if err == nil {
			t.Fatalf("%s: ingest accepted a row outside its day", c.name)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("row %d has Time %d", c.row, c.time)) {
			t.Fatalf("%s: error does not name the row and its Time: %v", c.name, err)
		}
		if !bytes.Equal(summaryBytes(t, r), before) {
			t.Fatalf("%s: refused ingest changed the state", c.name)
		}
	}
	if err := r.IngestDay(day2, 3*temporal.Day); err != nil {
		t.Fatalf("day 2 after the refusals: %v", err)
	}
	if !bytes.Equal(summaryBytes(t, r), summaryBytes(t, clean)) {
		t.Fatal("day 2 after the refusals differs from a refresher that was never refused")
	}
}

// The front stages run as per-user partitions, and the state must not
// depend on how many: every day of the drill lands on the same bytes
// with 1, 2, 3 and 8 partitions, and no partition's goroutine outlives
// its ingest.
func TestRefreshPartitionCountInvariant(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	p, cfg := refreshWorkload()
	d := workload.Generate(cfg)
	counts := []int{1, 2, 3, 8}
	rs := make([]*Refresher, len(counts))
	for i, n := range counts {
		rs[i] = NewRefresher(p, cfg, RefreshOptions{Mode: ModeDelta})
		rs[i].machines = n
	}
	for day := 0; day < cfg.Days; day++ {
		end := temporal.Time(day+1) * temporal.Day
		var want []byte
		for i, r := range rs {
			if err := r.IngestDay(d.DayRows(day), end); err != nil {
				t.Fatalf("%d partitions, day %d: %v", counts[i], day, err)
			}
			got := summaryBytes(t, r)
			if i == 0 {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("day %d: state with %d partitions differs from 1 partition's (%d vs %d bytes)", day, counts[i], len(got), len(want))
			}
		}
	}
}
