package core_test

// Durable restart drill: a streaming job committing wave generations to
// a durable store is killed (kill -9 style: no flush, no shutdown hook,
// the process state simply dropped) at an arbitrary point, restarted via
// RestoreFromDir, re-fed everything its sources admitted after the
// recovered wave, and must produce bit-identical results — including
// under injected I/O faults, with generation fallback, and composed with
// crash chaos. A restart with a different machine count is refused.

import (
	"fmt"
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
)

func durablePlan() (func(annotate bool) *temporal.Plan, *temporal.Schema) {
	sch := temporal.NewSchema(
		temporal.Field{Name: "Time", Kind: temporal.KindInt},
		temporal.Field{Name: "UserId", Kind: temporal.KindInt},
		temporal.Field{Name: "AdId", Kind: temporal.KindInt},
	)
	mk := func(annotate bool) *temporal.Plan {
		src := temporal.Scan("clicks", sch)
		s := src
		if annotate {
			s = src.Exchange(temporal.PartitionBy{Cols: []string{"UserId"}})
		}
		perUser := s.GroupApply([]string{"UserId"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(30).Count("C")
		}).ToPoint()
		if annotate {
			perUser = perUser.Exchange(temporal.PartitionBy{Cols: []string{"C"}})
		}
		return perUser.GroupApply([]string{"C"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(50).Count("N")
		})
	}
	return mk, sch
}

func durableEvents(n int) []temporal.Event {
	var events []temporal.Event
	tm := temporal.Time(0)
	for i := 0; i < n; i++ {
		tm += temporal.Time(i % 3)
		events = append(events, temporal.PointEvent(tm, temporal.Row{
			temporal.Int(int64(tm)), temporal.Int(int64(i % 17)), temporal.Int(int64(i % 5)),
		}))
	}
	return events
}

// runKilled drives a durable streaming job and "kills" it after
// killAfter feeds: the function simply returns, dropping all in-memory
// state — exactly what the disk sees after a kill -9.
func runKilled(t *testing.T, plan *temporal.Plan, schemas map[string]*temporal.Schema,
	source string, events []temporal.Event, machines int, cfg core.Config,
	period temporal.Time, store *dur.Store, killAfter int) {
	t.Helper()
	sj, err := core.NewStreamingJob(plan, schemas,
		core.WithMachines(machines), core.WithConfig(cfg), core.WithDurable(store))
	if err != nil {
		t.Fatal(err)
	}
	src, err := sj.Source(source)
	if err != nil {
		t.Fatal(err)
	}
	last := temporal.Time(temporal.MinTime)
	for i, e := range events {
		if i >= killAfter {
			return
		}
		if last == temporal.MinTime {
			last = e.LE
		} else if e.LE-last >= period {
			if err := sj.Advance(e.LE); err != nil {
				t.Fatal(err)
			}
			last = e.LE
		}
		if err := src.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
}

// resumeAndFinish restarts from the store and completes the run: the
// deterministic wave schedule is replayed, feeding is skipped up to and
// including the recovered wave (that state is inside the generation),
// and everything admitted after it is re-fed.
func resumeAndFinish(t *testing.T, plan *temporal.Plan, schemas map[string]*temporal.Schema,
	source string, events []temporal.Event, machines int, cfg core.Config,
	period temporal.Time, store *dur.Store) []temporal.Event {
	t.Helper()
	sj, rec, err := core.RestoreFromDir(plan, schemas, store,
		core.WithMachines(machines), core.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	src, err := sj.Source(source)
	if err != nil {
		t.Fatal(err)
	}
	skipping := rec != nil
	var recWave temporal.Time
	if rec != nil {
		recWave = rec.Wave
	}
	last := temporal.Time(temporal.MinTime)
	for _, e := range events {
		fire, ft := false, temporal.Time(0)
		if last == temporal.MinTime {
			last = e.LE
		} else if e.LE-last >= period {
			fire, ft = true, e.LE
			last = e.LE
		}
		if skipping {
			if fire && ft >= recWave {
				// Reached the recovered wave: its Advance is already applied
				// inside the generation, so do not re-fire it; resume feeding
				// with its triggering event.
				skipping = false
			} else {
				continue
			}
		} else if fire {
			if err := sj.Advance(ft); err != nil {
				t.Fatal(err)
			}
		}
		if err := src.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	sj.Flush()
	res, err := sj.Results()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDurableRestartBitIdentity(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	mk, sch := durablePlan()
	events := durableEvents(900)
	schemas := map[string]*temporal.Schema{"clicks": sch}
	period := temporal.Time(20)

	clean := driveStream(t, mk(true), schemas, "clicks", events, 3, core.DefaultConfig(), period)

	// Kill points: mid-first-interval (before any commit), mid-run, just
	// after a wave boundary, and one event before the end.
	for _, killAfter := range []int{5, 333, 601, 899} {
		killAfter := killAfter
		t.Run(fmt.Sprintf("kill%d", killAfter), func(t *testing.T) {
			dir := t.TempDir()
			store, err := dur.OpenStore(dir, dur.Options{})
			if err != nil {
				t.Fatal(err)
			}
			runKilled(t, mk(true), schemas, "clicks", events, 3, core.DefaultConfig(), period, store, killAfter)

			// A new process opens the same directory fresh.
			store2, err := dur.OpenStore(dir, dur.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := resumeAndFinish(t, mk(true), schemas, "clicks", events, 3, core.DefaultConfig(), period, store2)
			if !temporal.EventsEqual(got, clean) {
				t.Fatalf("restart after %d feeds diverges: %d vs %d events", killAfter, len(got), len(clean))
			}
		})
	}
}

// runKilledPublishingOffsets is runKilled with the driver additionally
// publishing its schedule position (the index of the wave-triggering
// event, not yet fed) before every Advance — the contract `timr serve`
// uses so recovery can seek instead of re-walking the schedule.
func runKilledPublishingOffsets(t *testing.T, plan *temporal.Plan, schemas map[string]*temporal.Schema,
	source string, events []temporal.Event, machines int, cfg core.Config,
	period temporal.Time, store *dur.Store, killAfter int) {
	t.Helper()
	sj, err := core.NewStreamingJob(plan, schemas,
		core.WithMachines(machines), core.WithConfig(cfg), core.WithDurable(store))
	if err != nil {
		t.Fatal(err)
	}
	src, err := sj.Source(source)
	if err != nil {
		t.Fatal(err)
	}
	last := temporal.Time(temporal.MinTime)
	for i, e := range events {
		if i >= killAfter {
			return
		}
		if last == temporal.MinTime {
			last = e.LE
		} else if e.LE-last >= period {
			src.SetPosition(int64(i))
			if err := sj.Advance(e.LE); err != nil {
				t.Fatal(err)
			}
			last = e.LE
		}
		if err := src.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDurableOffsetSeekResume(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	// The seek-based resume: instead of re-walking the whole schedule
	// tracking wave-fire points (resumeAndFinish), the restarted driver
	// reads the recovered input offset and starts the loop there. Output
	// must stay bit-identical to the uninterrupted run.
	mk, sch := durablePlan()
	events := durableEvents(900)
	schemas := map[string]*temporal.Schema{"clicks": sch}
	period := temporal.Time(20)

	clean := driveStream(t, mk(true), schemas, "clicks", events, 3, core.DefaultConfig(), period)

	for _, killAfter := range []int{5, 333, 601, 899} {
		killAfter := killAfter
		t.Run(fmt.Sprintf("kill%d", killAfter), func(t *testing.T) {
			dir := t.TempDir()
			store, err := dur.OpenStore(dir, dur.Options{})
			if err != nil {
				t.Fatal(err)
			}
			runKilledPublishingOffsets(t, mk(true), schemas, "clicks", events, 3, core.DefaultConfig(), period, store, killAfter)

			store2, err := dur.OpenStore(dir, dur.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sj, rec, err := core.RestoreFromDir(mk(true), schemas, store2,
				core.WithMachines(3), core.WithConfig(core.DefaultConfig()))
			if err != nil {
				t.Fatal(err)
			}
			src, err := sj.Source("clicks")
			if err != nil {
				t.Fatal(err)
			}
			start, last := 0, temporal.Time(temporal.MinTime)
			if rec != nil {
				// The committed offset is the index of the event that
				// triggered the recovered wave; its Advance is inside the
				// generation, so feeding restarts exactly there.
				pos, ok := src.Position()
				if !ok {
					t.Fatal("recovered generation carries no input offset")
				}
				start, last = int(pos), rec.Wave
			}
			for _, e := range events[start:] {
				if last == temporal.MinTime {
					last = e.LE
				} else if e.LE-last >= period {
					src.SetPosition(int64(start))
					if err := sj.Advance(e.LE); err != nil {
						t.Fatal(err)
					}
					last = e.LE
				}
				if err := src.Feed(e); err != nil {
					t.Fatal(err)
				}
				start++
			}
			sj.Flush()
			got, err := sj.Results()
			if err != nil {
				t.Fatal(err)
			}
			if !temporal.EventsEqual(got, clean) {
				t.Fatalf("seek resume after %d feeds diverges: %d vs %d events", killAfter, len(got), len(clean))
			}
		})
	}
}

func TestDurableRestartUnderInjectedFaults(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	mk, sch := durablePlan()
	events := durableEvents(900)
	schemas := map[string]*temporal.Schema{"clicks": sch}
	period := temporal.Time(20)

	clean := driveStream(t, mk(true), schemas, "clicks", events, 3, core.DefaultConfig(), period)

	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			scope := obs.New("dur")
			ffs := dur.NewFaultFS(dur.OS{}, dur.FaultConfig{Rate: 0.3, Seed: seed})
			store, err := dur.OpenStore(dir, dur.Options{FS: ffs, Obs: scope, Retries: 16})
			if err != nil {
				t.Fatal(err)
			}
			runKilled(t, mk(true), schemas, "clicks", events, 3, core.DefaultConfig(), period, store, 700)

			// The restarted process sees the same fault-ridden disk, under a
			// different fault sequence.
			ffs2 := dur.NewFaultFS(dur.OS{}, dur.FaultConfig{Rate: 0.3, Seed: seed + 100})
			store2, err := dur.OpenStore(dir, dur.Options{FS: ffs2, Obs: scope, Retries: 16})
			if err != nil {
				t.Fatal(err)
			}
			got := resumeAndFinish(t, mk(true), schemas, "clicks", events, 3, core.DefaultConfig(), period, store2)
			if !temporal.EventsEqual(got, clean) {
				t.Fatalf("seed %d: faulty restart diverges: %d vs %d events", seed, len(got), len(clean))
			}
			if ffs.Injected()+ffs2.Injected() == 0 {
				t.Fatalf("seed %d: no faults injected; the test is vacuous", seed)
			}
			if scope.Counter("retries").Value() == 0 {
				t.Fatalf("seed %d: retry supervisor never engaged", seed)
			}
		})
	}
}

func TestDurableGenerationFallback(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	mk, sch := durablePlan()
	events := durableEvents(900)
	schemas := map[string]*temporal.Schema{"clicks": sch}
	period := temporal.Time(20)

	clean := driveStream(t, mk(true), schemas, "clicks", events, 3, core.DefaultConfig(), period)

	dir := t.TempDir()
	store, err := dur.OpenStore(dir, dur.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runKilled(t, mk(true), schemas, "clicks", events, 3, core.DefaultConfig(), period, store, 700)

	// Rot the newest generation's checkpoint file: recovery must fall
	// back to the previous generation and extend the replay, still
	// reaching bit-identical results.
	ckpts, err := filepath.Glob(filepath.Join(dir, "gen-*.ckpt"))
	if err != nil || len(ckpts) < 2 {
		t.Fatalf("want ≥ 2 generations on disk, have %v (%v)", ckpts, err)
	}
	sort.Strings(ckpts)
	newest := ckpts[len(ckpts)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x08
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	scope := obs.New("dur")
	store2, err := dur.OpenStore(dir, dur.Options{Obs: scope})
	if err != nil {
		t.Fatal(err)
	}
	got := resumeAndFinish(t, mk(true), schemas, "clicks", events, 3, core.DefaultConfig(), period, store2)
	if !temporal.EventsEqual(got, clean) {
		t.Fatalf("fallback restart diverges: %d vs %d events", len(got), len(clean))
	}
	if n := scope.Counter("corrupt_detected").Value(); n != 1 {
		t.Fatalf("corrupt_detected = %d, want 1", n)
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, "corrupt-*"))
	if len(quarantined) == 0 {
		t.Fatal("corrupt generation not quarantined")
	}
}

func TestDurableRestartComposesWithChaos(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	mk, sch := durablePlan()
	events := durableEvents(900)
	schemas := map[string]*temporal.Schema{"clicks": sch}
	period := temporal.Time(20)

	clean := driveStream(t, mk(true), schemas, "clicks", events, 3, core.DefaultConfig(), period)

	ccfg := core.DefaultConfig()
	ccfg.Crash = core.CrashConfig{Rate: 0.3, Seed: 2}
	dir := t.TempDir()
	store, err := dur.OpenStore(dir, dur.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runKilled(t, mk(true), schemas, "clicks", events, 3, ccfg, period, store, 500)
	store2, err := dur.OpenStore(dir, dur.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := resumeAndFinish(t, mk(true), schemas, "clicks", events, 3, ccfg, period, store2)
	if !temporal.EventsEqual(got, clean) {
		t.Fatalf("chaos + durable restart diverges: %d vs %d events", len(got), len(clean))
	}
}

// TestDurableRestoreRefusesOtherMachineCount: hash partition ids are
// assigned modulo the machine count, so a generation restored into a job
// of another count would put each recorded partition's state where other
// keys route. RestoreFromDir refuses it, naming both counts, and leaves
// the generation in the store.
func TestDurableRestoreRefusesOtherMachineCount(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	mk, sch := durablePlan()
	events := durableEvents(900)
	schemas := map[string]*temporal.Schema{"clicks": sch}
	period := temporal.Time(20)

	for _, c := range []struct{ killed, resumed int }{{4, 2}, {2, 4}} {
		t.Run(fmt.Sprintf("%dto%d", c.killed, c.resumed), func(t *testing.T) {
			dir := t.TempDir()
			store, err := dur.OpenStore(dir, dur.Options{})
			if err != nil {
				t.Fatal(err)
			}
			runKilled(t, mk(true), schemas, "clicks", events, c.killed, core.DefaultConfig(), period, store, 500)
			store2, err := dur.OpenStore(dir, dur.Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = core.RestoreFromDir(mk(true), schemas, store2, core.WithMachines(c.resumed))
			want := fmt.Sprintf("written with %d machines, this job has %d", c.killed, c.resumed)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("restore with %d machines of a %d-machine generation: err = %v, want it to say %q",
					c.resumed, c.killed, err, want)
			}
			// The refusal is not corruption: the generation stays and
			// restores under its own machine count.
			if _, g, err := core.RestoreFromDir(mk(true), schemas, store2, core.WithMachines(c.killed)); err != nil || g == nil {
				t.Fatalf("restore with the generation's own %d machines after a refusal: gen %v, err %v", c.killed, g, err)
			}
		})
	}
}
