package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"timr/internal/dur"
	"timr/internal/leakcheck"
	"timr/internal/temporal"
)

// snapshotPlan is the two-stage plan snapshotPayload runs: per-user
// windowed counts, as points, re-keyed by the count.
func snapshotPlan() (*temporal.Plan, map[string]*temporal.Schema) {
	sch := temporal.NewSchema(
		temporal.Field{Name: "Time", Kind: temporal.KindInt},
		temporal.Field{Name: "UserId", Kind: temporal.KindInt},
	)
	perUser := temporal.Scan("clicks", sch).Exchange(temporal.PartitionBy{Cols: []string{"UserId"}}).
		GroupApply([]string{"UserId"}, func(g *temporal.Plan) *temporal.Plan { return g.WithWindow(30).Count("C") }).
		ToPoint().Exchange(temporal.PartitionBy{Cols: []string{"C"}})
	plan := perUser.GroupApply([]string{"C"}, func(g *temporal.Plan) *temporal.Plan { return g.WithWindow(50).Count("N") })
	return plan, map[string]*temporal.Schema{"clicks": sch}
}

// snapshotPayload runs snapshotPlan on three machines for a few waves,
// with an input offset published, into a durable store in dir, and
// returns the payload of the last generation it committed. With
// outOfRange, the last partition of frag0 records id 3 in that
// generation, one past the stage's count.
func snapshotPayload(tb testing.TB, dir string, outOfRange bool) []byte {
	tb.Helper()
	plan, sources := snapshotPlan()
	store, err := dur.OpenStore(dir, dur.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	sj, err := NewStreamingJob(plan, sources, WithMachines(3), WithDurable(store))
	if err != nil {
		tb.Fatal(err)
	}
	src, err := sj.Source("clicks")
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		tm := temporal.Time(i)
		if i > 0 && i%40 == 0 {
			if outOfRange && i == 80 {
				st, err := sj.stageByName("frag0")
				if err != nil {
					tb.Fatal(err)
				}
				st.parts[2].id = 3
			}
			src.SetPosition(int64(i))
			if err := sj.Advance(tm); err != nil {
				tb.Fatal(err)
			}
		}
		if err := src.Feed(temporal.PointEvent(tm, temporal.Row{temporal.Int(int64(tm)), temporal.Int(int64(i % 7))})); err != nil {
			tb.Fatal(err)
		}
	}
	g, err := store.Load(func(*dur.Generation) error { return nil })
	if err != nil || g == nil {
		tb.Fatalf("Load = %v, %v", g, err)
	}
	return g.Payload
}

func TestDurableRestoreRefusesPartitionOutOfRange(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	dir := t.TempDir()
	payload := snapshotPayload(t, dir, true)
	plan, sources := snapshotPlan()
	store, err := dur.OpenStore(dir, dur.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewStreamingJob(plan, sources, WithMachines(3), WithDurable(store))
	const want = "generation holds partition frag0/3, but the stage has 3 partitions"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("restore of a generation with partition id 3 of 3: err = %v, want it to say %q", err, want)
	}
	// A refusal, not a quarantine: the generation is still the newest.
	if corrupt, _ := filepath.Glob(filepath.Join(dir, "corrupt-*")); len(corrupt) != 0 {
		t.Fatalf("the refused generation was quarantined: %v", corrupt)
	}
	g, err := store.Load(func(*dur.Generation) error { return nil })
	if err != nil || g == nil || string(g.Payload) != string(payload) {
		t.Fatalf("after the refusal the newest generation is %v (err %v), not the refused one", g, err)
	}
}

// TestDurableRestoreRefusesMalformedReplayLog: a generation's replay
// log event must name one of its partition's inputs and fit that input's
// schema, and a delivered result must fit the plan's, or the next wave
// would feed it to an engine that cannot take it; a partition's
// checkpoint must restore. Such a generation is refused when the job is
// built, with an error naming where it lies, and stays in the store.
func TestDurableRestoreRefusesMalformedReplayLog(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	plan, sources := snapshotPlan()
	logged := func(payload temporal.Row) func(*snapshot) string {
		return func(snap *snapshot) string {
			ps := &snap.parts[0]
			ps.log = append(ps.log, temporal.Event{LE: 100, RE: 101, Payload: payload})
			return fmt.Sprintf("partition %s/%d", ps.frag, ps.id)
		}
	}
	for _, c := range []struct {
		name  string
		spoil func(*snapshot) string // returns where the error must point
		want  string
	}{
		{"index out of range", logged(temporal.Row{temporal.Int(1), temporal.Int(2), temporal.Int(5)}), "names none of the 1 inputs"},
		{"no index", logged(temporal.Row{}), "names none of the 1 inputs"},
		{"short payload", logged(temporal.Row{temporal.Int(0)}), "has 0 columns, the schema 2"},
		{"result of another kind", func(snap *snapshot) string {
			snap.results = append(snap.results, temporal.Event{LE: 100, RE: 101, Payload: temporal.Row{temporal.Int(1), temporal.String("x")}})
			return "delivered results"
		}, "holds a string in int column"},
		{"checkpoint that does not restore", func(snap *snapshot) string {
			ps := &snap.parts[len(snap.parts)-1]
			ps.ckpt = []byte{0xFF}
			return fmt.Sprintf("partition %s/%d", ps.frag, ps.id)
		}, "expected engine tag"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			snap, err := decodeSnapshot(snapshotPayload(t, dir, false))
			if err != nil {
				t.Fatal(err)
			}
			where := c.spoil(snap)
			store, err := dur.OpenStore(dir, dur.Options{})
			if err != nil {
				t.Fatal(err)
			}
			payload := snap.encode()
			if err := store.Commit(120, 3, payload); err != nil {
				t.Fatal(err)
			}
			_, err = NewStreamingJob(plan, sources, WithMachines(3), WithDurable(store))
			if err == nil || !strings.Contains(err.Error(), where) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want it to name %s and say %q", err, where, c.want)
			}
			if corrupt, _ := filepath.Glob(filepath.Join(dir, "corrupt-*")); len(corrupt) != 0 {
				t.Fatalf("the refused generation was quarantined: %v", corrupt)
			}
			g, err := store.Load(func(*dur.Generation) error { return nil })
			if err != nil || g == nil || string(g.Payload) != string(payload) {
				t.Fatalf("after the refusal the newest generation is %v (err %v), not the refused one", g, err)
			}
		})
	}
}

// FuzzSnapshotDecode: a streaming generation's payload arrives from disk,
// so arbitrary bytes must error — never panic, never allocate beyond
// what the input can describe — and every truncation of a real payload
// must error. Every payload that decodes is also applied to a fresh job
// of the seed's plan, which must refuse it or take it and then run a
// wave and a flush, never panic.
func FuzzSnapshotDecode(f *testing.F) {
	payload := snapshotPayload(f, f.TempDir(), false)
	snap, err := decodeSnapshot(payload)
	if err != nil {
		f.Fatalf("a committed payload does not decode: %v", err)
	}
	if snap.machines != 3 || snap.offsets["clicks"] != 80 || len(snap.parts) == 0 || len(snap.results) == 0 {
		f.Fatalf("decoded snapshot lost its content: machines %d, offsets %v, %d parts, %d results",
			snap.machines, snap.offsets, len(snap.parts), len(snap.results))
	}
	for n := range payload {
		if _, err := decodeSnapshot(payload[:n]); err == nil {
			f.Fatalf("payload truncated to %d of %d bytes decodes", n, len(payload))
		}
	}
	f.Add(payload)
	f.Add(snapshotPayload(f, f.TempDir(), true))
	f.Add([]byte{})
	f.Add([]byte{snapshotTag})
	f.Add(temporal.AppendFrame(nil, []byte("a refresher's state section")))
	plan, sources := snapshotPlan()
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		n := len(snap.offsets) + len(snap.parts) + len(snap.results) + len(snap.pending)
		for _, p := range snap.parts {
			n += len(p.log)
		}
		if n > len(data) {
			t.Fatalf("%d bytes decoded to %d elements", len(data), n)
		}
		sj, err := NewStreamingJob(plan, sources, WithMachines(3))
		if err != nil {
			t.Fatal(err)
		}
		if sj.applySnapshot(2, snap) != nil {
			return
		}
		// A job that took the generation must run it: an error is fine, a
		// panic is not.
		_ = sj.Advance(200)
		sj.Flush()
	})
}
