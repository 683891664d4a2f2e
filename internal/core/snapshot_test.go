package core

import (
	"testing"

	"timr/internal/dur"
	"timr/internal/temporal"
)

// snapshotPayload runs a small two-stage durable job for a few waves,
// with an input offset published, and returns the payload of the last
// generation it committed.
func snapshotPayload(tb testing.TB) []byte {
	tb.Helper()
	sch := temporal.NewSchema(
		temporal.Field{Name: "Time", Kind: temporal.KindInt},
		temporal.Field{Name: "UserId", Kind: temporal.KindInt},
	)
	perUser := temporal.Scan("clicks", sch).Exchange(temporal.PartitionBy{Cols: []string{"UserId"}}).
		GroupApply([]string{"UserId"}, func(g *temporal.Plan) *temporal.Plan { return g.WithWindow(30).Count("C") }).
		ToPoint().Exchange(temporal.PartitionBy{Cols: []string{"C"}})
	plan := perUser.GroupApply([]string{"C"}, func(g *temporal.Plan) *temporal.Plan { return g.WithWindow(50).Count("N") })

	store, err := dur.OpenStore(tb.TempDir(), dur.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	sj, err := NewStreamingJob(plan, map[string]*temporal.Schema{"clicks": sch}, WithMachines(3), WithDurable(store))
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

// FuzzSnapshotDecode: a streaming generation's payload arrives from disk,
// so arbitrary bytes must error — never panic, never allocate beyond
// what the input can describe — and every truncation of a real payload
// must error.
func FuzzSnapshotDecode(f *testing.F) {
	payload := snapshotPayload(f)
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
	f.Add([]byte{})
	f.Add([]byte{snapshotTag})
	f.Add(temporal.AppendFrame(nil, []byte("a refresher's state section")))
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
	})
}
