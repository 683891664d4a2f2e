package temporal

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// srcEvent pairs an event with the source it is fed to.
type srcEvent struct {
	Source string
	Event  Event
}

// flattenSorted interleaves per-source feeds into one globally LE-ordered
// sequence (stable tie-break by source name), the order a checkpoint test
// drives an engine in.
func flattenSorted(feeds map[string][]Event) []srcEvent {
	var all []srcEvent
	for src, evs := range feeds {
		for _, e := range evs {
			all = append(all, srcEvent{Source: src, Event: e})
		}
	}
	for i := 1; i < len(all); i++ {
		for j := i; j > 0; j-- {
			a, b := all[j-1], all[j]
			if b.Event.LE < a.Event.LE || (b.Event.LE == a.Event.LE && b.Source < a.Source) {
				all[j-1], all[j] = b, a
			} else {
				break
			}
		}
	}
	return all
}

// checkpointRoundtrip is the tentpole property: feed a prefix, snapshot,
// restore into a fresh engine, feed the suffix — combined output must
// match the uninterrupted run exactly. It also asserts the encoding's
// determinism (double-snapshot byte equality) and losslessness
// (snapshot ∘ restore ∘ snapshot is the identity on bytes).
func checkpointRoundtrip(t *testing.T, mk func() *Plan, feeds map[string][]Event, split, ctiEvery int) {
	t.Helper()
	all := flattenSorted(feeds)
	if split < 0 || split > len(all) {
		t.Fatalf("bad split %d for %d events", split, len(all))
	}
	drive := func(eng *Engine, evs []srcEvent, base int) {
		for i, se := range evs {
			eng.Feed(se.Source, se.Event)
			if ctiEvery > 0 && (base+i+1)%ctiEvery == 0 {
				eng.Advance(se.Event.LE)
			}
		}
	}

	clean := &Collector{}
	e0, err := NewEngine(mk(), WithSink(clean), WithCTIPeriod(0))
	if err != nil {
		t.Fatal(err)
	}
	drive(e0, all, 0)
	e0.Flush()

	// Interrupted run: both engine incarnations share one sink, so the
	// combined emission stream is directly comparable.
	got := &Collector{}
	e1, err := NewEngine(mk(), WithSink(got), WithCTIPeriod(0))
	if err != nil {
		t.Fatal(err)
	}
	drive(e1, all[:split], 0)
	snap := e1.Checkpoint()
	if !bytes.Equal(snap, e1.Checkpoint()) {
		t.Fatal("checkpoint encoding is nondeterministic: two snapshots of one state differ")
	}
	e2, err := restoreEngine(mk(), snap, WithSink(got), WithCTIPeriod(0))
	if err != nil {
		t.Fatalf("restore after %d of %d events: %v", split, len(all), err)
	}
	if resnap := e2.Checkpoint(); !bytes.Equal(resnap, snap) {
		t.Fatalf("restore is lossy: re-snapshot differs (%d vs %d bytes)", len(resnap), len(snap))
	}
	drive(e2, all[split:], split)
	e2.Flush()

	want := Coalesce(append([]Event(nil), clean.Events...))
	have := Coalesce(append([]Event(nil), got.Events...))
	if !EventsEqual(have, want) {
		t.Fatalf("split at %d/%d diverges: %d events, want %d", split, len(all), len(have), len(want))
	}
}

// sweepSplits exercises a plan across several prefix lengths and CTI
// cadences, including a checkpoint right after a punctuation (cadence
// divides the split) and one with no punctuation at all.
func sweepSplits(t *testing.T, mk func() *Plan, feeds map[string][]Event) {
	t.Helper()
	n := len(flattenSorted(feeds))
	for _, ctiEvery := range []int{0, 5, 7} {
		for _, split := range []int{0, 1, n / 3, n / 2, n - 1, n} {
			if split < 0 {
				continue
			}
			checkpointRoundtrip(t, mk, feeds, split, ctiEvery)
		}
	}
}

func TestCheckpointWindowedAggregates(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	events := genEvents(r, 60)
	aggs := map[string]func() *Plan{
		"count": func() *Plan { return Scan("in", propSchema()).WithWindow(9).Count("C") },
		"sum":   func() *Plan { return Scan("in", propSchema()).WithWindow(9).Sum("V", "S") },
		"avg":   func() *Plan { return Scan("in", propSchema()).WithWindow(9).Avg("V", "A") },
		"min":   func() *Plan { return Scan("in", propSchema()).WithWindow(9).Min("V", "M") },
		"max":   func() *Plan { return Scan("in", propSchema()).WithWindow(9).Max("V", "M") },
	}
	for name, mk := range aggs {
		t.Run(name, func(t *testing.T) {
			sweepSplits(t, mk, map[string][]Event{"in": events})
		})
	}
}

func TestCheckpointHoppingWindow(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	events := genEvents(r, 50)
	mk := func() *Plan { return Scan("in", propSchema()).WithHop(8, 3).Count("C") }
	sweepSplits(t, mk, map[string][]Event{"in": events})
}

func TestCheckpointGroupApply(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	events := genEvents(r, 70)
	mk := func() *Plan {
		return Scan("in", propSchema()).
			GroupApply([]string{"V"}, func(g *Plan) *Plan { return g.WithWindow(12).Count("C") })
	}
	sweepSplits(t, mk, map[string][]Event{"in": events})
}

func TestCheckpointTemporalJoin(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	feeds := map[string][]Event{
		"l": genEvents(r, 35),
		"r": genEvents(r, 35),
	}
	mk := func() *Plan {
		return Scan("l", propSchema()).WithWindow(7).
			Join(Scan("r", propSchema()).WithWindow(7), []string{"V"}, []string{"V"}, nil)
	}
	sweepSplits(t, mk, feeds)
}

func TestCheckpointAntiSemiJoin(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	feeds := map[string][]Event{
		"l": genEvents(r, 40),
		"r": genEvents(r, 20),
	}
	mk := func() *Plan {
		return Scan("l", propSchema()).
			AntiSemiJoin(Scan("r", propSchema()).WithWindow(6), []string{"V"}, []string{"V"})
	}
	sweepSplits(t, mk, feeds)
}

func TestCheckpointUnion(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	events := genEvents(r, 50)
	mk := func() *Plan {
		src := Scan("in", propSchema())
		return src.Where(ColGtInt("V", 4)).Union(src.Where(Not(ColGtInt("V", 4))))
	}
	sweepSplits(t, mk, map[string][]Event{"in": events})
}

func TestCheckpointUDO(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	events := genEvents(r, 45)
	mk := func() *Plan {
		return Scan("in", propSchema()).Apply(UDOSpec{
			Name: "sum", Window: 6, Hop: 3,
			Out: NewSchema(Field{Name: "S", Kind: KindInt}),
			Fn: func(ws, we Time, rows []Row) []Row {
				var s int64
				for _, row := range rows {
					s += row[1].AsInt()
				}
				return []Row{{Int(s)}}
			},
		})
	}
	sweepSplits(t, mk, map[string][]Event{"in": events})
}

func TestCheckpointRandomSplitsProperty(t *testing.T) {
	// The acceptance property at scale: random workloads, random splits,
	// the composite plan (GroupApply over windowed aggregates feeding a
	// second aggregate) that exercises nesting.
	mk := func() *Plan {
		return Scan("in", propSchema()).
			GroupApply([]string{"V"}, func(g *Plan) *Plan { return g.WithWindow(10).Sum("V", "S") }).
			ToPoint().
			WithWindow(15).Count("N")
	}
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(1000 + seed))
		events := genEvents(r, 30+r.Intn(50))
		split := r.Intn(len(events) + 1)
		ctiEvery := r.Intn(9) // 0 = none
		checkpointRoundtrip(t, mk, map[string][]Event{"in": events}, split, ctiEvery)
	}
}

func TestCheckpointRestoresCTIClock(t *testing.T) {
	mk := func() *Plan { return Scan("in", propSchema()).WithWindow(5).Count("C") }
	e1, err := NewEngine(mk(), WithCTIPeriod(0))
	if err != nil {
		t.Fatal(err)
	}
	e1.Feed("in", PointEvent(3, Row{Int(3), Int(1)}))
	e1.Advance(50)
	snap := e1.Checkpoint()
	e2, err := restoreEngine(mk(), snap, WithCTIPeriod(0))
	if err != nil {
		t.Fatal(err)
	}
	if e2.lastCTI != e1.lastCTI || e2.lastCTI != 50 {
		t.Fatalf("CTI clock not restored: got %d, want %d", e2.lastCTI, e1.lastCTI)
	}
}

func TestCheckpointErrors(t *testing.T) {
	mkA := func() *Plan { return Scan("in", propSchema()).WithWindow(5).Count("C") }
	// Plan B has a different stateful-operator population.
	mkB := func() *Plan {
		return Scan("in", propSchema()).
			GroupApply([]string{"V"}, func(g *Plan) *Plan { return g.WithWindow(5).Count("C") })
	}
	e1, err := NewEngine(mkA(), WithCTIPeriod(0))
	if err != nil {
		t.Fatal(err)
	}
	e1.Feed("in", PointEvent(1, Row{Int(1), Int(2)}))
	snap := e1.Checkpoint()

	if _, err := restoreEngine(mkB(), snap, WithCTIPeriod(0)); err == nil {
		t.Fatal("restoring into a mismatched plan must error")
	}
	if _, err := restoreEngine(mkA(), snap[:len(snap)-1], WithCTIPeriod(0)); err == nil {
		t.Fatal("restoring a truncated snapshot must error")
	}
	if _, err := restoreEngine(mkA(), append(append([]byte(nil), snap...), 0xFF), WithCTIPeriod(0)); err == nil {
		t.Fatal("restoring a snapshot with trailing bytes must error")
	}
	e2, err := NewEngine(mkA(), WithCTIPeriod(0))
	if err != nil {
		t.Fatal(err)
	}
	e2.Feed("in", PointEvent(1, Row{Int(1), Int(2)}))
	if err := e2.Restore(snap); err == nil {
		t.Fatal("Restore on an engine that has processed input must error")
	}
	if err := restoreErr(mkA(), append([]byte{ckEngineV1}, snap[1:]...)); err == nil || !strings.Contains(err.Error(), "format 1") {
		t.Fatalf("a format-1 image must be refused by name, got %v", err)
	}

	// A grouped kernel's section, one byte corrupted at a time: every image
	// errors or restores, and the slot table's own checks are among the
	// errors — an expiration naming a slot that is not there, a slot no
	// expiration names, a count larger than the bytes left.
	e3, err := NewEngine(mkB(), WithCTIPeriod(0))
	if err != nil {
		t.Fatal(err)
	}
	for ts := Time(1); ts <= 6; ts++ {
		e3.Feed("in", PointEvent(ts, Row{Int(ts), Int(ts % 3)}))
	}
	snap = e3.Checkpoint()
	// Retired sections no build reads again, each refused by its tag: 0x07
	// was the per-key GroupApply's, 0x01 and 0x06 the top-level aggregate's
	// and hopping UDO's — kernels with no key now, writing 0x08 and 0x09.
	mkU := func() *Plan {
		return Scan("in", propSchema()).Apply(UDOSpec{Name: "none", Window: 4, Hop: 2, Out: propSchema(),
			Fn: func(ws, we Time, rows []Row) []Row { return nil }})
	}
	e4, err := NewEngine(mkU(), WithCTIPeriod(0))
	if err != nil {
		t.Fatal(err)
	}
	e4.Feed("in", PointEvent(1, Row{Int(1), Int(2)}))
	for _, c := range []struct {
		eng      *Engine
		mk       func() *Plan
		tag, old byte
	}{{e3, mkB, ckGroupedAgg, 0x07}, {e1, mkA, ckGroupedAgg, 0x01}, {e4, mkU, ckGroupedUDO, 0x06}} {
		image := c.eng.Checkpoint()
		var hdr Encoder
		hdr.Byte(ckEngine)
		hdr.Varint(c.eng.lastCTI)
		hdr.Uvarint(uint64(len(c.eng.ckpts)))
		if at := len(hdr.Bytes()); image[at] != c.tag {
			t.Fatalf("byte %d of the image is 0x%02x, not the kernel's tag 0x%02x", at, image[at], c.tag)
		} else {
			image[at] = c.old
			if err := restoreErr(c.mk(), image); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("found 0x%02x", c.old)) {
				t.Fatalf("a 0x%02x section must be refused by its tag, got %v", c.old, err)
			}
		}
	}
	seen := map[string]bool{}
	for i := range snap {
		for _, b := range []byte{0x00, 0x07, 0x7f} {
			bad := append([]byte(nil), snap...)
			bad[i] = b
			if err := restoreErr(mkB(), bad); err != nil {
				for _, msg := range []string{"names slot", "no open lifetime", "exceeds remaining"} {
					seen[msg] = seen[msg] || strings.Contains(err.Error(), msg)
				}
			}
		}
	}
	if !seen["names slot"] || !seen["no open lifetime"] || !seen["exceeds remaining"] {
		t.Fatalf("corrupting the kernel section never tripped every slot-table check: %v", seen)
	}
}

// restoreErr is restoreEngine for its error alone.
func restoreErr(plan *Plan, snap []byte) error {
	_, err := restoreEngine(plan, snap, WithCTIPeriod(0))
	return err
}

// FuzzCheckpointRoundtrip fuzzes two properties at once: (1) for states
// reached by feeding decoded events, snapshot → restore → snapshot is the
// byte identity; (2) arbitrary bytes fed to Restore never panic —
// they either restore cleanly or fail with an error. Both over every section
// a GroupApply writes: a grouped aggregate, a union and a join distributed
// over kernels, a grouped UDO, a nested GroupApply under ToPoint and an
// AntiSemiJoin, and a keyed join with a condition; and over the key-less
// kernel sections of a top-level aggregate and UDO.
func FuzzCheckpointRoundtrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{ckEngine, 0x00, 0x00})
	f.Add([]byte{})
	sum := UDOSpec{Name: "sum", Window: 6, Hop: 3, Out: NewSchema(Field{Name: "S", Kind: KindInt}),
		Fn: func(ws, we Time, rows []Row) []Row {
			s := int64(0)
			for _, r := range rows {
				s += r[0].AsInt()
			}
			return []Row{{Int(s)}}
		}}
	near := &JoinPred{LeftCols: []string{"C"}, RightCols: []string{"Time"}, Desc: "C < r.Time+3",
		Make: func(li, ri []int) func(l, r Row) bool {
			return func(l, r Row) bool { return l[li[0]].AsInt() < r[ri[0]].AsInt()+3 }
		}}
	plans := []func() *Plan{}
	for _, sub := range []func(g *Plan) *Plan{
		func(g *Plan) *Plan { return g.WithWindow(8).Sum("V", "S") },
		func(g *Plan) *Plan { return g.WithWindow(8).Max("V", "S").Union(g.WithHop(6, 3).Sum("Time", "S")) },
		func(g *Plan) *Plan { return g.WithHop(4, 4).Count("C").Join(g.Min("V", "M"), nil, nil, nil) },
		func(g *Plan) *Plan { return g.Apply(sum) },
		func(g *Plan) *Plan {
			return g.GroupApply([]string{"Time"}, func(h *Plan) *Plan { return h.WithWindow(4).Count("C") }).ToPoint().
				AntiSemiJoin(g.WithWindow(2), []string{"Time"}, []string{"Time"})
		},
		func(g *Plan) *Plan {
			return g.WithWindow(8).Count("C").Join(g.WithWindow(3), []string{"C"}, []string{"V"}, near).Project(Keep("C"), Keep("Time"))
		},
	} {
		sub := sub
		plans = append(plans, func() *Plan { return Scan("in", propSchema()).GroupApply([]string{"V"}, sub) })
	}
	plans = append(plans, // key-less kernels: a top-level aggregate and UDO
		func() *Plan { return Scan("in", propSchema()).WithWindow(8).Sum("V", "S") },
		func() *Plan { return Scan("in", propSchema()).Apply(sum) })
	for _, mk := range plans {
		// A real image after groups drained and one key returned...
		post, err := NewEngine(mk(), WithCTIPeriod(0))
		if err != nil {
			f.Fatal(err)
		}
		for tm := Time(0); tm < 6; tm++ {
			post.Feed("in", PointEvent(tm, Row{Int(tm), Int(tm % 3)}))
		}
		post.Advance(40)
		post.Feed("in", PointEvent(41, Row{Int(41), Int(2)}))
		f.Add(post.Checkpoint())
		// ...and one with staged output (TestCheckpointWithUnsortedStaged):
		// what a CTI lagging the input left behind, under an unsorted tail.
		staged, err := NewEngine(mk(), WithCTIPeriod(0))
		if err != nil {
			f.Fatal(err)
		}
		for tm := Time(0); tm < 20; tm++ {
			staged.Feed("in", PointEvent(tm, Row{Int(tm), Int(tm * tm % 5)}))
			if tm == 11 {
				staged.Advance(4)
			}
		}
		f.Add(staged.Checkpoint())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mk := range plans {
			// (1) Roundtrip a state derived from the fuzz bytes.
			eng, err := NewEngine(mk(), WithCTIPeriod(0))
			if err != nil {
				t.Fatal(err)
			}
			tm := Time(0)
			for i, b := range data {
				if i >= 64 {
					break
				}
				tm += Time(b % 5)
				eng.Feed("in", Event{LE: tm, RE: tm + 1 + Time(b%3), Payload: Row{Int(int64(tm)), Int(int64(b % 7))}})
				if b%11 == 0 {
					eng.Advance(tm)
				}
			}
			snap := eng.Checkpoint()
			e2, err := restoreEngine(mk(), snap, WithCTIPeriod(0))
			if err != nil {
				t.Fatalf("restore of a live checkpoint failed: %v", err)
			}
			if !bytes.Equal(e2.Checkpoint(), snap) {
				t.Fatal("snapshot→restore→snapshot is not the byte identity")
			}
			// (2) Arbitrary bytes must never panic the decoder.
			if e3, err := restoreEngine(mk(), data, WithCTIPeriod(0)); err == nil && e3 == nil {
				t.Fatal("nil engine without error")
			}
		}
	})
}
