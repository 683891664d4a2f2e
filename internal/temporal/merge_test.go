package temporal

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
)

func TestMergedIngestTieOrder(t *testing.T) {
	// Two sources handed over as a map, tied on LE again and again, one of
	// them out of order: what reaches the pipeline's entries must be ordered
	// by (LE, source name, position in run) on every call — it used to
	// follow Go's map iteration — and the caller's slices must come back
	// untouched.
	type fed struct {
		Source string
		Power  int64
	}
	var log []fed
	record := func(src string) Predicate {
		return FnPred("record "+src, func(vals []Value) bool {
			log = append(log, fed{src, vals[0].AsInt()})
			return true
		}, "Power")
	}
	sch := readingSchema()
	// A filter directly over each scan is that source's pipeline entry, so
	// the predicates run in feed order.
	plan := Scan("a", sch).Where(record("a")).Union(Scan("b", sch).Where(record("b")))

	inputs := map[string][]Event{
		"b": {reading(3, "b", 0), reading(1, "b", 1), reading(3, "b", 2), reading(2, "b", 3), reading(1, "b", 4)},
		"a": {reading(1, "a", 0), reading(1, "a", 1), reading(2, "a", 2), reading(3, "a", 3), reading(3, "a", 4)},
	}
	before := map[string][]Event{"a": slices.Clone(inputs["a"]), "b": slices.Clone(inputs["b"])}

	type keyed struct {
		le Time
		fed
	}
	var all []keyed
	for _, src := range []string{"a", "b"} {
		for _, e := range inputs[src] {
			all = append(all, keyed{e.LE, fed{src, e.Payload[2].AsInt()}})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].le < all[j].le })
	var want []fed
	for _, k := range all {
		want = append(want, k.fed)
	}

	for call := 0; call < 50; call++ {
		log = log[:0]
		if _, err := RunPlan(plan, inputs); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(log, want) {
			t.Fatalf("call %d: fed %v, want %v", call, log, want)
		}
	}
	for src, evs := range inputs {
		if !EventsEqual(evs, before[src]) {
			t.Fatalf("RunPlan reordered the caller's %q events: %v", src, evs)
		}
	}
}

// mergeDraw decodes runs of sources "a" and "b" from fuzz bytes. The first
// byte picks the CTI period (none, 1, 2 or 5 ticks); then each run is a
// byte — bits 0–1 its kind (0 an LE-ordered resident run, 1 a resident
// run as drawn, 2 and 3 a cursor), bit 2 its source, bits 3–7 its
// length — and a byte per event, whose value mod 8 is its LE. Each
// event's payload is its index in the concatenation, in a backing array
// of its own.
func mergeDraw(data []byte) (period Time, runs []Run, all []fedEvent) {
	if len(data) == 0 {
		return 0, nil, nil
	}
	period, data = []Time{0, 1, 2, 5}[data[0]&3], data[1:]
	for len(data) > 0 && len(all) < 300 {
		h := data[0]
		n := min(int(h>>3), len(data)-1)
		run := Run{Source: []string{"a", "b"}[h>>2&1]}
		for _, b := range data[1 : 1+n] {
			le := Time(b % 8)
			run.Events = append(run.Events, PointEvent(le, Row{Int(int64(len(all) + len(run.Events)))}))
		}
		data = data[1+n:]
		if h&3 != 1 {
			slices.SortStableFunc(run.Events, func(x, y Event) int { return int(x.LE - y.LE) })
		}
		for _, ev := range run.Events {
			all = append(all, fedEvent{src: run.Source, ev: ev})
		}
		if h&3 >= 2 {
			evs := run.Events
			run.Events = nil
			run.Next = func() (Event, bool, error) {
				if len(evs) == 0 {
					return Event{}, false, nil
				}
				ev := evs[0]
				evs = evs[1:]
				return ev, true, nil
			}
		}
		runs = append(runs, run)
	}
	return period, runs, all
}

// fedEvent is what reached one of an engine's source entries: an event,
// or a CTI when cti is set.
type fedEvent struct {
	src string
	ev  Event
	cti bool
}

func (f fedEvent) String() string {
	if f.cti {
		return fmt.Sprintf("%s:cti@%d", f.src, f.ev.LE)
	}
	return fmt.Sprintf("%s:%v", f.src, f.ev)
}

// feedRecorder stands in for a source entry and logs what reaches it.
type feedRecorder struct {
	src string
	log *[]fedEvent
}

func (r feedRecorder) OnEvent(e Event) { *r.log = append(*r.log, fedEvent{src: r.src, ev: e}) }
func (r feedRecorder) OnCTI(t Time) {
	*r.log = append(*r.log, fedEvent{src: r.src, ev: Event{LE: t}, cti: true})
}
func (r feedRecorder) OnFlush() {}

// recordedEngine is an engine over sources "a" and "b" whose source
// entries log into log.
func recordedEngine(t *testing.T, period Time, log *[]fedEvent) *Engine {
	sch := NewSchema(Field{Name: "ID", Kind: KindInt})
	eng, err := NewEngine(Scan("a", sch).Union(Scan("b", sch)), WithSink(&Collector{}), WithCTIPeriod(period))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range eng.sources {
		eng.inputs[src] = feedRecorder{src: src, log: log}
	}
	return eng
}

// FuzzFeedMerged: FeedMerged over any mix of ordered and unordered resident
// runs and cursors, of two sources, pushes what Feed pushes when handed
// the stable LE sort of the concatenated runs one event at a time — each
// event, to its source, with the same punctuation between — and leaves
// the caller's slices as they were.
func FuzzFeedMerged(f *testing.F) {
	f.Add([]byte{0, 1<<3 | 1, 5, 3, 1, 4, 2<<3 | 0, 3, 3})                    // an unordered run, then an ordered one
	f.Add([]byte{1, 4<<3 | 1, 2, 1, 2, 1, 4<<3 | 2, 1, 2, 2, 7})              // pieces tied with each other and a cursor
	f.Add([]byte{2, 3<<3 | 4, 6, 6, 6, 3<<3 | 2, 6, 6, 6, 3<<3 | 5, 6, 0, 6}) // every LE tied, across sources
	f.Add([]byte{3, 6<<3 | 1, 7, 6, 5, 4, 3, 2, 1<<3 | 6, 0})                 // descending: a piece per event
	f.Fuzz(func(t *testing.T, data []byte) {
		period, runs, all := mergeDraw(data)
		before := make([][]Event, len(runs))
		for i, r := range runs {
			before[i] = slices.Clone(r.Events)
		}
		var got, want []fedEvent
		if err := recordedEngine(t, period, &got).FeedMerged(runs); err != nil {
			t.Fatal(err)
		}
		slices.SortStableFunc(all, func(x, y fedEvent) int { return int(x.ev.LE - y.ev.LE) })
		ref := recordedEngine(t, period, &want)
		for _, fe := range all {
			ref.Feed(fe.src, fe.ev)
		}
		if !slices.EqualFunc(got, want, func(g, w fedEvent) bool {
			return g.src == w.src && g.cti == w.cti && g.ev.LE == w.ev.LE && (g.cti || &g.ev.Payload[0] == &w.ev.Payload[0])
		}) {
			t.Fatalf("FeedMerged pushed\n%v\nFeed of the stable LE sort pushed\n%v", got, want)
		}
		for i, r := range runs {
			if !slices.EqualFunc(r.Events, before[i], func(x, y Event) bool { return &x.Payload[0] == &y.Payload[0] }) {
				t.Fatalf("run %d was reordered: %v", i, r.Events)
			}
		}
	})
}
