package temporal

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sortPool is what sortDraw fills payload columns from: ints, strings (one
// of them twice, in two allocations), a null, both bools, NaNs of both
// signs and both zeros.
var sortPool = []Value{
	Int(0), Int(1), Int(-1), String("a"), String("b"), String(string([]byte("a"))), Null,
	Bool(false), Bool(true), Float(math.NaN()), Float(math.Copysign(math.NaN(), -1)),
	Float(0), Float(math.Copysign(0, -1)), Float(1.5),
}

// sortDraw decodes an event list from fuzz bytes. The first byte picks the
// shape: bit 0 LE order (else as drawn), bits 1–2 the LE domain (1, 2, 3
// or 16 instants, so that ties run long), bits 3–4 the payloads: ints
// only; any pool value; three shared columns and then an int, as a serving
// log's rows; or any pool value in rows 0 to 3 wide. Every payload has its
// own backing array, so identity tells equal events apart.
func sortDraw(data []byte) []Event {
	if len(data) == 0 {
		return nil
	}
	h, data := data[0], data[1:]
	dom := []Time{1, 2, 3, 16}[h>>1&3]
	var evs []Event
	for ; len(data) >= 3; data = data[3:] {
		a, b, c := data[0], data[1], data[2]
		le := Time(a) % dom
		width := 3
		if h>>3&3 == 3 {
			width = int(b % 4)
		}
		p := make(Row, width, width+1)
		for i := range p {
			x := []byte{b >> 2, c, b ^ c}[i]
			switch h >> 3 & 3 {
			case 0:
				p[i] = Int(int64(x % 4))
			case 2:
				p[i] = Int(7)
				if i == 2 {
					p[i] = Int(int64(x % 5))
				}
			default:
				p[i] = sortPool[int(x)%len(sortPool)]
			}
		}
		evs = append(evs, Event{LE: le, RE: le + 1 + Time(a>>6), Payload: p})
	}
	if h&1 == 1 {
		slices.SortStableFunc(evs, func(x, y Event) int { return int(x.LE - y.LE) })
	}
	return evs
}

// sameSorted reports whether got is want event for event, each the same
// event (payload identity), "" if so.
func sameSorted(got, want []Event) string {
	for i := range want {
		g, w := got[i], want[i]
		if g.LE != w.LE || g.RE != w.RE || &g.Payload[:1][0] != &w.Payload[:1][0] {
			return fmt.Sprintf("position %d: got %v, want %v", i, g, w)
		}
	}
	return ""
}

// FuzzSortEvents: SortEvents puts any event list in the order a stable
// sort by compareEvents does, each event where that sort puts it.
func FuzzSortEvents(f *testing.F) {
	f.Add([]byte{1, 0, 9, 3, 0, 2, 1, 0, 4, 0})                                       // one LE, ints
	f.Add([]byte{17, 5, 1, 2, 5, 0, 9, 5, 3, 1})                                      // serving-shaped rows
	f.Add([]byte{9, 0, 40, 41, 0, 42, 43, 0, 44, 45, 0, 46, 47})                      // NaN, ±0 among others
	f.Add([]byte{24, 1, 3, 9, 2, 7, 200, 3, 13, 21, 0, 2, 2, 1, 1, 1})                // mixed widths, not LE-ordered
	f.Add(append([]byte{17}, bytes.Repeat([]byte{4, 9, 1, 4, 3, 5, 4, 6, 2}, 40)...)) // a run of 120
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1+3*300 {
			data = data[:1+3*300]
		}
		got := sortDraw(data)
		want := slices.Clone(got)
		slices.SortStableFunc(want, compareEvents)
		SortEvents(got)
		if msg := sameSorted(got, want); msg != "" {
			t.Fatalf("SortEvents differs from a stable sort: %s\nin: %v", msg, sortDraw(data))
		}
	})
}

// servingLog is an LE-ordered log whose tie runs of n events share their
// first four columns and differ in the fifth, an int, drawn out of order:
// the rows of one impression as the serving barrier holds them.
func servingLog(rng *rand.Rand, events, n int) []Event {
	evs := make([]Event, 0, events)
	for t := Time(0); len(evs) < events; t++ {
		for i := 0; i < n && len(evs) < events; i++ {
			evs = append(evs, PointEvent(t, Row{Int(int64(t)), Int(42), Int(7), Int(0), Int(rng.Int63n(1000)), Int(1)}))
		}
	}
	return evs
}

// TestSortEventsAllocs: sorting an LE-ordered log whose tie runs are at
// most tieStack long allocates nothing, through the int key sort and the
// general one alike.
func TestSortEventsAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ints := servingLog(rng, 4000, tieStack)
	strs := servingLog(rng, 4000, 16)
	for i := range strs {
		strs[i].Payload[4] = sortPool[3+i%2]
	}
	for _, log := range [][]Event{ints, strs} {
		work := make([]Event, len(log))
		if n := testing.AllocsPerRun(20, func() {
			copy(work, log)
			SortEvents(work)
		}); n != 0 {
			t.Errorf("SortEvents allocated %.1f times per call, want 0", n)
		}
	}
}

// BenchmarkSortEvents sorts serving-shaped logs whose tie runs of 2 to 128
// events differ in one int column, a log out of LE order, and one made of
// two LE-ordered runs.
func BenchmarkSortEvents(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 4, 8, 32, 128} {
		log := servingLog(rng, 8192, n)
		b.Run(fmt.Sprintf("ties=%d", n), func(b *testing.B) { benchSort(b, log) })
	}
	log := servingLog(rng, 8192, 8)
	rng.Shuffle(len(log), func(i, j int) { log[i], log[j] = log[j], log[i] })
	b.Run("unordered", func(b *testing.B) { benchSort(b, log) })
	// Two LE-ordered halves, interleaved in time: a barrier log whose
	// retained tail is followed by what the next wave pushed.
	log = servingLog(rng, 8192, 2)
	var early, late []Event
	for _, e := range log {
		if e.LE%2 == 0 {
			early = append(early, e)
		} else {
			late = append(late, e)
		}
	}
	b.Run("two-runs", func(b *testing.B) { benchSort(b, append(early, late...)) })
}

func benchSort(b *testing.B, log []Event) {
	work := make([]Event, len(log))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, log)
		SortEvents(work)
	}
}

// floatKeyPlan groups on a float key holding −0, +0 and NaN, a row of each
// every 7 ticks: the −0 and +0 groups emit events that Value.Compare
// cannot tell apart.
func floatKeyPlan() (*Plan, []Event) {
	sch := NewSchema(Field{Name: "Time", Kind: KindInt}, Field{Name: "K", Kind: KindFloat})
	keys := []float64{math.Copysign(0, -1), 0, math.NaN()}
	var evs []Event
	for t := Time(0); t < 400; t += 7 {
		for _, k := range keys {
			evs = append(evs, PointEvent(t, Row{Int(t), Float(k)}))
		}
	}
	plan := Scan("in", sch).GroupApply([]string{"K"}, func(g *Plan) *Plan { return g.WithWindow(100).Count("C") })
	return plan, evs
}

// TestCanonicalOrderIsTotal: grouped output is released in canonical order,
// whose ties are the same event, so its bytes do not depend on the order
// of the kernel's slot map. Under Value.Compare the −0 and +0 groups tie.
func TestCanonicalOrderIsTotal(t *testing.T) {
	plan, evs := floatKeyPlan()
	var first []byte
	for run := 0; run < 200; run++ {
		var sink Collector
		eng, err := NewEngine(plan, WithSink(&sink), WithCTIPeriod(10))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.FeedMerged([]Run{{Source: "in", Events: evs}}); err != nil {
			t.Fatal(err)
		}
		eng.Flush()
		var w Encoder
		w.Events(Coalesce(sink.Events))
		if run == 0 {
			first = w.Bytes()
		} else if !bytes.Equal(w.Bytes(), first) {
			t.Fatalf("run %d's output differs from run 0's", run)
		}
	}
}

// TestCanonicalCheckpointIsTotal: the same for a checkpoint taken mid-run,
// which lists the kernel's staged output and its slots in canonical order,
// the NaN keys' slots (each NaN row has its own) in the order of their
// hash chain, which a restore rebuilds: the checkpoint of a restored
// engine is the one it was restored from.
func TestCanonicalCheckpointIsTotal(t *testing.T) {
	plan, evs := floatKeyPlan()
	var first []byte
	for run := 0; run < 200; run++ {
		eng, err := NewEngine(plan, WithSink(&Collector{}), WithCTIPeriod(10))
		if err != nil {
			t.Fatal(err)
		}
		if run == 1 {
			if err := eng.Restore(first); err != nil {
				t.Fatal(err)
			}
		} else if err := eng.FeedMerged([]Run{{Source: "in", Events: evs[:len(evs)/2]}}); err != nil {
			t.Fatal(err)
		}
		ck := eng.Checkpoint()
		if run == 0 {
			first = ck
		} else if !bytes.Equal(ck, first) {
			t.Fatalf("run %d's checkpoint differs from run 0's", run)
		}
	}
}

// TestCompareRowsTotal: the canonical order is IEEE-754 totalOrder on floats
// and Value.Compare wherever that does not tie values of different bits.
func TestCompareRowsTotal(t *testing.T) {
	negNaN := Float(math.Copysign(math.NaN(), -1))
	asc := []Value{negNaN, Float(math.Inf(-1)), Float(-1), Float(math.Copysign(0, -1)), Float(0), Float(1), Float(math.Inf(1)), Float(math.NaN())}
	for i, a := range asc {
		for j, b := range asc {
			if got, want := compareRows(Row{a}, Row{b}), cmp.Compare(i, j); got != want {
				t.Errorf("compareRows(%v, %v) = %d, want %d", a, b, got, want)
			}
		}
	}
	for _, a := range sortPool {
		for _, b := range sortPool {
			if c := a.Compare(b); c != 0 && compareRows(Row{a}, Row{b}) != c {
				t.Errorf("compareRows(%v, %v) overrides Compare's %d", a, b, c)
			}
		}
	}
}
