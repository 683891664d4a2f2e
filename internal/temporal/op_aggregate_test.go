package temporal

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestMinMaxNaNDoesNotLeak: when the multiset was keyed by Value itself
// (commit 270cf47), a NaN key never matched — not on Remove, not in Result
// — so 1000 insert/remove pairs left 1000 map entries and 1000 heap
// candidates behind. Every NaN is one key now.
func TestMinMaxNaNDoesNotLeak(t *testing.T) {
	s := newMinMaxState(0, false)
	nan := Row{Float(math.NaN())}
	for i := 0; i < 1000; i++ {
		s.Insert(nan)
		if got := s.Result(); got.Kind() != KindFloat || !math.IsNaN(got.AsFloat()) {
			t.Fatalf("pair %d: Min over {NaN} = %v, want NaN", i, got)
		}
		s.Remove(nan)
	}
	if len(s.counts) != 0 {
		t.Errorf("multiset holds %d entries after 1000 insert/remove pairs, want 0", len(s.counts))
	}
	if got := s.Result(); got.Kind() != KindNull || len(s.h.items) != 0 {
		t.Errorf("Result = %v with %d heap candidates left, want NULL and 0", got, len(s.h.items))
	}

	// The same through the kernel a top-level Max compiles to, with
	// lifetimes that overlap so the active set does not empty (and the
	// slot die) between events.
	var out Collector
	plan := Scan("in", NewSchema(Field{Name: "F", Kind: KindFloat})).Max("F", "M")
	op := newGroupedAggOp(&lowering{}, keying{}, nil, plan, nil, &out)
	op.OnEvent(Event{LE: 0, RE: 5, Payload: nan})
	slot, _ := op.find(nan)
	ms := slot.slot.state.(*minMaxState)
	for i := Time(1); i < 1000; i++ {
		op.OnEvent(Event{LE: i, RE: i + 5, Payload: nan})
	}
	op.OnCTI(2000)
	if op.liveState() != 0 || len(ms.counts) != 0 {
		t.Errorf("after the last lifetime closed: liveState %d, multiset %d entries, want 0, 0", op.liveState(), len(ms.counts))
	}
	for _, e := range out.Events {
		if !math.IsNaN(e.Payload[0].AsFloat()) {
			t.Fatalf("Max over NaNs = %v at [%d,%d), want NaN", e.Payload[0], e.LE, e.RE)
		}
	}
}

// TestMinMaxFloatKeys pins the multiset key to Value.Equal: -0 and +0 are
// one entry, as they were when Go's own float map keys decided it.
func TestMinMaxFloatKeys(t *testing.T) {
	s := newMinMaxState(0, false)
	s.Insert(Row{Float(0)})
	s.Remove(Row{Float(math.Copysign(0, -1))})
	if len(s.counts) != 0 || s.Result().Kind() != KindNull {
		t.Errorf("Insert(+0), Remove(-0) left %d entries, Result %v", len(s.counts), s.Result())
	}

	// A NaN compares 0 to every float, so it neither displaces nor is
	// displaced by a heap neighbour: among {NaN, 1.5} the minimum (and the
	// maximum) is whichever was inserted first.
	for _, max := range []bool{false, true} {
		s = newMinMaxState(0, max)
		s.Insert(Row{Float(math.NaN())})
		s.Insert(Row{Float(1.5)})
		if got := s.Result().AsFloat(); !math.IsNaN(got) {
			t.Errorf("max=%v: extremum of {NaN, 1.5} = %v, want NaN (inserted first)", max, got)
		}
		s.Remove(Row{Float(math.NaN())})
		if got := s.Result().AsFloat(); got != 1.5 {
			t.Errorf("max=%v: extremum after removing the NaN = %v, want 1.5", max, got)
		}
		s = newMinMaxState(0, max)
		s.Insert(Row{Float(1.5)})
		s.Insert(Row{Float(math.NaN())})
		if got := s.Result().AsFloat(); got != 1.5 {
			t.Errorf("max=%v: extremum of {1.5, NaN} = %v, want 1.5 (inserted first)", max, got)
		}
	}

	// Snapshot bytes do not depend on map iteration order, NaN included,
	// and a restored state answers like the original.
	s = newMinMaxState(0, false)
	for _, f := range []float64{2.5, math.NaN(), -1, math.Inf(1), 2.5, math.NaN()} {
		s.Insert(Row{Float(f)})
	}
	var first []byte
	for i := 0; i < 20; i++ {
		var w Encoder
		s.snapshot(&w)
		if first == nil {
			first = bytes.Clone(w.Bytes())
		} else if !bytes.Equal(first, w.Bytes()) {
			t.Fatalf("snapshot %d differs from the first: multiset order is not deterministic", i)
		}
	}
	r := newMinMaxState(0, false)
	r.restore(NewDecoder(first))
	if len(r.counts) != 4 || r.counts[keyOf(Float(math.NaN()))].n != 2 || r.counts[keyOf(Float(2.5))].n != 2 {
		t.Errorf("restored multiset = %v", r.counts)
	}
}

// TestUnknownAggKindIsACompileError: Plan's fields are exported, so a plan
// can name an aggregate kind that does not exist. It prints, and Compile
// refuses it — at the top level and under a GroupApply alike — instead of
// panicking at compile or at the first event.
func TestUnknownAggKindIsACompileError(t *testing.T) {
	if got := AggKind(99).String(); got != "Agg(99)" {
		t.Errorf("AggKind(99).String() = %q, want Agg(99)", got)
	}
	bad := func(p *Plan) *Plan { p.Agg = 99; return p }
	for name, plan := range map[string]*Plan{
		"top-level": bad(Scan("in", propSchema()).Count("C")),
		"grouped":   Scan("in", propSchema()).GroupApply([]string{"V"}, func(g *Plan) *Plan { return bad(g.WithWindow(3).Count("C")) }),
	} {
		eng, err := NewEngine(plan)
		if err == nil {
			eng.Feed("in", PointEvent(1, Row{Int(1), Int(2)}))
			t.Fatalf("%s: an Agg(99) plan compiles", name)
		}
		if !strings.Contains(err.Error(), "Agg(99)") {
			t.Errorf("%s: error %q does not name the kind", name, err)
		}
	}
}
