package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"timr/internal/mapreduce"
	"timr/internal/temporal"
)

// stableOrder is the reference the merge must reproduce exactly: a stable
// sort of feed indexes by LE.
func stableOrder(les []temporal.Time) []int32 {
	order := make([]int32, len(les))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool { return les[order[i]] < les[order[j]] })
	return order
}

var mergeTestSchema = temporal.NewSchema(
	temporal.Field{Name: "LE", Kind: temporal.KindInt},
	temporal.Field{Name: "ID", Kind: temporal.KindInt},
)

// idSink records the ID column of everything an engine emits, in order.
type idSink struct{ ids []int32 }

func (s *idSink) OnEvent(e temporal.Event) { s.ids = append(s.ids, int32(e.Payload[1].AsInt())) }
func (s *idSink) OnCTI(temporal.Time)      {}
func (s *idSink) OnFlush()                 {}

// mergedIDs drives the live merge — temporal.Engine.FeedMerged — over a
// bare scan of source "in", whose output is its input in feed order, and
// returns the ID column as the engine saw it and the ingest's error.
func mergedIDs(t testing.TB, runs []temporal.Run) ([]int32, error) {
	t.Helper()
	sink := &idSink{}
	eng, err := temporal.NewEngine(temporal.Scan("in", mergeTestSchema),
		temporal.WithSink(sink), temporal.WithCTIPeriod(0))
	if err != nil {
		t.Fatal(err)
	}
	err = eng.FeedMerged(runs)
	return sink.ids, err
}

// leRuns cuts les at bounds into resident runs of source "in" whose IDs
// are feed indexes.
func leRuns(les []temporal.Time, bounds []int) []temporal.Run {
	var runs []temporal.Run
	start := 0
	for _, end := range bounds {
		evs := make([]temporal.Event, 0, end-start)
		for i := start; i < end; i++ {
			evs = append(evs, temporal.PointEvent(les[i], temporal.Row{temporal.Int(les[i]), temporal.Int(int64(i))}))
		}
		runs = append(runs, temporal.Run{Source: "in", Events: evs})
		start = end
	}
	return runs
}

func TestMergeRunOrderMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(200)
		les := make([]temporal.Time, n)
		// Small LE domain forces plenty of ties, which is where stability
		// bugs would show.
		for i := range les {
			les[i] = temporal.Time(r.Intn(20))
		}
		// Random partition into runs; sort most of them (the shuffle
		// normally delivers sorted runs) but leave some unsorted, which
		// the merge cuts at their inversions.
		var bounds []int
		for start := 0; start < n; {
			end := start + 1 + r.Intn(40)
			if end > n {
				end = n
			}
			seg := les[start:end]
			if r.Intn(4) > 0 {
				sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
			}
			bounds = append(bounds, end)
			start = end
		}
		got, err := mergedIDs(t, leRuns(les, bounds))
		if err != nil {
			t.Fatal(err)
		}
		want := stableOrder(les)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("trial %d: merge order != stable sort\nles: %v\nbounds: %v\ngot:  %v\nwant: %v",
				trial, les, bounds, got, want)
		}
	}
}

func TestMergeRunOrderSingleRunFastPath(t *testing.T) {
	les := []temporal.Time{1, 2, 2, 3, 7}
	got, err := mergedIDs(t, leRuns(les, []int{5}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int32{0, 1, 2, 3, 4}) {
		t.Fatalf("single sorted run order = %v", got)
	}
}

func TestMergeRunOrderUnsortedRunIsCut(t *testing.T) {
	les := []temporal.Time{5, 1, 3}
	runs := leRuns(les, []int{3})
	got, err := mergedIDs(t, runs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int32{1, 2, 0}) {
		t.Fatalf("order = %v", got)
	}
	// Merged in pieces: the caller's run is as it was handed over.
	for i, e := range runs[0].Events {
		if e.LE != les[i] {
			t.Fatalf("the ingest reordered the caller's run: %v", runs[0].Events)
		}
	}
}

func TestMergeRunOrderEmpty(t *testing.T) {
	if got, err := mergedIDs(t, nil); err != nil || len(got) != 0 {
		t.Fatalf("empty merge = %v, %v", got, err)
	}
}

// benchRuns builds n LEs arranged as k individually-sorted runs — the
// shape the shuffle delivers to a reducer — and the end index of each run.
func benchRuns(n, k int) ([]temporal.Time, []int) {
	r := rand.New(rand.NewSource(41))
	les := make([]temporal.Time, 0, n)
	var bounds []int
	per := n / k
	for i := 0; i < k; i++ {
		t := temporal.Time(r.Intn(1000))
		for j := 0; j < per; j++ {
			t += temporal.Time(r.Intn(5))
			les = append(les, t)
		}
		bounds = append(bounds, len(les))
	}
	return les, bounds
}

// BenchmarkMergeRuns_1M times the live merge the way a reducer drives it:
// one streaming cursor per resident sorted shuffle run, rows converted to
// events as the merge pulls them, into an engine that discards its input.
func BenchmarkMergeRuns_1M(b *testing.B) {
	les, bounds := benchRuns(1<<20, 64)
	var segs []mapreduce.Segment
	start := 0
	for _, end := range bounds {
		segs = append(segs, mapreduce.ResidentSegment(mergeTestRows(les[start:end], start), true))
		start = end
	}
	plan := temporal.Scan("in", mergeTestSchema)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := temporal.NewEngine(plan, temporal.WithSink(&temporal.FuncSink{}), temporal.WithCTIPeriod(0))
		if err != nil {
			b.Fatal(err)
		}
		runs := make([]temporal.Run, len(segs))
		for j := range segs {
			if runs[j], err = segmentRun(&segs[j], "in", mergeTestToEvent); err != nil {
				b.Fatal(err)
			}
		}
		if err := eng.FeedMerged(runs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(les))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkMergeStableSortReference_1M(b *testing.B) {
	les, _ := benchRuns(1<<20, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stableOrder(les)
	}
	b.ReportMetric(float64(len(les))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func TestSpansForIntervalCoversLifetime(t *testing.T) {
	s := &SpanSpec{Origin: 0, Width: 100, Overlap: 50, N: 20}
	// A point event routes exactly as SpansFor always did.
	if got, want := s.SpansForInterval(120, 121), s.SpansFor(120); !reflect.DeepEqual(got, want) {
		t.Fatalf("point interval = %v, SpansFor = %v", got, want)
	}
	// A wide event reaches every span intersecting [LE, RE+overlap).
	got := s.SpansForInterval(120, 450) // [120, 500) with overlap
	want := []int{1, 2, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wide interval spans = %v, want %v", got, want)
	}
	// Degenerate lifetimes (RE <= LE) route like points.
	if got, want := s.SpansForInterval(120, 100), s.SpansFor(120); !reflect.DeepEqual(got, want) {
		t.Fatalf("degenerate interval = %v, want %v", got, want)
	}
	// Clamping at both ends.
	if got := s.SpansForInterval(-500, -400); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("below-origin spans = %v", got)
	}
	if got := s.SpansForInterval(5000, 5100); !reflect.DeepEqual(got, []int{19}) {
		t.Fatalf("beyond-range spans = %v", got)
	}
}
