package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"timr/internal/temporal"
)

// TestMain lets the test binary stand in for the bench binary: the
// harness re-executes os.Args[0] with a job in the environment.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

// tinySizes make every workload finish in a fraction of a second while
// still exercising every pass: models get trained, the budget spills,
// the refresher freezes a window.
var tinySizes = sizes{
	BTUsers: 120, BTKeywords: 300, BTDays: 1,
	SpillBudget: 8 << 10,
	ServeUsers:  600, ServeRate: 2000, ServePerWave: 40,
	RefreshUsers: 80, RefreshDays: 4,
	Setups: 1, MinReps: 1,
	CalibRows: 20_000, CalibRefMs: 5,
}

func tinyHarness(t *testing.T) *harness {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &harness{exe: exe, outDir: t.TempDir(), sizes: tinySizes, seconds: 0.2}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestEveryMetricOncePerWorkload runs each workload traced at tiny
// sizes and checks the ledger's shape: every metric in spec.go comes
// out exactly once with its unit, the ones a workload does not exercise
// as zero; the record survives JSON; the run verified its outputs; and
// the trace file's self times add up to its root spans.
func TestEveryMetricOncePerWorkload(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			h := tinyHarness(t)
			rec := h.run(w.name, 1, true)
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d problems=%q", rec.Correct, rec.Attempted, rec.Failed, rec.Problems)
			}

			want := map[string]metricSpec{}
			for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
				if _, dup := want[m.name]; dup {
					t.Errorf("spec lists %s twice", m.name)
				}
				if !metricName.MatchString(m.name) || len(m.name) > 64 {
					t.Errorf("metric name %q is outside the contract's alphabet", m.name)
				}
				want[m.name] = m
			}
			for name, got := range rec.Metrics {
				m, ok := want[name]
				if !ok {
					t.Errorf("reported %s, which spec.go does not list", name)
					continue
				}
				if got.Unit != m.unit || got.Unit == "" {
					t.Errorf("%s: unit %q, spec says %q", name, got.Unit, m.unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s: value %v", name, got.Value)
				}
				if !m.appliesTo(w.name) && got.Value != 0 {
					t.Errorf("%s = %v on %s, which does not exercise it", name, got.Value, w.name)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("%s was not reported", name)
			}
			for _, m := range endToEnd {
				if rec.Metrics[m.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; the contract wants it never 0", m.name, rec.Metrics[m.name].Value)
				}
			}

			data, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			var back record
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			again, _ := json.Marshal(&back)
			if !bytes.Equal(data, again) {
				t.Error("record does not round-trip through JSON")
			}

			for _, trace := range []bool{false, true} {
				line, err := contractLine(rec, trace)
				if err != nil {
					t.Fatal(err)
				}
				var obj map[string]json.RawMessage
				if err := json.Unmarshal(line, &obj); err != nil {
					t.Fatal(err)
				}
				if len(obj) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
					t.Errorf("contract line has keys %v", sortedKeys(obj))
				}
				var ms map[string]metric
				if err := json.Unmarshal(obj["metrics"], &ms); err != nil {
					t.Fatal(err)
				}
				specs := endToEnd
				if trace {
					specs = perLayer
				}
				if len(ms) != len(specs) {
					t.Errorf("trace=%v: contract line carries %d metrics, spec has %d", trace, len(ms), len(specs))
				}
			}

			checkTraceFile(t, h.traceFile(w.name))
		})
	}
}

// checkTraceFile recomputes self times from the Chrome trace alone.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
			Args struct{ Span, Parent int }
		}
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	self := make([]float64, len(file.TraceEvents))
	var roots, total float64
	for i, e := range file.TraceEvents {
		if e.Ph != "X" || e.Name == "" || e.Args.Span != i {
			t.Fatalf("span %d malformed: %+v", i, e)
		}
		self[i] += e.Dur
		if e.Args.Parent >= 0 {
			self[e.Args.Parent] -= e.Dur
		} else {
			roots += e.Dur
		}
	}
	for i, s := range self {
		if s < -1 { // µs; a child may not outlast its parent
			t.Errorf("span %d (%s) has negative self time %.1f µs", i, file.TraceEvents[i].Name, s)
		}
		total += s
	}
	if roots <= 0 || math.Abs(total-roots)/roots > 0.02 {
		t.Errorf("self times sum to %.0f µs, root spans to %.0f µs", total, roots)
	}
}

// TestKilledChildFailsItsOperations kills a child mid-run, as a fatal
// runtime error would: the harness must come back with a record whose
// failed share is 1, not crash or hang.
func TestKilledChildFailsItsOperations(t *testing.T) {
	h := tinyHarness(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := runChild(ctx, h.exe, job{
		Workload: "bt_single", Seed: 1, Seconds: 60, Sizes: tinySizes, TmpDir: t.TempDir(),
	}, func(attempted int) {
		if attempted >= 3 {
			cancel()
		}
	})
	if rec.Correct || rec.failedShare() != 1 || rec.Attempted < 3 || rec.Failed != rec.Attempted {
		t.Errorf("killed child: correct=%v attempted=%d failed=%d share=%v", rec.Correct, rec.Attempted, rec.Failed, rec.failedShare())
	}
	if len(rec.Problems) == 0 {
		t.Error("killed child: no problem recorded")
	}

	// A child that cannot even start is the same kind of failure.
	rec = runChild(context.Background(), filepath.Join(t.TempDir(), "missing"), job{Workload: "bt_single"}, nil)
	if rec.failedShare() != 1 {
		t.Errorf("unstartable child: share=%v", rec.failedShare())
	}
}

// TestCompareModels pins the cross-implementation rule for the Model
// stage: other weights for the same ad and window are counted, another
// ad, another window, a missing model or an unparseable one is an error.
func TestCompareModels(t *testing.T) {
	model := func(le, re temporal.Time, ad int64, blob string) temporal.Event {
		return temporal.Event{LE: le, RE: re, Payload: temporal.Row{temporal.Int(ad), temporal.String(blob)}}
	}
	want := []temporal.Event{model(10, 20, 1, "-1.5;3:0.25"), model(10, 20, 2, "0.5;")}
	for _, tc := range []struct {
		name   string
		got    []temporal.Event
		differ int
		fails  bool
	}{
		{"same", want, 0, false},
		{"other weights", []temporal.Event{model(10, 20, 1, "-1.4;3:0.26"), want[1]}, 1, false},
		{"other ad", []temporal.Event{model(10, 20, 3, "-1.5;3:0.25"), want[1]}, 0, true},
		{"other window", []temporal.Event{model(10, 30, 1, "-1.5;3:0.25"), want[1]}, 0, true},
		{"missing", want[:1], 0, true},
		{"unparseable", []temporal.Event{model(10, 20, 1, "no model"), want[1]}, 0, true},
	} {
		differ, err := compareModels(tc.got, want)
		if differ != tc.differ || (err != nil) != tc.fails {
			t.Errorf("%s: differ=%d err=%v, want differ=%d fails=%v", tc.name, differ, err, tc.differ, tc.fails)
		}
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n       int
		p, want float64
	}{
		{1000, 99, 99}, // 10 samples beyond p99
		{999, 99, 100 * (1 - 10.0/999)},
		{100, 99, 90}, // p99 would rest on one sample
		{100, 90, 90},
		{59, 90, 100 * (1 - 10.0/59)},
		{20, 90, 50}, // exactly ten beyond the median
		{15, 90, 50}, // never below the median
		{0, 99, 50},
	} {
		if got := supportedPercentile(tc.n, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("supportedPercentile(%d, %g) = %g, want %g", tc.n, tc.p, got, tc.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted on purpose
	}
	if v, used := percentile(xs, 99); v != 990 || used != 99 {
		t.Errorf("percentile(1..1000, 99) = %g at p%g, want 990 at p99", v, used)
	}
	if v, used := percentile(xs[:100], 99); v != 990 || used != 90 {
		t.Errorf("percentile(901..1000, 99) = %g at p%g, want 990 at p90", v, used)
	}
	if v, _ := percentile(nil, 50); v != 0 {
		t.Errorf("percentile of nothing = %g", v)
	}
}

// TestQuartilesMatchPython pins the quartile code to the values Python's
// statistics.quantiles(xs, n=4) gives, because the acceptance procedure
// computes its spreads with that function.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs             []float64
		q1, median, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5}, // two samples: Python extrapolates, and so must this
		{[]float64{4, 1, 9, 16, 25}, 2.5, 9, 20.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 || median(tc.xs) != tc.median {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", tc.xs, q1, median(tc.xs), q3, tc.q1, tc.median, tc.q3)
		}
	}
	if s := spread([]float64{90, 100, 110}); s != 0.2 {
		t.Errorf("spread(90,100,110) = %g, want 0.2", s)
	}
	if q1, q3 := quartiles(nil); q1 != 0 || q3 != 0 || median(nil) != 0 {
		t.Error("no samples must summarise to zeros")
	}
}

func TestCompareVerdicts(t *testing.T) {
	sum := func(vs ...float64) summary { return summarise("x", vs) }
	lowerBetter := metricSpec{name: "t", better: lower, bound: 0.10}
	higherBetter := metricSpec{name: "r", better: higher, bound: 0.10}
	for _, tc := range []struct {
		m    metricSpec
		a, b summary
		want string
	}{
		{lowerBetter, sum(99, 100, 101), sum(99, 100, 101), "unchanged"},
		{lowerBetter, sum(99, 100, 101), sum(111, 112, 113), "worse"},
		{lowerBetter, sum(99, 100, 101), sum(89, 90, 91), "better"},
		{lowerBetter, sum(99, 100, 101), sum(98, 99, 100), "unchanged"}, // inside A's own spread
		{lowerBetter, sum(80, 100, 120), sum(85, 105, 125), "unresolved"},
		{higherBetter, sum(99, 100, 101), sum(85, 86, 87), "worse"},
		{higherBetter, sum(99, 100, 101), sum(111, 112, 113), "better"},
	} {
		if got, _ := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", tc.m.better, tc.a.Values, tc.b.Values, got, tc.want)
		}
	}

	file := func(share float64, latency ...float64) *resultFile {
		res := &resultFile{Workloads: map[string]*workloadResult{}}
		for _, w := range workloads {
			wr := &workloadResult{FailedShare: share, EndToEnd: map[string]summary{}}
			for _, m := range endToEnd {
				wr.EndToEnd[m.name] = summarise(m.unit, latency)
			}
			res.Workloads[w.name] = wr
		}
		return res
	}
	var out strings.Builder
	if code := compareResults(&out, file(0, 99, 100, 101), file(0, 99, 100, 101)); code != 0 {
		t.Errorf("identical files compare to %d:\n%s", code, out.String())
	}
	if code := compareResults(&out, file(0, 99, 100, 101), file(0.5, 99, 100, 101)); code == 0 {
		t.Error("a higher failed share must fail the comparison")
	}
	out.Reset()
	// Lower is worse for events_per_s, higher for the rest: either way
	// something regresses.
	if code := compareResults(&out, file(0, 99, 100, 101), file(0, 149, 150, 151)); code == 0 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 50%% move compares to %d:\n%s", code, out.String())
	}
}

// TestManifestMatchesSpec keeps BENCHMARK.json, which the acceptance
// driver reads, equal to spec.go, which the bench runs.
func TestManifestMatchesSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if strings.Join(file.Command, " ") != "go run ./bench" || len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("command %q paths %q", file.Command, file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %d: %q/%q, spec %q/%q", i, got.Name, got.Why, w.name, w.why)
		}
	}
	check := func(kind string, got []entry, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: %+v, spec %s %s %s", kind, i, g, m.name, m.unit, m.better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.bound || m.bound <= 0 || m.bound > 0.25):
				t.Errorf("%s %s: bound %v, spec %v", kind, m.name, g.Bound, m.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.name)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract", len(perLayer), len(endToEnd))
	}
	if endToEnd[0].name != "setup_s" {
		t.Error("setup_s must be an end-to-end metric")
	}
	for _, m := range endToEnd[1:] {
		if m.bound > endToEnd[0].bound {
			t.Errorf("%s has a larger bound than setup_s", m.name)
		}
	}
}
