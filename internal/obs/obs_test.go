package obs

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// Concurrent increments from many goroutines must not lose updates and
// must be clean under -race: reducers on the worker pool share metric
// handles for the same fragment.
func TestCounterConcurrent(t *testing.T) {
	root := New("t")
	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Resolve through the scope each time: get-or-create must
			// hand every goroutine the same counter.
			c := root.Child("stage").Counter("rows")
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := root.Child("stage").Counter("rows").Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
}

func TestGaugeSetMaxConcurrent(t *testing.T) {
	root := New("t")
	g := root.Gauge("depth")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				g.SetMax(int64(i*500 + j))
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 8*500-1 {
		t.Fatalf("gauge max = %d, want %d", got, 8*500-1)
	}
}

// Owners counting at once into tallies and peaks of their own, folding
// now and then, leave the shared counter and gauge where per-event Inc
// and SetMax would; a nil handle drops what is folded into it.
func TestTallyAndPeakFold(t *testing.T) {
	root := New("t")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, p := root.Counter("rows").Tally(), root.Gauge("depth").Peak()
			for j := 0; j < 1000; j++ {
				n.Inc()
				p.Raise(int64(i*1000 + j))
				if j%97 == 0 {
					n.Fold()
					p.Fold()
				}
			}
			n.Fold()
			p.Fold()
		}()
	}
	wg.Wait()
	if got := root.Counter("rows").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := root.Gauge("depth").Value(); got != 7999 {
		t.Fatalf("gauge = %d, want 7999", got)
	}
	var s *Scope
	n, p := s.Counter("c").Tally(), s.Gauge("g").Peak()
	n.Inc()
	p.Raise(3)
	n.Fold()
	p.Fold()
}

func TestHistogram(t *testing.T) {
	root := New("t")
	h := root.Histogram("lat")
	for _, d := range []time.Duration{3 * time.Millisecond, time.Millisecond, 7 * time.Millisecond} {
		h.Observe(d)
	}
	if h.Count() != 3 || h.Sum() != 11*time.Millisecond ||
		h.Min() != time.Millisecond || h.Max() != 7*time.Millisecond {
		t.Fatalf("histogram = n=%d sum=%s min=%s max=%s", h.Count(), h.Sum(), h.Min(), h.Max())
	}
}

// Snapshot order must be deterministic regardless of creation order, and
// repeated snapshots of a quiesced tree must be identical.
func TestSnapshotDeterministic(t *testing.T) {
	root := New("root")
	root.Child("b").Counter("z").Add(2)
	root.Child("b").Counter("a").Add(1)
	root.Child("a").Child("x").Gauge("g").Set(5)
	root.Counter("top").Add(9)
	root.Histogram("h").Observe(time.Millisecond)

	s1, s2 := root.Snapshot(), root.Snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("snapshots differ:\n%v\n%v", s1, s2)
	}
	var got []string
	for _, p := range s1 {
		got = append(got, p.Scope+" "+p.Name)
	}
	want := []string{"root h", "root top", "root.a.x g", "root.b a", "root.b z"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot order = %v, want %v", got, want)
	}
	if s1[1].Value != 9 || s1[4].Value != 2 || s1[0].Count != 1 {
		t.Fatalf("snapshot values wrong: %+v", s1)
	}
}

// Everything must be a no-op (and not panic) on nil receivers: that is
// the whole mechanism by which disabled observability costs nothing.
func TestNilSafety(t *testing.T) {
	var s *Scope
	if s.Child("x") != nil || s.Snapshot() != nil || s.Table() != "" || s.Name() != "" {
		t.Fatal("nil scope must yield nil children and empty snapshots")
	}
	c := s.Counter("c")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	g := s.Gauge("g")
	g.Set(3)
	g.SetMax(4)
	if g.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	h := s.Histogram("h")
	h.Observe(time.Second)
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("nil histogram must read 0")
	}
}

// Quantiles must agree with a sorted reference within the bucket
// resolution: exact below 16ns, and within the log-linear bucket's half
// width (≲6.25% relative) above it.
func TestHistogramQuantileVsSortedReference(t *testing.T) {
	cases := []struct {
		name string
		gen  func(i int) int64 // nanoseconds
		n    int
	}{
		{"uniform", func(i int) int64 { return int64(i+1) * 1000 }, 5000},
		{"exactSmall", func(i int) int64 { return int64(i % 16) }, 640},
		{"heavyTail", func(i int) int64 {
			v := int64(100)
			for j := 0; j < i%20; j++ {
				v *= 2
			}
			return v + int64(i%97)
		}, 3000},
		{"constant", func(int) int64 { return 123456 }, 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := New("t").Histogram("lat")
			vals := make([]int64, tc.n)
			for i := range vals {
				vals[i] = tc.gen(i)
				h.Observe(time.Duration(vals[i]))
			}
			sortInt64(vals)
			for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.99, 1.0} {
				rank := int(q*float64(tc.n) + 0.5)
				if rank < 1 {
					rank = 1
				}
				if rank > tc.n {
					rank = tc.n
				}
				want := vals[rank-1]
				got := int64(h.Quantile(q))
				// Bucket resolution: exact for small values, else one
				// sub-bucket of relative width 1/16 (midpoint reported,
				// so half a bucket ≈ 3.2%; allow the full bucket to
				// absorb rank-boundary effects).
				tol := want >> histSubBits
				if tol < 1 {
					tol = 1
				}
				if got < want-tol || got > want+tol {
					t.Fatalf("q=%.2f: got %d, sorted reference %d (tol %d)", q, got, want, tol)
				}
			}
		})
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile must read 0")
	}
	h := New("t").Histogram("lat")
	if h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile must read 0")
	}
	h.Observe(-time.Second) // clamps to 0
	if h.Quantile(0.5) != 0 || h.Min() != 0 {
		t.Fatal("negative observation must clamp to 0")
	}
	h.Observe(time.Millisecond)
	if got := h.Quantile(1.0); got != time.Millisecond {
		t.Fatalf("p100 = %s, want clamp to observed max 1ms", got)
	}

	// A single observation answers every quantile with itself: the rank
	// clamps to [1, total] at both ends, so q=0 and q=1 included.
	single := New("t").Histogram("one")
	single.Observe(42 * time.Microsecond)
	for _, q := range []float64{0, 0.001, 0.5, 0.999, 1} {
		if got := single.Quantile(q); got != 42*time.Microsecond {
			t.Fatalf("single observation: Quantile(%v) = %s, want 42µs", q, got)
		}
	}

	// Many observations: q=0 clamps the rank to 1 (the minimum), q=1 to
	// the observed maximum — never below min, never above max, and never
	// a bucket midpoint outside the observed range.
	many := New("t").Histogram("many")
	for i := 1; i <= 100; i++ {
		many.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := many.Quantile(0); got != time.Millisecond {
		t.Fatalf("Quantile(0) = %s, want the observed min 1ms", got)
	}
	if got := many.Quantile(1); got != 100*time.Millisecond {
		t.Fatalf("Quantile(1) = %s, want the observed max 100ms", got)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := many.Quantile(q); got < many.Min() || got > many.Max() {
			t.Fatalf("Quantile(%v) = %s outside observed [%s, %s]", q, got, many.Min(), many.Max())
		}
	}
}

// Quantile reads race-free against concurrent observers, with the same
// individually-consistent snapshot semantics as Counter/Gauge, and the
// snapshot Point carries P50/P99.
func TestHistogramQuantileConcurrentSnapshot(t *testing.T) {
	root := New("t")
	h := root.Histogram("lat")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				h.Observe(time.Duration(i%1000+1) * time.Microsecond)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		q := h.Quantile(0.99)
		if q < 0 || q > time.Millisecond+time.Microsecond {
			t.Errorf("p99 out of observed range: %s", q)
			break
		}
		_ = root.Snapshot()
	}
	wg.Wait()
	pts := root.Snapshot()
	if len(pts) != 1 || pts[0].P50 == 0 || pts[0].P99 < pts[0].P50 {
		t.Fatalf("snapshot point missing quantiles: %+v", pts)
	}
}

func sortInt64(v []int64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func TestTable(t *testing.T) {
	root := New("timr")
	root.Child("stage").Counter("rows").Add(42)
	root.Child("stage").Histogram("task_time").Observe(1500 * time.Microsecond)
	tab := root.Table()
	for _, want := range []string{"scope", "timr.stage", "rows", "42", "task_time", "n=1"} {
		if !strings.Contains(tab, want) {
			t.Fatalf("table missing %q:\n%s", want, tab)
		}
	}
	if New("empty").Table() != "" {
		t.Fatal("empty scope must render empty table")
	}
}
