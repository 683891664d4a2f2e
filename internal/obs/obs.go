// Package obs is a lightweight, allocation-conscious observability layer
// for the engine, the cluster simulator, and the streaming runtime:
// counters, gauges, and duration histograms organised into named scopes,
// with deterministic snapshots renderable as a text table.
//
// Design constraints, in order:
//
//   - Nil-safety. Every method works on a nil *Scope, *Counter, *Gauge,
//     and *Histogram, doing nothing (or returning zero). Instrumented
//     code threads an optional scope through unconditionally; when
//     observability is off the scope is nil and the hot path costs one
//     predictable nil check per call — no branching at call sites, no
//     interface indirection.
//   - Race-freedom. Metric updates are single atomic operations (reducers
//     run on a worker pool, streaming partitions on goroutines), so the
//     whole package is clean under `go test -race`. Metric *creation*
//     (get-or-create by name) takes a mutex, but instrumented code
//     resolves handles once at wiring time, not per event. A hot path
//     that many partitions run at once counts into a Tally or Peak of its
//     own and folds it into the shared handle once per batch.
//   - Determinism. Snapshot output is sorted by scope path then metric
//     name, so tests can pin exact tables and repeated snapshots of a
//     quiesced system are byte-identical.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter (events in, rows
// shuffled, barriers released, ...).
type Counter struct{ v atomic.Int64 }

// Add increases the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increases the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value (buffer depth, live state size). It
// supports both last-write (Set) and high-watermark (SetMax) semantics;
// instrumented code typically tracks the high watermark so a post-run
// snapshot still shows the peak.
type Gauge struct{ v atomic.Int64 }

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// SetMax raises the gauge to v if v is greater than the current value.
// No-op on a nil gauge.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current gauge value (zero for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Tally is a count one owner — an engine, a barrier — keeps in a plain
// field and folds into a shared Counter when it chooses, at the end of a
// batch rather than at every event: owners counting at once on other
// cores then share no cache line between folds. A tally is not safe for
// concurrent use; the counter it folds into is.
type Tally struct {
	n int64
	c *Counter
}

// Tally returns a tally that folds into c (a nil c drops its counts).
func (c *Counter) Tally() Tally { return Tally{c: c} }

// Inc counts one.
func (t *Tally) Inc() { t.n++ }

// Fold adds what t counted since the last Fold to its counter.
func (t *Tally) Fold() {
	if t.n != 0 {
		t.c.Add(t.n)
		t.n = 0
	}
}

// Peak is a Tally for a high watermark: Fold raises its gauge by SetMax.
type Peak struct {
	v int64
	g *Gauge
}

// Peak returns a peak that folds into g (a nil g drops its readings).
func (g *Gauge) Peak() Peak { return Peak{g: g} }

// Raise records the reading v.
func (p *Peak) Raise(v int64) { p.v = max(p.v, v) }

// Fold raises the gauge to the highest reading since the last Fold.
func (p *Peak) Fold() {
	if p.v > 0 {
		p.g.SetMax(p.v)
		p.v = 0
	}
}

// Histogram bucket layout: values below histLinear land in their own
// exact bucket; above that, each power of two is cut into histLinear
// linear sub-buckets (an HDR-histogram-style log-linear layout), so the
// relative quantile error is bounded by 1/histLinear = 6.25% while the
// whole table stays a flat fixed-size array of atomics — one Add per
// observation, no allocation, no locks.
const (
	histSubBits = 4
	histLinear  = 1 << histSubBits                           // 16 exact buckets + 16 sub-buckets per octave
	histBuckets = histLinear + (63-histSubBits)<<histSubBits // exps histSubBits..62
)

// histBucket maps a non-negative nanosecond value to its bucket index.
func histBucket(ns int64) int {
	if ns < histLinear {
		return int(ns)
	}
	e := int64(bits.Len64(uint64(ns))) - 1 // 2^e <= ns < 2^(e+1), e >= histSubBits
	sub := (ns >> (e - histSubBits)) & (histLinear - 1)
	return int((e-histSubBits)<<histSubBits) + histLinear + int(sub)
}

// histValue returns the representative value (bucket midpoint) of a
// bucket index — the value Quantile reports for ranks landing there.
func histValue(b int) int64 {
	if b < histLinear {
		return int64(b)
	}
	rest := int64(b - histLinear)
	e := rest>>histSubBits + histSubBits
	sub := rest & (histLinear - 1)
	lo := int64(1)<<e + sub<<(e-histSubBits)
	return lo + int64(1)<<(e-histSubBits)/2
}

// Histogram records a distribution of durations: count, sum, min, max,
// plus a fixed log-linear bucket table dense enough to answer quantile
// reads (p50/p99 latency is a first-class serving metric) within a
// bounded ~6% relative error. Updates stay single atomic operations per
// field, so the histogram remains race-free and allocation-free on the
// observation path.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64 // nanoseconds
	min   atomic.Int64 // nanoseconds; valid only when count > 0
	max   atomic.Int64 // nanoseconds
	bkt   [histBuckets]atomic.Int64
}

// Observe records one duration. Negative durations clamp to zero.
// No-op on a nil histogram.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	if h.count.Add(1) == 1 {
		// First observation seeds min; racing observers converge via
		// the CAS loops below.
		h.min.Store(ns)
	}
	h.sum.Add(ns)
	h.bkt[histBucket(ns)].Add(1)
	for {
		cur := h.min.Load()
		if ns >= cur || h.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Quantile returns the q-quantile (0 < q <= 1) of the observed
// distribution, accurate to the bucket resolution (6.25% relative, exact
// below 16ns). It walks the bucket table with individually-atomic reads —
// the same individually-(not mutually-)consistent snapshot semantics as
// Counter and Gauge — and returns 0 when empty or nil.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank >= total {
		// The top rank is the observed maximum exactly — p100 should
		// report the recorded extreme, not its bucket midpoint.
		return time.Duration(h.max.Load())
	}
	var cum int64
	for b := 0; b < histBuckets; b++ {
		cum += h.bkt[b].Load()
		if cum >= rank {
			v := histValue(b)
			// Clamp to the observed extremes so a single-bucket
			// distribution reports its true min/max, not the midpoint.
			if mx := h.max.Load(); v > mx {
				v = mx
			}
			if mn := h.min.Load(); v < mn {
				v = mn
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max.Load())
}

// Count returns the number of observations (zero for a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed duration (zero for a nil histogram).
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Max returns the largest observed duration (zero for a nil histogram).
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.max.Load())
}

// Min returns the smallest observed duration (zero when empty or nil).
func (h *Histogram) Min() time.Duration {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.min.Load())
}

// Scope is a named namespace of metrics. Scopes nest (Child), and the
// full dotted path identifies each metric in snapshots:
//
//	timr → cluster → stage.frag0 → counter "input_rows"
//	    ⇒ "timr.cluster.stage.frag0  input_rows"
//
// Get-or-create is mutex-protected: concurrent reducers resolving the
// same names receive the same handles, so per-operator metrics aggregate
// across partitions of the same fragment.
type Scope struct {
	name string

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	children map[string]*Scope
}

// New returns a fresh root scope with the given name.
func New(name string) *Scope { return &Scope{name: name} }

// Name returns the scope's own (unqualified) name.
func (s *Scope) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Child returns the sub-scope with the given name, creating it on first
// use. Returns nil on a nil scope, so instrumentation wiring can thread
// children unconditionally.
func (s *Scope) Child(name string) *Scope {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.children == nil {
		s.children = make(map[string]*Scope)
	}
	c, ok := s.children[name]
	if !ok {
		c = &Scope{name: name}
		s.children[name] = c
	}
	return c
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a usable no-op handle) on a nil scope.
func (s *Scope) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.counters == nil {
		s.counters = make(map[string]*Counter)
	}
	c, ok := s.counters[name]
	if !ok {
		c = &Counter{}
		s.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// (a usable no-op handle) on a nil scope.
func (s *Scope) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gauges == nil {
		s.gauges = make(map[string]*Gauge)
	}
	g, ok := s.gauges[name]
	if !ok {
		g = &Gauge{}
		s.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil (a usable no-op handle) on a nil scope.
func (s *Scope) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hists == nil {
		s.hists = make(map[string]*Histogram)
	}
	h, ok := s.hists[name]
	if !ok {
		h = &Histogram{}
		s.hists[name] = h
	}
	return h
}

// Kind distinguishes metric types in snapshots.
type Kind string

// Metric kinds appearing in Point.Kind.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "hist"
)

// Point is one metric reading in a snapshot. Value carries the
// counter/gauge value; histograms use Count/Sum/Min/Max/P50/P99 instead.
type Point struct {
	Scope string // dotted scope path, root included
	Name  string
	Kind  Kind
	Value int64

	Count         int64 // histogram only
	Sum, Min, Max time.Duration
	P50, P99      time.Duration // bucket-resolution quantiles
}

// Snapshot walks the scope tree and returns every metric, sorted by
// scope path then metric name. The result is deterministic for a
// quiesced system; concurrent updates during the walk yield values that
// are individually (not mutually) consistent, which is all a monitoring
// read needs. Nil scopes snapshot to nil.
func (s *Scope) Snapshot() []Point {
	if s == nil {
		return nil
	}
	var pts []Point
	s.collect(s.name, &pts)
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Scope != pts[j].Scope {
			return pts[i].Scope < pts[j].Scope
		}
		return pts[i].Name < pts[j].Name
	})
	return pts
}

func (s *Scope) collect(path string, pts *[]Point) {
	s.mu.Lock()
	for n, c := range s.counters {
		*pts = append(*pts, Point{Scope: path, Name: n, Kind: KindCounter, Value: c.Value()})
	}
	for n, g := range s.gauges {
		*pts = append(*pts, Point{Scope: path, Name: n, Kind: KindGauge, Value: g.Value()})
	}
	for n, h := range s.hists {
		*pts = append(*pts, Point{
			Scope: path, Name: n, Kind: KindHistogram,
			Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
			P50: h.Quantile(0.50), P99: h.Quantile(0.99),
		})
	}
	names := make([]string, 0, len(s.children))
	for n := range s.children {
		names = append(names, n)
	}
	children := make([]*Scope, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		children = append(children, s.children[n])
	}
	s.mu.Unlock()
	// Recurse outside the lock: child scopes have independent mutexes
	// and the tree shape only grows, never mutates existing links.
	for _, c := range children {
		c.collect(path+"."+c.name, pts)
	}
}

// Table renders the snapshot as an aligned two-level text table, one
// line per metric:
//
//	scope                     metric        value
//	timr.cluster.stage.frag0  input_rows    20000
//	timr.engine.frag.frag0.op00.Aggregate  events_in  9936
//
// Histograms render as "n=8 sum=12ms avg=1.5ms max=3ms". Empty and nil
// scopes render as an empty string.
func (s *Scope) Table() string {
	pts := s.Snapshot()
	if len(pts) == 0 {
		return ""
	}
	rows := make([][3]string, 0, len(pts)+1)
	rows = append(rows, [3]string{"scope", "metric", "value"})
	for _, p := range pts {
		var v string
		if p.Kind == KindHistogram {
			if p.Count == 0 {
				v = "n=0"
			} else {
				avg := time.Duration(int64(p.Sum) / p.Count)
				v = fmt.Sprintf("n=%d sum=%s avg=%s p50=%s p99=%s max=%s",
					p.Count, round(p.Sum), round(avg), round(p.P50), round(p.P99), round(p.Max))
			}
		} else {
			v = fmt.Sprintf("%d", p.Value)
		}
		rows = append(rows, [3]string{p.Scope, p.Name, v})
	}
	var w [2]int
	for _, r := range rows {
		for i := 0; i < 2; i++ {
			if len(r[i]) > w[i] {
				w[i] = len(r[i])
			}
		}
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s  %-*s  %s\n", w[0], r[0], w[1], r[1], r[2])
	}
	return b.String()
}

// round trims durations to microsecond precision for table display.
func round(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
