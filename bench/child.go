package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"time"
)

// childEnv carries a job from the bench to a re-exec of its own binary.
// Each workload runs in such a child so that a fatal runtime error (the
// unsynchronised model cache in internal/bt/score.go is the known one)
// becomes failed operations instead of killing the benchmark.
const childEnv = "TIMR_BENCH_CHILD"

// sizes are the input sizes of the five workloads. They are not flags:
// a benchmark whose sizes users tune is a different benchmark each time.
// Only the smoke test substitutes smaller ones.
type sizes struct {
	BTUsers, BTKeywords, BTDays int
	SpillBudget                 int64
	ServeUsers, ServeRate       int
	ServePerWave                int
	RefreshUsers, RefreshDays   int
	Setups, MinReps             int
	// CalibRows sizes the calibration kernel and CalibRefMs is what it
	// takes on the reference host: the builder's, in a quiet phase.
	CalibRows  int
	CalibRefMs float64
}

// fullSizes are cut from the issue's sizing (4000/2000/2000 users) to
// what fits the acceptance driver's budget of roughly 29 s per
// invocation; README "Load sizing" has the arithmetic.
var fullSizes = sizes{
	BTUsers: 1000, BTKeywords: 2000, BTDays: 3,
	SpillBudget: 1 << 20,
	ServeUsers:  1000, ServeRate: 2000, ServePerWave: 200,
	RefreshUsers: 500, RefreshDays: 7,
	Setups: 3, MinReps: 3,
	CalibRows: 500_000, CalibRefMs: 200,
}

type job struct {
	Workload  string
	Seed      int64
	Seconds   float64
	Trace     bool
	TraceFile string
	TmpDir    string
	Sizes     sizes
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one workload run as the child reports it.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Warnings  []string          `json:"warnings,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples is the number of samples behind a metric where that is not
	// the repetition count, and Percentile the percentile actually used
	// where supportedPercentile lowered the one in the metric's name.
	Samples    map[string]int     `json:"samples,omitempty"`
	Percentile map[string]float64 `json:"percentile,omitempty"`
	// Calib holds the calibration kernel's readings in order, one
	// between every two timed intervals. The end-to-end timings in
	// Metrics are on the calibrated clock; Raw has them as the wall
	// clock read.
	Calib []float64          `json:"calib_ms,omitempty"`
	Raw   map[string]float64 `json:"raw,omitempty"`
	// SelfSeconds is the traced run's layer breakdown: self time by span
	// name. Its values sum to the traced wall.
	SelfSeconds map[string]float64 `json:"self_seconds,omitempty"`
}

// calibDrifted flags a run during which the host moved: its first and
// last calibration readings differ by more than 15%.
func (r *record) calibDrifted() bool {
	if len(r.Calib) < 2 {
		return false
	}
	lo, hi := r.Calib[0], r.Calib[len(r.Calib)-1]
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo > 0 && hi/lo > 1.15
}

func (r *record) failedShare() float64 {
	if !r.Correct || r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// childMsg is one line of the child's standard output: progress after
// every operation batch, and the record once at the end.
type childMsg struct {
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Final     *record `json:"final,omitempty"`
}

// child is the state of a workload run inside the child process.
type child struct {
	job   job
	rec   record
	out   *json.Encoder
	tr    *tracer // nil unless job.Trace
	calib *calibrator

	// The calibrated clock: every timed interval (a set-up, a repetition,
	// the open-loop phase) lies between two readings of the kernel, and
	// the timings taken inside it are scaled by their mean.
	lastCalib float64
	pending   []clockSample
	clocked   map[string]*clockSeries

	samples    map[string][]float64 // per-repetition samples of a per-layer metric, reported as their median
	items      int64                // input items processed in the timed phase, for per-event runtime metrics
	tracedWall time.Duration        // wall of every traced section, measured outside the tracer
}

type clockSample struct {
	name    string
	seconds float64
}

// clockSeries holds the samples of one end-to-end timing, as the wall
// clock read them and on the calibrated clock.
type clockSeries struct {
	raw, cal []float64
}

var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, s := range endToEnd {
		m[s.name] = s.unit
	}
	for _, s := range perLayer {
		m[s.name] = s.unit
	}
	return m
}()

// set records a metric. An unknown name is a bug in the bench itself.
func (c *child) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: metric " + name + " is not in spec.go")
	}
	if _, dup := c.rec.Metrics[name]; dup {
		panic("bench: metric " + name + " set twice")
	}
	c.rec.Metrics[name] = metric{Value: v, Unit: unit}
}

// setPercentile records the p-th percentile of xs under name, lowered to
// the highest percentile with at least ten samples beyond it.
func (c *child) setPercentile(name string, xs []float64, p float64) {
	v, used := percentile(xs, p)
	c.set(name, v)
	c.rec.Samples[name] = len(xs)
	if used != p {
		c.rec.Percentile[name] = used
	}
}

// sample adds one repetition's value of a metric; setMedians reports
// every sampled metric as the median over repetitions.
func (c *child) sample(name string, v float64) {
	c.samples[name] = append(c.samples[name], v)
}

func (c *child) setMedians() {
	for name, xs := range c.samples {
		c.set(name, median(xs))
	}
}

// ops counts operations and tells the parent, so that a crash later in
// the run is charged against what was attempted.
func (c *child) ops(attempted, failed int) {
	c.rec.Attempted += attempted
	c.rec.Failed += failed
	_ = c.out.Encode(childMsg{Attempted: c.rec.Attempted, Failed: c.rec.Failed})
}

// problem records a verification mismatch: the run is not correct and
// its failed share is 1.
func (c *child) problem(format string, args ...any) {
	c.rec.Problems = append(c.rec.Problems, fmt.Sprintf(format, args...))
}

// setup runs f Sizes.Setups times and records the median as setup_s, so
// that work a later change moves into set-up shows; the last run's
// products are the ones the workload uses.
func (c *child) setup(f func() error) error {
	c.closeInterval()
	for i := 0; i < c.job.Sizes.Setups; i++ {
		wall, err := c.section(c.tr, "setup", f)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		c.clock("setup", wall)
		c.closeInterval()
	}
	cal, raw := c.clockMedian("setup")
	c.setClocked("setup_s", cal, raw)
	return nil
}

// clock records an end-to-end timing taken inside the open interval.
func (c *child) clock(name string, d time.Duration) {
	c.pending = append(c.pending, clockSample{name, d.Seconds()})
}

// closeInterval reads the calibration kernel and moves the timings
// taken since the previous reading onto the calibrated clock: the clock
// of a host on which the kernel takes CalibRefMs. Where the host was 20%
// slower than that during the interval, both readings around it are 20%
// higher and the measured seconds shrink by that factor. Readings sit
// between repetitions, never inside one, and do not count against the
// time box.
func (c *child) closeInterval() {
	before, after := c.lastCalib, c.calib.readMs()
	c.rec.Calib = append(c.rec.Calib, after)
	c.lastCalib = after
	factor := c.job.Sizes.CalibRefMs / ((before + after) / 2)
	for _, s := range c.pending {
		series := c.clocked[s.name]
		if series == nil {
			series = &clockSeries{}
			c.clocked[s.name] = series
		}
		series.raw = append(series.raw, s.seconds)
		series.cal = append(series.cal, s.seconds*factor)
	}
	c.pending = c.pending[:0]
}

// clockMedian returns the median of a clocked timing in seconds, on the
// calibrated clock and as the wall clock read it.
func (c *child) clockMedian(name string) (cal, raw float64) {
	series := c.clocked[name]
	if series == nil {
		return 0, 0
	}
	return median(series.cal), median(series.raw)
}

// setClocked records an end-to-end metric on the calibrated clock and
// keeps the raw reading beside it.
func (c *child) setClocked(name string, cal, raw float64) {
	c.set(name, cal)
	c.rec.Raw[name] = raw
}

// calibrated moves a raw per-layer timing or rate onto the calibrated
// clock using a run's median reading, for the column printed beside it.
// Other units are not timings and are returned unchanged.
func calibrated(v float64, unit string, calibMs, refMs float64) float64 {
	if calibMs <= 0 || refMs <= 0 {
		return v
	}
	switch unit {
	case "s", "ms", "us":
		return v * refMs / calibMs
	case "1/s":
		return v * calibMs / refMs
	}
	return v
}

// section runs f under a root span of tr and times it from outside the
// tracer; checkSelfTimes compares the two at the end of the run.
func (c *child) section(tr *tracer, name string, f func() error) (time.Duration, error) {
	start := time.Now()
	end := tr.begin(name)
	err := f()
	end(nil)
	wall := time.Since(start)
	if tr != nil {
		c.tracedWall += wall
	}
	return wall, err
}

// timedPhase is the part of a run the end-to-end metrics come from.
// Runtime counters are read around the whole phase and peak RSS at its
// end, before verification allocates anything.
type timedPhase struct {
	before runtimeCounters
}

func (c *child) beginTimed() timedPhase {
	runtime.GC()
	return timedPhase{before: readRuntime()}
}

func (c *child) endTimed(ph timedPhase) {
	before, after := ph.before, readRuntime()
	c.set("peak_rss_mb", peakRSSMB())
	if c.items > 0 {
		c.set("runtime.alloc_kb_per_event", float64(after.allocBytes-before.allocBytes)/1024/float64(c.items))
		c.set("runtime.mallocs_per_event", float64(after.mallocs-before.mallocs)/float64(c.items))
	}
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		c.set("runtime.gc_cpu_share", (after.gcCPU-before.gcCPU)/cpu)
	}
	c.set("runtime.num_gc", float64(after.numGC-before.numGC))
}

// reps runs rep until the time box is spent, at least Sizes.MinReps
// times untraced. On a traced run every second repetition records
// spans, and the ratio of the two medians is the tracing overhead.
func (c *child) reps(box time.Duration, rep func(tr *tracer) (time.Duration, error)) error {
	var plain, traced []float64
	var spent time.Duration
	for i := 0; spent < box || len(plain) < c.job.Sizes.MinReps || (c.tr != nil && len(traced) == 0); i++ {
		tr := (*tracer)(nil)
		if c.tr != nil && i%2 == 1 {
			tr = c.tr
		}
		wall, err := rep(tr)
		if err != nil {
			return err
		}
		spent += wall
		c.closeInterval()
		if tr != nil {
			traced = append(traced, wall.Seconds())
		} else {
			plain = append(plain, wall.Seconds())
		}
	}
	if c.tr != nil {
		c.set("bench.trace_overhead_share", median(traced)/median(plain)-1)
	}
	return nil
}

// timed is the whole timed phase of a workload that is nothing but
// repetitions of one job.
func (c *child) timed(rep func(tr *tracer) (time.Duration, error)) error {
	ph := c.beginTimed()
	err := c.reps(time.Duration(c.job.Seconds*float64(time.Second)), rep)
	if err == nil {
		c.endTimed(ph)
	}
	return err
}

// checkSelfTimes asserts the tracing invariant: every instant of a
// traced repetition belongs to exactly one span's self time, so the self
// times sum to the wall measured outside the tracer.
func (c *child) checkSelfTimes() {
	byName, self := c.tr.selfTimes()
	c.rec.SelfSeconds = make(map[string]float64, len(byName))
	for name, d := range byName {
		c.rec.SelfSeconds[name] = d.Seconds()
	}
	wall := c.tracedWall
	if gap := (self - wall).Seconds() / wall.Seconds(); gap > 0.02 || gap < -0.02 {
		c.problem("trace: span self times sum to %v, traced wall is %v (%.1f%% apart, limit 2%%)", self, wall, gap*100)
	}
}

type runtimeCounters struct {
	allocBytes, mallocs uint64
	numGC               uint32
	gcCPU, totalCPU     float64
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	rc := runtimeCounters{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs, numGC: ms.NumGC}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		rc.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		rc.totalCPU = samples[1].Value.Float64()
	}
	return rc
}

// childMain runs one workload in this process and reports on stdout.
func childMain(spec string) int {
	var j job
	if err := json.Unmarshal([]byte(spec), &j); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: bad job:", err)
		return 2
	}
	w := findWorkload(j.Workload)
	if w == nil {
		fmt.Fprintln(os.Stderr, "bench child: unknown workload", j.Workload)
		return 2
	}
	c := &child{job: j, out: json.NewEncoder(os.Stdout), samples: map[string][]float64{}, clocked: map[string]*clockSeries{}, calib: newCalibrator(j.Sizes.CalibRows)}
	c.rec = record{
		Workload: j.Workload, Seed: j.Seed, Trace: j.Trace,
		Metrics: map[string]metric{}, Samples: map[string]int{}, Percentile: map[string]float64{}, Raw: map[string]float64{},
	}
	if j.Trace {
		c.tr = &tracer{}
	}
	if err := w.run(c); err != nil {
		c.problem("%s: %v", j.Workload, err)
	}
	c.setMedians()
	c.set("host.calib_sort_ms", median(c.rec.Calib))
	if c.tr != nil {
		c.checkSelfTimes()
		if err := c.tr.writeChrome(j.TraceFile, j.Workload); err != nil {
			c.problem("%v", err)
		}
	}
	c.rec.Correct = len(c.rec.Problems) == 0
	if err := c.out.Encode(childMsg{Attempted: c.rec.Attempted, Failed: c.rec.Failed, Final: &c.rec}); err != nil {
		return 2
	}
	return 0
}

// runChild re-executes exe with the job and turns whatever happens into
// a record: the child's own when it finished, otherwise one in which
// every operation attempted so far has failed. progress, when set, is
// called after every progress line (the smoke test kills the child from
// it).
func runChild(ctx context.Context, exe string, j job, progress func(attempted int)) *record {
	crashed := func(last childMsg, why string) *record {
		n := last.Attempted
		if n < 1 {
			n = 1
		}
		return &record{
			Workload: j.Workload, Seed: j.Seed, Trace: j.Trace,
			Attempted: n, Failed: n, Problems: []string{why},
			Metrics: map[string]metric{},
		}
	}

	spec, err := json.Marshal(j)
	if err != nil {
		return crashed(childMsg{}, err.Error())
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return crashed(childMsg{}, err.Error())
	}
	if err := cmd.Start(); err != nil {
		return crashed(childMsg{}, err.Error())
	}

	var last childMsg
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var msg childMsg
		if err := json.Unmarshal(sc.Bytes(), &msg); err != nil {
			continue // a stray print from library code, not ours
		}
		last = msg
		if progress != nil {
			progress(msg.Attempted)
		}
	}
	waitErr := cmd.Wait()
	switch {
	case waitErr != nil:
		return crashed(last, fmt.Sprintf("child %s: %v", j.Workload, waitErr))
	case last.Final == nil:
		return crashed(last, fmt.Sprintf("child %s exited without a result record", j.Workload))
	}
	return last.Final
}
