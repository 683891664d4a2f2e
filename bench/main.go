// Command bench is the repository's one reproducible benchmark
// (ROADMAP item 1): five workloads over the three headline paths —
// the Fig. 14 batch job, `timr serve`, `timr refresh` — each run in a
// child process of this binary, verified, and reported as end-to-end
// metrics (tracing off) and per-layer metrics (a traced pass). See
// README.md in this directory for the workloads, the metrics, how they
// are expected to interact, and the rule for claiming a gain.
//
//	go run ./bench                       every workload, -runs times, results to bench/out/result.json
//	go run ./bench -trace 1              the same plus one traced run per workload (Chrome traces in bench/out)
//	go run ./bench -workload bt_batch    one run of one workload; last line is the acceptance driver's JSON
//	go run ./bench -compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// childTimeout keeps one workload run inside the acceptance driver's
// 180 s limit whatever happens to the child.
const childTimeout = 170 * time.Second

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}

	workload := flag.String("workload", "", "run only this workload, once, and print the acceptance driver's JSON as the last line ("+strings.Join(workloadNames(), ", ")+")")
	seed := flag.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Float64("seconds", 12, "length of the timed phase of one run (BENCHMARK.json run_seconds)")
	trace := flag.Int("trace", 0, "1 records spans around the calls into each package: one traced run per workload, per-layer metrics, Chrome trace files")
	runs := flag.Int("runs", 3, "untraced runs per workload when running all of them; run r uses seed+r")
	out := flag.String("json", filepath.Join("bench", "out", "result.json"), "where a full invocation writes its results; traces and temporary files go beside it")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case flag.NArg() != 0:
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments:", flag.Args())
		os.Exit(2)
	case *seconds <= 0 || *runs < 1:
		fmt.Fprintln(os.Stderr, "bench: -seconds and -runs must be positive")
		os.Exit(2)
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	h := &harness{exe: exe, outDir: filepath.Dir(*out), sizes: fullSizes, seconds: *seconds}
	if err := os.MkdirAll(h.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}

	if *workload != "" {
		if findWorkload(*workload) == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		os.Exit(runOne(h, *workload, *seed, *trace != 0))
	}
	os.Exit(runAll(h, *seed, *runs, *trace != 0, *out))
}

// harness is the parent side: it knows how to run one workload once.
type harness struct {
	exe     string
	outDir  string
	sizes   sizes
	seconds float64
}

func (h *harness) traceFile(workload string) string {
	return filepath.Join(h.outDir, workload+".trace.json")
}

// run executes one workload run in a child and completes its record:
// the failed share, a zero for every per-layer metric whose layer the
// workload does not exercise, and a problem for every metric the
// workload should have reported but did not.
func (h *harness) run(workload string, seed int64, trace bool) *record {
	rec := h.runChild(workload, seed, trace)
	crashed := len(rec.Metrics) == 0
	for _, group := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range group {
			if _, ok := rec.Metrics[m.name]; ok || m.name == "bench.failed_share" {
				continue
			}
			switch {
			case !m.appliesTo(workload):
				rec.Metrics[m.name] = metric{Value: 0, Unit: m.unit}
			case !crashed && (trace || isEndToEnd(m.name)):
				rec.Problems = append(rec.Problems, "metric "+m.name+" was not reported")
			}
		}
	}
	rec.Correct = len(rec.Problems) == 0
	rec.Metrics["bench.failed_share"] = metric{Value: rec.failedShare(), Unit: unitOf["bench.failed_share"]}
	return rec
}

// runChild gives the child a scratch directory beside the results
// (spill files, durable stores) and removes it afterwards, also when the
// child died and could not.
func (h *harness) runChild(workload string, seed int64, trace bool) *record {
	tmp, err := os.MkdirTemp(h.outDir, "tmp-")
	if err != nil {
		return &record{Workload: workload, Seed: seed, Trace: trace, Attempted: 1, Failed: 1,
			Problems: []string{err.Error()}, Metrics: map[string]metric{}}
	}
	defer os.RemoveAll(tmp)
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	return runChild(ctx, h.exe, job{
		Workload: workload, Seed: seed, Seconds: h.seconds, Trace: trace,
		TraceFile: h.traceFile(workload), TmpDir: tmp, Sizes: h.sizes,
	}, nil)
}

func isEndToEnd(name string) bool {
	for _, m := range endToEnd {
		if m.name == name {
			return true
		}
	}
	return false
}

func printHeader(fp fingerprint, seed int64, seconds float64, extra string) {
	fmt.Printf("# timr bench: %s GOMAXPROCS=%d nproc=%d cpu=%q git=%s dirty=%v seed=%d seconds=%g %s\n",
		fp.GoVersion, fp.GOMAXPROCS, fp.NumCPU, fp.CPUModel, fp.GitSHA, fp.GitDirty, seed, seconds, extra)
}

// printRecord lists every metric of one run by name and unit. The
// end-to-end timings are on the calibrated clock and carry the raw
// reading beside them; the per-layer timings are raw and carry the
// calibrated value beside them.
func (h *harness) printRecord(rec *record) {
	fmt.Printf("workload %s seed=%d trace=%v attempted=%d failed=%d correct=%v failed_share=%g\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed, rec.Correct, rec.failedShare())
	if n := len(rec.Calib); n > 0 {
		flag := ""
		if rec.calibDrifted() {
			flag = "  HOST DRIFT >15%: the host moved during this run"
		}
		fmt.Printf("  host.calib_sort_ms first=%.1f last=%.1f median=%.1f of %d readings (reference %.0f)%s\n",
			rec.Calib[0], rec.Calib[n-1], median(rec.Calib), n, h.sizes.CalibRefMs, flag)
	}
	for _, p := range rec.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
	for _, w := range rec.Warnings {
		fmt.Printf("  WARNING: %s\n", w)
	}
	calibMs := median(rec.Calib)
	for _, group := range []struct {
		title string
		specs []metricSpec
	}{{"end-to-end", endToEnd}, {"per-layer", perLayer}} {
		fmt.Printf("  %s\n", group.title)
		for _, m := range group.specs {
			v, ok := rec.Metrics[m.name]
			if !ok || !m.appliesTo(rec.Workload) {
				continue
			}
			line := fmt.Sprintf("    %-42s %16.6g %-6s", m.name, v.Value, v.Unit)
			if raw, clocked := rec.Raw[m.name]; clocked {
				line += fmt.Sprintf(" raw=%-12.6g", raw)
			} else if cv := calibrated(v.Value, v.Unit, calibMs, h.sizes.CalibRefMs); cv != v.Value && !isEndToEnd(m.name) {
				line += fmt.Sprintf(" calibrated=%-12.6g", cv)
			}
			if n, ok := rec.Samples[m.name]; ok {
				line += fmt.Sprintf(" n=%d", n)
			}
			if p, ok := rec.Percentile[m.name]; ok {
				line += fmt.Sprintf(" (p%.4g: too few samples for the named percentile)", p)
			}
			fmt.Println(strings.TrimRight(line, " "))
		}
	}
	if len(rec.SelfSeconds) > 0 {
		fmt.Println("  traced self time by span (sums to the traced wall)")
		names := make([]string, 0, len(rec.SelfSeconds))
		var total float64
		for name, s := range rec.SelfSeconds {
			names = append(names, name)
			total += s
		}
		sort.Slice(names, func(i, j int) bool { return rec.SelfSeconds[names[i]] > rec.SelfSeconds[names[j]] })
		for _, name := range names {
			fmt.Printf("    %-42s %12.6f s  %5.1f%%\n", name, rec.SelfSeconds[name], 100*rec.SelfSeconds[name]/total)
		}
	}
}

// runOne is the acceptance driver's entry: one run of one workload, and
// as the last line of standard output the JSON object the contract asks
// for — the end-to-end metrics untraced, the per-layer metrics traced.
func runOne(h *harness, workload string, seed int64, trace bool) int {
	printHeader(hostFingerprint(), seed, h.seconds, fmt.Sprintf("trace=%v", trace))
	rec := h.run(workload, seed, trace)
	h.printRecord(rec)
	if trace {
		fmt.Printf("  trace written to %s\n", h.traceFile(workload))
	}

	line, err := contractLine(rec, trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !rec.Correct || rec.Failed > 0 {
		return 1
	}
	return 0
}

// contractLine is the acceptance driver's result object: exactly the
// keys correct, attempted, failed and metrics, the metrics being every
// end-to-end metric on an untraced run and every per-layer metric on a
// traced one.
func contractLine(rec *record, trace bool) ([]byte, error) {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	metrics := make(map[string]metric, len(specs))
	for _, m := range specs {
		if v, ok := rec.Metrics[m.name]; ok {
			metrics[m.name] = v
		}
	}
	return json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": metrics,
	})
}

// summary is one metric over the runs of a full invocation. For an
// end-to-end timing Values are on the calibrated clock and RawMedian is
// the median of what the wall clock read; for a per-layer timing Values
// are raw and Calibrated is their median moved onto the calibrated
// clock.
type summary struct {
	Unit       string    `json:"unit"`
	Median     float64   `json:"median"`
	Q1         float64   `json:"q1"`
	Q3         float64   `json:"q3"`
	N          int       `json:"n"`
	RawMedian  *float64  `json:"raw_median,omitempty"`
	Calibrated *float64  `json:"calibrated,omitempty"`
	Values     []float64 `json:"values"`
}

func summarise(unit string, values []float64) summary {
	s := summary{Unit: unit, Median: median(values), N: len(values), Values: values}
	s.Q1, s.Q3 = quartiles(values)
	return s
}

type workloadResult struct {
	Why         string             `json:"why"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Correct     bool               `json:"correct"`
	FailedShare float64            `json:"failed_share"`
	Problems    []string           `json:"problems,omitempty"`
	CalibMs     []float64          `json:"calib_ms"` // median reading of each run
	HostDrift   bool               `json:"host_drift"`
	EndToEnd    map[string]summary `json:"end_to_end"`
	PerLayer    map[string]summary `json:"per_layer"`
	TraceFile   string             `json:"trace_file,omitempty"`
}

// resultFile is what a full invocation writes and -compare reads.
type resultFile struct {
	Host      fingerprint                `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Runs      int                        `json:"runs"`
	Traced    bool                       `json:"traced"`
	Claim     *string                    `json:"claim"` // this benchmark claims no gain: always null
	Workloads map[string]*workloadResult `json:"workloads"`
}

// runAll runs every workload `runs` times untraced (run r on seed+r, so
// the spread it reports includes what a change of seed does, as the
// acceptance procedure's does) and, when asked, once more traced.
func runAll(h *harness, seed int64, runs int, trace bool, outPath string) int {
	fp := hostFingerprint()
	printHeader(fp, seed, h.seconds, fmt.Sprintf("runs=%d trace=%v", runs, trace))
	res := resultFile{Host: fp, Seed: seed, Seconds: h.seconds, Runs: runs, Traced: trace, Workloads: map[string]*workloadResult{}}
	status := 0
	for _, w := range workloads {
		wr := &workloadResult{Why: w.why, Correct: true, EndToEnd: map[string]summary{}, PerLayer: map[string]summary{}}
		res.Workloads[w.name] = wr
		values := map[string][]float64{}
		raws := map[string][]float64{}
		units := map[string]string{}
		note := func(rec *record) {
			h.printRecord(rec)
			wr.Attempted += rec.Attempted
			wr.Failed += rec.Failed
			wr.Correct = wr.Correct && rec.Correct
			wr.Problems = append(wr.Problems, rec.Problems...)
			wr.CalibMs = append(wr.CalibMs, median(rec.Calib))
			wr.HostDrift = wr.HostDrift || rec.calibDrifted()
		}
		for r := 0; r < runs; r++ {
			rec := h.run(w.name, seed+int64(r), false)
			note(rec)
			for name, m := range rec.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
			for name, v := range rec.Raw {
				raws[name] = append(raws[name], v)
			}
		}
		if trace {
			// The traced run's per-layer metrics replace the untraced
			// ones: they are the ledger's per-layer column.
			rec := h.run(w.name, seed, true)
			note(rec)
			for name, m := range rec.Metrics {
				if !isEndToEnd(name) {
					values[name] = []float64{m.Value}
					units[name] = m.Unit
				}
			}
			wr.TraceFile = h.traceFile(w.name)
		}
		wr.FailedShare = 1
		if wr.Correct && wr.Attempted > 0 {
			wr.FailedShare = float64(wr.Failed) / float64(wr.Attempted)
		}
		if wr.FailedShare > 0 {
			status = 1
		}
		calibMs := median(wr.CalibMs)
		for name, vs := range values {
			s := summarise(units[name], vs)
			if isEndToEnd(name) {
				if raw, ok := raws[name]; ok {
					m := median(raw)
					s.RawMedian = &m
				}
				wr.EndToEnd[name] = s
			} else {
				if cv := calibrated(s.Median, s.Unit, calibMs, h.sizes.CalibRefMs); cv != s.Median {
					s.Calibrated = &cv
				}
				wr.PerLayer[name] = s
			}
		}
		printSummary(w.name, wr)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile(outPath, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("results written to %s\n", outPath)
	return status
}

func printSummary(name string, wr *workloadResult) {
	fmt.Printf("summary %s failed_share=%g correct=%v host_drift=%v\n", name, wr.FailedShare, wr.Correct, wr.HostDrift)
	for _, m := range endToEnd {
		s, ok := wr.EndToEnd[m.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("    %-14s median %14.6g %-4s q1 %14.6g q3 %14.6g n=%d spread %.1f%% (bound %.0f%%)",
			m.name, s.Median, s.Unit, s.Q1, s.Q3, s.N, 100*spread(s.Values), 100*m.bound)
		if s.RawMedian != nil {
			line += fmt.Sprintf(" raw median %.6g", *s.RawMedian)
		}
		fmt.Println(line)
	}
}
