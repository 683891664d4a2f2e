package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res resultFile
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(res.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads (not a bench result file?)", path)
	}
	return &res, nil
}

// verdict classifies the move of one end-to-end metric from a to b. A
// spread (interquartile distance over the median, either side) wider
// than the bound means the runs cannot tell a regression of that size
// from noise: unresolved, not unchanged. Worse is a median worse by more
// than the bound; better is a median better by more than a's own
// spread.
func verdict(m metricSpec, a, b summary) (string, float64) {
	if a.Median == 0 {
		return "unresolved", 0
	}
	worsening := (b.Median - a.Median) / math.Abs(a.Median)
	if m.better == higher {
		worsening = -worsening
	}
	if worsening == 0 {
		worsening = 0 // not -0, which prints as "-0.0%"
	}
	spreadA, spreadB := spread(a.Values), spread(b.Values)
	switch {
	case worsening > m.bound:
		return "worse", worsening
	case math.Max(spreadA, spreadB) > m.bound:
		return "unresolved", worsening
	case -worsening > spreadA && -worsening > 0:
		return "better", worsening
	}
	return "unchanged", worsening
}

// compareFiles prints, per workload and end-to-end metric, both
// medians and quartiles, the change, the bound and the verdict. It
// returns non-zero when any metric is worse or any workload fails a
// larger share of its operations.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, errA := loadResults(pathA)
	b, errB := loadResults(pathB)
	for _, err := range []error{errA, errB} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench -compare:", err)
			return 2
		}
	}
	return compareResults(w, a, b)
}

func compareResults(w io.Writer, a, b *resultFile) int {
	fmt.Fprintf(w, "A: git=%s dirty=%v %s cpu=%q seed=%d runs=%d\n", a.Host.GitSHA, a.Host.GitDirty, a.Host.GoVersion, a.Host.CPUModel, a.Seed, a.Runs)
	fmt.Fprintf(w, "B: git=%s dirty=%v %s cpu=%q seed=%d runs=%d\n", b.Host.GitSHA, b.Host.GitDirty, b.Host.GoVersion, b.Host.CPUModel, b.Seed, b.Runs)
	if a.Seed != b.Seed || a.Seconds != b.Seconds || a.Runs != b.Runs {
		fmt.Fprintln(w, "warning: the two files were not measured with the same seed, run length and run count")
	}
	status := 0
	for _, spec := range workloads {
		wa, wb := a.Workloads[spec.name], b.Workloads[spec.name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%s: missing from one file\n", spec.name)
			status = 1
			continue
		}
		fmt.Fprintf(w, "%s: failed_share %g -> %g", spec.name, wa.FailedShare, wb.FailedShare)
		if wb.FailedShare > wa.FailedShare {
			fmt.Fprint(w, "  WORSE")
			status = 1
		}
		if wa.HostDrift || wb.HostDrift {
			fmt.Fprint(w, "  (host calibration drifted >15% during a run)")
		}
		fmt.Fprintln(w)
		for _, m := range endToEnd {
			sa, okA := wa.EndToEnd[m.name]
			sb, okB := wb.EndToEnd[m.name]
			if !okA || !okB {
				fmt.Fprintf(w, "  %-14s missing from one file\n", m.name)
				status = 1
				continue
			}
			v, worsening := verdict(m, sa, sb)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(w, "  %-14s A %12.6g [%.6g, %.6g]  B %12.6g [%.6g, %.6g] %-4s  worsening %+6.1f%% (bound %.0f%%)  %s\n",
				m.name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, m.unit, 100*worsening, 100*m.bound, v)
		}
	}
	return status
}
