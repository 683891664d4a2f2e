package experiments

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"timr/internal/baseline"
	"timr/internal/bt"
	"timr/internal/core"
	"timr/internal/mapreduce"
	"timr/internal/workload"
)

// repoRoot locates the repository root from this source file's path, so
// the LoC measurement reads the actual code being compared.
func repoRoot() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "."
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// countCodeLines counts non-blank, non-comment lines of a Go file — the
// proxy for development effort (the paper uses "lines (semicolons) of
// code").
func countCodeLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	inBlock := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if inBlock {
			if strings.Contains(line, "*/") {
				inBlock = false
			}
			continue
		}
		switch {
		case line == "", strings.HasPrefix(line, "//"):
		case strings.HasPrefix(line, "/*"):
			inBlock = !strings.Contains(line, "*/")
		default:
			n++
		}
	}
	return n, sc.Err()
}

// Fig14 reproduces both halves of the paper's Figure 14: development
// effort (queries / LoC) and end-to-end BT processing time for the
// hand-written custom pipeline vs TiMR on the same simulated cluster.
func Fig14(c *Context) (*Table, error) {
	root := repoRoot()
	queryLoC, err := countCodeLines(filepath.Join(root, "internal", "bt", "plans.go"))
	if err != nil {
		return nil, err
	}
	customLoC := 0
	for _, f := range []string{"custom.go", "customjob.go"} {
		n, err := countCodeLines(filepath.Join(root, "internal", "baseline", f))
		if err != nil {
			return nil, err
		}
		customLoC += n
	}

	// ---- Processing time on the same data and cluster size ----
	data := workload.Generate(c.Opt.Workload)
	p := c.Opt.Params
	cp := baseline.CustomParams{
		T1: p.T1, T2: p.T2, BotHop: p.BotHop, Tau: p.Tau, D: p.D,
		TrainPeriod: p.TrainPeriod, ZThreshold: p.ZThreshold, ModelEpochs: p.ModelEpochs,
	}

	runTiMR := func() (time.Duration, time.Duration, error) {
		cl := mapreduce.NewCluster(clusterConfig(c.Opt.Machines))
		tm := core.New(cl, core.DefaultConfig())
		cl.FS.Write("events", mapreduce.SinglePartition(workload.UnifiedSchema(), data.Rows))
		pipe := bt.NewPipeline(p, tm)
		start := time.Now()
		if err := pipe.Run("events"); err != nil {
			return 0, 0, err
		}
		wall := time.Since(start)
		var makespan time.Duration
		for _, ph := range pipe.Phases {
			makespan += ph.Stat.Makespan(c.Opt.Machines, cl.Cfg.ShufflePerRow)
		}
		return wall, makespan, nil
	}
	runCustom := func() (time.Duration, time.Duration, error) {
		cl := mapreduce.NewCluster(clusterConfig(c.Opt.Machines))
		cl.FS.Write("events", mapreduce.SinglePartition(workload.UnifiedSchema(), data.Rows))
		start := time.Now()
		stat, err := baseline.CustomBTJob(cl, "events", cp)
		if err != nil {
			return 0, 0, err
		}
		return time.Since(start), stat.Makespan(c.Opt.Machines, cl.Cfg.ShufflePerRow), nil
	}

	timrWall, timrSpan, err := runTiMR()
	if err != nil {
		return nil, err
	}
	customWall, customSpan, err := runCustom()
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  "Figure 14: development effort and processing time (custom vs TiMR)",
		Header: []string{"solution", "queries", "LoC", "wall time", "cluster makespan"},
	}
	t.AddRow("Custom reducers", "-", fi(int64(customLoC)), customWall.Round(time.Millisecond).String(), customSpan.Round(time.Microsecond).String())
	t.AddRow("TiMR", fi(int64(len(bt.QueryInventory()))), fi(int64(queryLoC)), timrWall.Round(time.Millisecond).String(), timrSpan.Round(time.Microsecond).String())
	overhead := float64(timrSpan)/float64(customSpan) - 1
	t.AddNote("paper: 20 temporal queries vs 360 LoC custom; TiMR 4.07h vs custom 3.73h (<10%% overhead)")
	t.AddNote("measured TiMR makespan overhead vs custom: %+.1f%%", overhead*100)
	t.AddNote("LoC counted from internal/bt/plans.go (queries) and internal/baseline/custom*.go (custom)")
	t.AddNote(fmt.Sprintf("workload: %d rows, %d users, %d machines", len(data.Rows), c.Opt.Workload.Users, c.Opt.Machines))
	return t, nil
}
