package experiments

import (
	"fmt"
	"time"

	"timr/internal/baseline"
	"timr/internal/bt"
	"timr/internal/core"
	"timr/internal/mapreduce"
	"timr/internal/ml"
	"timr/internal/obs"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// Options scope an experiment run.
type Options struct {
	Workload workload.Config
	Params   bt.Params
	Machines int
	// Quick shrinks workloads for fast CI runs; the full configuration is
	// used by cmd/experiments and the benchmarks.
	Quick bool
	// Obs collects cluster- and engine-level metrics for the run. Every
	// experiment gets one (DefaultOptions attaches a fresh root), so
	// figures can report observed counters — e.g. retry time in the
	// failure experiment — instead of re-deriving them.
	Obs *obs.Scope
}

// DefaultOptions is the full-scale configuration: a 7-day log split into
// equal training and test halves (paper §V-A), 150 simulated machines.
func DefaultOptions() Options {
	w := workload.DefaultConfig()
	p := bt.DefaultParams()
	p.TrainPeriod = temporal.Time(w.Days) * temporal.Day / 2
	p.ZThreshold = 0 // keep all supported scores; schemes threshold later
	return Options{Workload: w, Params: p, Machines: 150, Obs: obs.New("experiment")}
}

// QuickOptions is a scaled-down configuration for tests.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Workload.Users = 1200
	o.Workload.Keywords = 600
	o.Workload.Days = 2
	o.Workload.AdClasses = 5
	// Laptop-scale support substitution (see DESIGN.md): with two orders
	// of magnitude fewer users than the paper's logs, the z-test's
	// support floor is only reachable with amplified click rates.
	o.Workload.BaseCTR = 0.18
	o.Workload.NegDamp = 0.5
	o.Workload.PosLift = 3
	o.Params.TrainPeriod = temporal.Day
	o.Machines = 8
	o.Quick = true
	return o
}

// BTRun holds the shared state most experiments start from: the generated
// log and the BT pipeline's outputs on the TiMR cluster.
type BTRun struct {
	Opt     Options
	Data    *workload.Dataset
	Cluster *mapreduce.Cluster
	TiMR    *core.TiMR
	Pipe    *bt.Pipeline

	Labeled []temporal.Row // payload rows of bt.labeled
	Train   []temporal.Row // payload rows of bt.train
	// Scores: ad -> keyword -> z, from the first training window.
	Scores map[int64]map[int64]float64
}

// clusterConfig is the paper's cluster, mapreduce.DefaultConfig, at the
// given size: every experiment cluster starts from it, so the makespans
// the experiments report charge its modeled shuffle.
func clusterConfig(machines int) mapreduce.Config {
	cfg := mapreduce.DefaultConfig()
	cfg.Machines = machines
	return cfg
}

// RunBT generates data and executes the full BT pipeline over TiMR.
func RunBT(opt Options) (*BTRun, error) {
	data := workload.Generate(opt.Workload)
	cl := mapreduce.NewCluster(clusterConfig(opt.Machines))
	cl.Obs = opt.Obs.Child("cluster")
	cfg := core.DefaultConfig()
	cfg.Obs = opt.Obs.Child("engine")
	tm := core.New(cl, cfg)
	cl.FS.Write("events", mapreduce.SinglePartition(workload.UnifiedSchema(), data.Rows))

	pipe := bt.NewPipeline(opt.Params, tm)
	if err := pipe.Run("events"); err != nil {
		return nil, err
	}
	r := &BTRun{Opt: opt, Data: data, Cluster: cl, TiMR: tm, Pipe: pipe}
	if err := r.load(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *BTRun) load() error {
	labeled, err := r.Pipe.Events(bt.DSLabeled)
	if err != nil {
		return err
	}
	train, err := r.Pipe.Events(bt.DSTrain)
	if err != nil {
		return err
	}
	scores, err := r.Pipe.Events(bt.DSScores)
	if err != nil {
		return err
	}
	for _, e := range labeled {
		r.Labeled = append(r.Labeled, e.Payload)
	}
	for _, e := range train {
		r.Train = append(r.Train, e.Payload)
	}
	r.Scores = make(map[int64]map[int64]float64)
	period := int64(r.Opt.Params.TrainPeriod)
	for _, e := range scores {
		// Keep scores learned from the first training window only (they
		// are valid during the second window: LE/period == 1).
		if e.LE/period != 1 {
			continue
		}
		ad, kw, z := e.Payload[0].AsInt(), e.Payload[1].AsInt(), e.Payload[2].AsFloat()
		m := r.Scores[ad]
		if m == nil {
			m = make(map[int64]float64)
			r.Scores[ad] = m
		}
		m[kw] = z
	}
	return nil
}

// splitRows partitions rows into before/after the training period
// boundary using the Time column at position timeCol.
func splitRows(rows []temporal.Row, boundary temporal.Time, timeCol int) (before, after []temporal.Row) {
	for _, r := range rows {
		if r[timeCol].AsInt() < int64(boundary) {
			before = append(before, r)
		} else {
			after = append(after, r)
		}
	}
	return before, after
}

// filterAd keeps rows of one ad (column adCol).
func filterAd(rows []temporal.Row, adID int64, adCol int) []temporal.Row {
	var out []temporal.Row
	for _, r := range rows {
		if r[adCol].AsInt() == adID {
			out = append(out, r)
		}
	}
	return out
}

// AdExamples assembles per-impression examples for one ad, split into
// training (first period) and test (second period) sets, including
// empty-profile impressions.
func (r *BTRun) AdExamples(adID int64) (train, test []ml.Example) {
	boundary := r.Opt.Params.TrainPeriod
	labTrain, labTest := splitRows(filterAd(r.Labeled, adID, 2), boundary, 0)
	rowTrain, rowTest := splitRows(filterAd(r.Train, adID, 2), boundary, 0)

	train = bt.RowsToExamples(rowTrain)
	train = bt.AddEmptyExamples(train, labTrain, rowTrain, adID)
	test = bt.RowsToExamples(rowTest)
	test = bt.AddEmptyExamples(test, labTest, rowTest, adID)
	return train, test
}

// Popularity tallies KE-pop's selection signal over the first-period
// training rows: "the most popular keywords in terms of total ad clicks
// or rejects with that keyword in the user history" (Chen et al. [7]) —
// a global frequency ranking, which is exactly why it retains
// google/facebook/msn-style head keywords that predict nothing (§V-C).
func (r *BTRun) Popularity() map[int64]int64 {
	rows, _ := splitRows(r.Train, r.Opt.Params.TrainPeriod, 0)
	pop := make(map[int64]int64)
	for _, row := range rows {
		pop[row[4].AsInt()]++
	}
	return pop
}

// SchemeResult summarizes one data-reduction scheme on one ad class.
type SchemeResult struct {
	Scheme     string
	Dims       int
	AvgUBPSize float64 // average retained entries per training example
	TrainTime  time.Duration
	Curve      []ml.LiftPoint
	Area       float64
}

// EvaluateScheme trains an LR model on scheme-transformed training
// examples (with an 80/20 fit/calibration split), scores the test set and
// computes the lift/coverage curve (paper §V-D).
func EvaluateScheme(s baseline.Scheme, trainEx, testEx []ml.Example, epochs int) SchemeResult {
	res := SchemeResult{Scheme: s.Name(), Dims: s.Dims()}
	txTrain := baseline.TransformExamples(s, trainEx)
	txTest := baseline.TransformExamples(s, testEx)

	var entries int
	for _, e := range txTrain {
		entries += len(e.Features)
	}
	if len(txTrain) > 0 {
		res.AvgUBPSize = float64(entries) / float64(len(txTrain))
	}

	// Deterministic 80/20 interleaved split for fit vs calibration.
	var fit, val []ml.Example
	for i, e := range txTrain {
		if i%5 == 4 {
			val = append(val, e)
		} else {
			fit = append(fit, e)
		}
	}
	start := time.Now()
	model := ml.TrainLR(fit, epochs)
	res.TrainTime = time.Since(start)

	valPreds := make([]float64, len(val))
	valLabels := make([]bool, len(val))
	for i, e := range val {
		valPreds[i] = model.Predict(e.Features)
		valLabels[i] = e.Clicked
	}
	cal := ml.NewCalibrator(valPreds, valLabels, 50)

	preds := make([]float64, len(txTest))
	labels := make([]bool, len(txTest))
	for i, e := range txTest {
		preds[i] = cal.CTR(model.Predict(e.Features))
		labels[i] = e.Clicked
	}
	res.Curve = ml.LiftCoverageCurve(preds, labels, 20)
	res.Area = ml.CurveArea(res.Curve)
	return res
}

// adOrFail resolves a named ad class.
func (r *BTRun) adOrFail(name string) (workload.AdClass, error) {
	ad, ok := r.Data.AdByName(name)
	if !ok {
		return workload.AdClass{}, fmt.Errorf("experiments: no ad class %q", name)
	}
	return ad, nil
}
