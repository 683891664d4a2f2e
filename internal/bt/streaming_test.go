package bt

import (
	"math/rand"
	"sort"
	"testing"

	"timr/internal/core"
	"timr/internal/dur"
	"timr/internal/leakcheck"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// streamRun is one way of running a stage's annotated plan as a
// core.StreamingJob: a wave every `wave` ticks on `machines` machines,
// and with a durable store the job is killed and restored from at a
// drawn wave.
type streamRun struct {
	wave     temporal.Time
	machines int
	restore  bool
}

// sourceSchemas returns the schema of every raw source of an annotated
// plan, read off its fragments' inputs.
func sourceSchemas(t *testing.T, plan *temporal.Plan, inputs map[string]string) map[string]*temporal.Schema {
	t.Helper()
	frags, err := core.MakeFragments(plan, inputs, "out")
	if err != nil {
		t.Fatal(err)
	}
	schemas := map[string]*temporal.Schema{}
	for _, f := range frags {
		for _, in := range f.Inputs {
			if !in.Intermediate {
				schemas[in.ScanName] = in.Schema
			}
		}
	}
	return schemas
}

// runStage runs one stage as a streaming job over its inputs (keyed by
// source name) and returns its coalesced output. Each wave feeds every
// source's events below the wave's end, sources in name order, then
// punctuates there.
func (sr streamRun) runStage(t *testing.T, p Params, st StageSpec, inputs map[string][]temporal.Event, rng *rand.Rand) []temporal.Event {
	t.Helper()
	plan := st.Plan(p, true)
	schemas := sourceSchemas(t, plan, st.Inputs)
	names := make([]string, 0, len(schemas))
	first := temporal.Time(temporal.MaxTime)
	var last temporal.Time
	for name := range schemas {
		names = append(names, name)
		if evs := inputs[name]; len(evs) > 0 {
			first, last = min(first, evs[0].LE), max(last, evs[len(evs)-1].LE)
		}
	}
	sort.Strings(names)
	opts := []core.StreamOption{core.WithMachines(sr.machines)}
	var store *dur.Store
	if sr.restore {
		var err error
		if store, err = dur.OpenStore(t.TempDir(), dur.Options{}); err != nil {
			t.Fatal(err)
		}
		opts = append(opts, core.WithDurable(store))
	}
	job, err := core.NewStreamingJob(plan, schemas, opts...)
	if err != nil {
		t.Fatal(err)
	}
	killAt := -1 // the wave after which the job is killed
	if sr.restore && last > first {
		killAt = rng.Intn(int((last-first)/sr.wave) + 1)
	}
	pos := map[string]int{}
	wave := 0
	for end := first + sr.wave; len(names) > 0 && first <= last; end += sr.wave {
		for _, name := range names {
			evs, i := inputs[name], pos[name]
			j := i + sort.Search(len(evs)-i, func(k int) bool { return evs[i+k].LE >= end })
			src, err := job.Source(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := src.FeedBatch(evs[i:j]); err != nil {
				t.Fatal(err)
			}
			pos[name] = j
		}
		if err := job.Advance(end); err != nil {
			t.Fatal(err)
		}
		if wave == killAt {
			// Killed after the wave's commit: everything fed since lives in
			// the generation, and feeding resumes after its wave.
			if job, err = core.NewStreamingJob(plan, schemas, opts...); err != nil {
				t.Fatalf("%s: restore at wave %d: %v", st.Name, wave, err)
			}
			if g := job.Recovered(); g == nil || g.Wave != end {
				t.Fatalf("%s: restore at wave %d: generation %v", st.Name, wave, g)
			}
		}
		wave++
		if end > last {
			break
		}
	}
	job.Flush()
	out, err := job.Results()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// The whole BT DAG runs live as well as in batch: each of the seven
// stages' annotated plans, run as a StreamingJob, delivers exactly the
// single-node output. Each stage runs both isolated (fed the single-node
// outputs) and chained (fed the previous streaming jobs' outputs), at
// several wave lengths and machine counts, and killed and restored from
// its durable store at a drawn wave.
func TestPipelineOnStreamingMatchesSingleNode(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	d := workload.Generate(workload.Config{
		Users: 150, Keywords: 300, AdClasses: 3, Days: 2, Seed: 11,
		BotFraction: 0.02,
	})
	p := DefaultParams()
	p.T1, p.T2 = 30, 60
	p.TrainPeriod = 12 * temporal.Hour
	want, err := RunSingleNode(p, d.Events())
	if err != nil {
		t.Fatal(err)
	}
	want[DSEvents] = d.Events()
	if len(want[DSPredictions]) == 0 {
		t.Fatal("the workload scores nothing; every stage must have output to compare")
	}

	var runs []streamRun
	for _, wave := range []temporal.Time{temporal.Hour, 6 * temporal.Hour, temporal.Day} {
		for _, machines := range []int{1, 4} {
			runs = append(runs, streamRun{wave: wave, machines: machines})
		}
	}
	runs = append(runs, streamRun{wave: 6 * temporal.Hour, machines: 4, restore: true})
	rng := rand.New(rand.NewSource(11))
	for _, sr := range runs {
		chained := map[string][]temporal.Event{DSEvents: want[DSEvents]}
		for _, st := range Stages(false) {
			for _, mode := range []string{"isolated", "chained"} {
				from := want
				if mode == "chained" {
					from = chained
				}
				inputs := map[string][]temporal.Event{}
				for src, ds := range st.Inputs {
					inputs[src] = from[ds]
				}
				got := sr.runStage(t, p, st, inputs, rng)
				if !temporal.EventsEqual(got, want[st.Output]) {
					t.Fatalf("%+v %s %s: %d events, single node %d", sr, mode, st.Name, len(got), len(want[st.Output]))
				}
				chained[st.Output] = got
			}
		}
	}
}
