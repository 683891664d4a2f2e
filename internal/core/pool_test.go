package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"timr/internal/dur"
	"timr/internal/leakcheck"
	"timr/internal/obs"
	"timr/internal/temporal"
)

// chainedPlan is a two-fragment chained plan (UserId exchange, then C
// exchange), so a wave crosses inter-stage routing, not just a single
// barrier.
func chainedPlan() *temporal.Plan {
	perUser := temporal.Scan("clicks", clickSchema()).
		Exchange(temporal.PartitionBy{Cols: []string{"UserId"}}).
		GroupApply([]string{"UserId"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(30).Count("C")
		}).ToPoint()
	return perUser.Exchange(temporal.PartitionBy{Cols: []string{"C"}}).
		GroupApply([]string{"C"}, func(g *temporal.Plan) *temporal.Plan {
			return g.WithWindow(50).Count("N")
		})
}

func chainedEvents() []temporal.Event {
	var events []temporal.Event
	tm := temporal.Time(0)
	for i := 0; i < 900; i++ {
		tm += temporal.Time(i % 3)
		events = append(events, temporal.PointEvent(tm, temporal.Row{
			temporal.Int(int64(tm)), temporal.Int(int64(i % 17)), temporal.Int(int64(i % 5)),
		}))
	}
	return events
}

// driveChained feeds chainedEvents to chainedPlan on four machines with a
// punctuation wave every 20 ticks, calling hook(job, waveNo) after each
// wave. No goroutine may outlive the run.
func driveChained(t *testing.T, cfg Config, hook func(*StreamingJob, int), opts ...StreamOption) []temporal.Event {
	t.Helper()
	defer leakcheck.Goroutines(t)()
	opts = append([]StreamOption{WithMachines(4), WithConfig(cfg)}, opts...)
	job, err := NewStreamingJob(chainedPlan(),
		map[string]*temporal.Schema{"clicks": clickSchema()}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	clicks, err := job.Source("clicks")
	if err != nil {
		t.Fatal(err)
	}
	const period = 20
	last, wave := temporal.Time(temporal.MinTime), 0
	for _, e := range chainedEvents() {
		if last == temporal.MinTime {
			last = e.LE
		} else if e.LE-last >= period {
			if err := job.Advance(e.LE); err != nil {
				t.Fatal(err)
			}
			last = e.LE
			wave++
			hook(job, wave)
		}
		if err := clicks.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	job.Flush()
	res, err := job.Results()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sumCounter(sc *obs.Scope, name string) int64 {
	var n int64
	for _, p := range sc.Snapshot() {
		if p.Name == name {
			n += p.Value
		}
	}
	return n
}

// poolRun is everything one drive of the wave-pool differential observed.
type poolRun struct {
	results   []temporal.Event
	delivered []temporal.Event // WithOnEvent, in delivery order
	waves     [][]byte         // per wave: every partition's checkpoint and replay log
	gens      map[string][]byte
	metrics   []obs.Point
}

// waveState encodes every partition's recovery state, stage by stage in
// job order and partition by partition in id order.
func waveState(j *StreamingJob) []byte {
	var w temporal.Encoder
	for _, st := range j.stages {
		for _, p := range st.parts {
			w.String(st.frag.Name)
			w.Varint(int64(p.id))
			w.BytesField(p.ckpt)
			for _, log := range p.buf.logs {
				w.Events(log)
			}
		}
	}
	return w.Bytes()
}

// drivePool runs the chained two-stage plan on four machines with a
// durable store, at the given GOMAXPROCS. No goroutine may outlive a wave
// or the flush.
func drivePool(t *testing.T, procs int) poolRun {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var r poolRun
	dir := t.TempDir()
	store, err := dur.OpenStore(dir, dur.Options{Keep: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	scope := obs.New("pool")
	cfg := DefaultConfig()
	cfg.Obs = scope
	settled := leakcheck.Goroutines(t)
	hook := func(j *StreamingJob, wave int) {
		settled()
		r.waves = append(r.waves, waveState(j))
		if parts := j.Partitions(); wave == 4 && parts["frag0"]+parts["frag1"] < 6 {
			t.Fatalf("partitions %v; the pool needs several per stage to have work to share", parts)
		}
	}
	r.results = driveChained(t, cfg, hook, WithDurable(store),
		WithOnEvent(func(e temporal.Event) { r.delivered = append(r.delivered, e) }))
	settled()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.gens = make(map[string][]byte)
	for _, n := range names {
		if r.gens[n.Name()], err = os.ReadFile(filepath.Join(dir, n.Name())); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range scope.Snapshot() {
		// groups_live is last-writer-wins across a stage's partitions; it
		// is the one reading that depends on which goroutine finishes last.
		if p.Name != "groups_live" {
			r.metrics = append(r.metrics, p)
		}
	}
	return r
}

// TestWavePoolInvisible: a wave runs its partitions on as many goroutines
// as GOMAXPROCS allows, and routes their output afterwards in the order a
// single goroutine would. So one P and four must agree on every byte: the
// results and their delivery order, each wave's checkpoints and replay
// logs, every committed durable generation, the metrics.
func TestWavePoolInvisible(t *testing.T) {
	one, four := drivePool(t, 1), drivePool(t, 4)
	if !temporal.EventsEqual(one.results, four.results) {
		t.Fatalf("results differ: %d vs %d events", len(one.results), len(four.results))
	}
	if !temporal.EventsEqual(one.delivered, four.delivered) {
		t.Fatalf("delivery order differs: %d vs %d events", len(one.delivered), len(four.delivered))
	}
	if len(one.waves) != len(four.waves) || len(one.waves) < 20 {
		t.Fatalf("%d vs %d waves", len(one.waves), len(four.waves))
	}
	for i := range one.waves {
		if !bytes.Equal(one.waves[i], four.waves[i]) {
			t.Fatalf("wave %d: partition checkpoints or replay logs differ", i+1)
		}
	}
	if len(one.gens) != len(four.gens) || len(one.gens) < len(one.waves) {
		t.Fatalf("%d vs %d store files for %d waves", len(one.gens), len(four.gens), len(one.waves))
	}
	for name, b := range one.gens {
		if !bytes.Equal(b, four.gens[name]) {
			t.Fatalf("committed %s differs", name)
		}
	}
	if !reflect.DeepEqual(one.metrics, four.metrics) {
		t.Fatalf("metrics differ:\n%v\n%v", one.metrics, four.metrics)
	}
}

// TestOnlyDurableJobsCheckpoint: a partition's engine checkpoint exists
// for a durable generation to record, so a job without a store takes
// none over all its waves, and a durable job one per partition per wave.
func TestOnlyDurableJobsCheckpoint(t *testing.T) {
	for _, durable := range []bool{false, true} {
		scope := obs.New("ckpt")
		cfg := DefaultConfig()
		cfg.Obs = scope
		var opts []StreamOption
		if durable {
			store, err := dur.OpenStore(t.TempDir(), dur.Options{})
			if err != nil {
				t.Fatal(err)
			}
			opts = append(opts, WithDurable(store))
		}
		waves, taken := 0, 0
		driveChained(t, cfg, func(j *StreamingJob, _ int) {
			waves++
			for _, st := range j.stages {
				for _, p := range st.parts {
					if p.ckpt != nil {
						taken++
					}
				}
			}
		}, opts...)
		ckptBytes := sumCounter(scope, "checkpoint_bytes")
		switch {
		case waves < 20:
			t.Fatalf("durable %v: %d waves", durable, waves)
		case !durable && (ckptBytes != 0 || taken != 0):
			t.Fatalf("a job without a store took %d partition checkpoints, %d B", taken, ckptBytes)
		case durable && (ckptBytes == 0 || taken == 0):
			t.Fatalf("a durable job took %d partition checkpoints, %d B over %d waves", taken, ckptBytes, waves)
		}
	}
}
