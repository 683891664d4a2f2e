package serve

import (
	"strings"
	"testing"

	"timr/internal/bt"
	"timr/internal/core"
	"timr/internal/dur"
	"timr/internal/temporal"
)

// prepared builds a Server over the baseline config with the durable
// store rooted at dir. Prepare is deterministic in the config seeds, so
// two calls model two OS processes over the same dataset — exactly what
// a kill -9 restart looks like.
func prepared(t *testing.T, mut func(*Config)) *Server {
	t.Helper()
	cfg := testConfig()
	if mut != nil {
		mut(&cfg)
	}
	srv, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestDurableServeRestartBitIdentity(t *testing.T) {
	// Reference: one uninterrupted run without durability.
	_, want, err := prepared(t, nil).Run()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	durable := func(c *Config) { c.DurDir = dir }

	// Process one: killed mid-run, well past the first committed waves.
	if _, err := prepared(t, durable).RunKilled(700); err != nil {
		t.Fatal(err)
	}

	// Process two: same Prepare, same DurDir — resumes and finishes.
	rep, got, err := prepared(t, durable).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resumed {
		t.Fatal("restarted run did not recover the durable generation")
	}
	if rep.CommitFailures != 0 {
		t.Fatalf("a clean disk failed %d wave commits", rep.CommitFailures)
	}
	// The resume re-feeds from the last committed wave (just before the
	// kill at 700) to the end; the committed prefix must be skipped.
	if rep.Requests >= 1500 || rep.Requests < 1500-700 {
		t.Fatalf("resume re-fed %d of 1500 requests; want the post-wave tail only", rep.Requests)
	}
	if !temporal.EventsEqual(got, want) {
		t.Fatalf("restarted serving diverges: %d vs %d events", len(got), len(want))
	}
}

func TestDurableServeKillBeforeAnyWave(t *testing.T) {
	// A kill before the first wave leaves the store empty: the restart
	// is a clean start (nothing to resume) and still bit-identical.
	_, want, err := prepared(t, nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	durable := func(c *Config) { c.DurDir = dir }
	if _, err := prepared(t, durable).RunKilled(3); err != nil {
		t.Fatal(err)
	}
	rep, got, err := prepared(t, durable).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed {
		t.Fatal("no generation was committed, yet the run claims a resume")
	}
	if !temporal.EventsEqual(got, want) {
		t.Fatalf("clean restart diverges: %d vs %d events", len(got), len(want))
	}
}

func TestDurableServeRestartUnderInjectedFaults(t *testing.T) {
	// The same drill through a faulty disk. Commit failures cost only
	// recovery freshness (an older generation, a longer replay — or a
	// clean start if nothing committed), never output fidelity.
	_, want, err := prepared(t, nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	faulty := func(seed int64) func(*Config) {
		return func(c *Config) {
			c.DurDir = dir
			c.DurFS = dur.NewFaultFS(dur.OS{}, dur.FaultConfig{Rate: 0.2, Seed: seed})
		}
	}
	if _, err := prepared(t, faulty(11)).RunKilled(700); err != nil {
		t.Fatal(err)
	}
	srv := prepared(t, faulty(12))
	rep, got, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !temporal.EventsEqual(got, want) {
		t.Fatalf("faulty-disk restart diverges: %d vs %d events", len(got), len(want))
	}
	if failed := commitFailures(t, srv); int64(rep.CommitFailures) != failed {
		t.Fatalf("report counts %d failed commits, the store's serve.dur.commit_failures %d", rep.CommitFailures, failed)
	}

	// A disk that refuses most writes: retries run out, commits fail, and
	// the report counts each one the store counted.
	dir = t.TempDir()
	srv = prepared(t, func(c *Config) {
		c.DurDir = dir
		c.DurFS = dur.NewFaultFS(dur.OS{}, dur.FaultConfig{Rate: 0.8, Seed: 13, Kinds: []string{dur.FaultENOSPC}})
	})
	if rep, _, err = srv.Run(); err != nil {
		t.Fatal(err)
	}
	if failed := commitFailures(t, srv); failed == 0 || int64(rep.CommitFailures) != failed {
		t.Fatalf("report counts %d failed commits, the store's serve.dur.commit_failures %d (want equal and nonzero)", rep.CommitFailures, failed)
	}
}

// commitFailures reads the durable store's commit_failures counter from
// srv's metric scope.
func commitFailures(t *testing.T, srv *Server) int64 {
	t.Helper()
	for _, p := range srv.cfg.Obs.Snapshot() {
		if p.Scope == "serve.dur" && p.Name == "commit_failures" {
			return p.Value
		}
	}
	t.Fatal("no serve.dur.commit_failures counter")
	return 0
}

func TestDurableServePacedKillAndResume(t *testing.T) {
	// Kill -9 in paced mode must not wedge the generator goroutine, and
	// the paced resume walks the same schedule to the same bytes.
	paced := func(c *Config) {
		c.Requests = 300
		c.Rate = 50_000
	}
	_, want, err := prepared(t, paced).Run()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	durable := func(c *Config) { paced(c); c.DurDir = dir }
	if _, err := prepared(t, durable).RunKilled(150); err != nil {
		t.Fatal(err)
	}
	_, got, err := prepared(t, durable).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !temporal.EventsEqual(got, want) {
		t.Fatalf("paced restart diverges: %d vs %d events", len(got), len(want))
	}
}

func TestDurableServeRefusesGenerationWithoutOffsets(t *testing.T) {
	// Run publishes the input offset before every wave, so a generation
	// without one was not written by serve; there is no position to seek
	// to, and resuming from the start would re-feed committed input.
	dir := t.TempDir()
	srv := prepared(t, func(c *Config) { c.DurDir = dir })
	store, err := dur.OpenStore(dir, dur.Options{})
	if err != nil {
		t.Fatal(err)
	}
	job, err := core.NewStreamingJob(bt.ScorePlan(srv.params, true),
		map[string]*temporal.Schema{bt.SourceReduced: bt.TrainSchema, bt.SourceModels: bt.ModelSchema},
		core.WithMachines(srv.cfg.Machines), core.WithDurable(store))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Advance(srv.cfg.Load.Start + 1); err != nil {
		t.Fatal(err)
	}
	_, _, err = srv.Run()
	if err == nil || !strings.Contains(err.Error(), "written without input offsets; cannot resume") || !strings.Contains(err.Error(), dir) {
		t.Fatalf("Run on an offset-less generation: err = %v, want the named refusal", err)
	}
}
