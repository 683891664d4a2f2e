package core

import (
	"fmt"
	"sort"
)

// Elastic placement for streaming jobs.
//
// The shard space is fixed at plan time — hash modulo for column-keyed
// fragments, span ids for temporal ones — so routing never changes (the
// Flink key-group idea). What moves is *placement*: each stage assigns
// its shards to workers, and the rebalance policy splits a hot worker or
// merges a cold one by migrating shards between them. A migration is a
// checkpoint transfer: the shard's engine snapshot makes a real byte
// round-trip and the engine is rebuilt from the copy plus the replay
// log — exactly the crash-recovery reconstruction of PR 4, whose
// wave-alignment argument (engines consume input only during Advance, so
// checkpoint+log reconstruct a shard exactly at any moment) therefore
// guarantees a migrated shard resumes bit-identically, even mid-wave and
// even interleaved with injected crashes.

// streamWorker is one placement slot of a stage: a set of shards served
// together. Workers carry no execution state of their own — shards own
// their engines — so worker membership is pure bookkeeping, which is
// precisely what makes migration cheap to reason about.
type streamWorker struct {
	id     int
	shards []int // sorted shard ids
}

// RebalanceConfig tunes the per-wave elastic placement policy enabled by
// WithRebalance. The thresholds are capacities — events admitted per
// punctuation wave per worker — so the policy scales workers to the
// offered load: splits absorb hot partitions, merges retire idle ones.
// Zero fields take the documented defaults.
type RebalanceConfig struct {
	// SplitAbove splits a worker that admitted more than this many
	// events in the last wave (and has ≥ 2 shards to give away).
	// Default 4096.
	SplitAbove int
	// MergeBelow retires a worker that admitted fewer than this many
	// events in the last wave, moving its shards to the least loaded
	// sibling — but only when the combined pair stays under SplitAbove,
	// so a merge cannot immediately re-trigger a split. Default
	// SplitAbove/8.
	MergeBelow int
	// MaxWorkers bounds workers per stage. Default: the job's machine
	// count.
	MaxWorkers int
}

func defaultRebalance(rc *RebalanceConfig, machines int) RebalanceConfig {
	out := RebalanceConfig{}
	if rc != nil {
		out = *rc
	}
	if out.SplitAbove <= 0 {
		out.SplitAbove = 4096
	}
	if out.MergeBelow <= 0 {
		out.MergeBelow = out.SplitAbove / 8
	}
	if out.MaxWorkers <= 0 {
		out.MaxWorkers = machines
	}
	return out
}

// Migration records one completed shard transfer, for tests and serve
// reporting.
type Migration struct {
	Frag   string // stage (fragment) name
	Kind   string // "split", "merge", or "force"
	From   int    // source worker id
	To     int    // destination worker id
	Shards []int  // shard ids moved
	Bytes  int    // checkpoint bytes transferred
}

// Migrations returns every shard transfer performed so far, in order.
func (j *StreamingJob) Migrations() []Migration {
	return append([]Migration(nil), j.migs...)
}

// Workers reports the current worker count per stage.
func (j *StreamingJob) Workers() map[string]int {
	out := make(map[string]int, len(j.stages))
	for _, st := range j.stages {
		out[st.frag.Name] = len(st.workers)
	}
	return out
}

// Partitions reports the current shard count per stage.
func (j *StreamingJob) Partitions() map[string]int {
	out := make(map[string]int, len(j.stages))
	for _, st := range j.stages {
		out[st.frag.Name] = len(st.parts)
	}
	return out
}

// ForceSplit immediately splits the named stage's most loaded worker,
// regardless of policy thresholds (tests and operational tooling). It is
// legal at any moment — mid-wave, between waves, with crashes armed.
func (j *StreamingJob) ForceSplit(frag string) error {
	if j.flushed {
		return ErrFlushed
	}
	st, err := j.stageByName(frag)
	if err != nil {
		return err
	}
	w := st.hottestWorker()
	if w == nil || len(w.shards) < 2 {
		return fmt.Errorf("timr: stage %s has no splittable worker", frag)
	}
	st.split(w, "force")
	return nil
}

// ForceMerge immediately retires the named stage's least loaded worker,
// moving its shards to the lightest sibling.
func (j *StreamingJob) ForceMerge(frag string) error {
	if j.flushed {
		return ErrFlushed
	}
	st, err := j.stageByName(frag)
	if err != nil {
		return err
	}
	if len(st.workers) < 2 {
		return fmt.Errorf("timr: stage %s has a single worker, nothing to merge", frag)
	}
	st.merge(st.coldestWorker(), "force")
	return nil
}

func (j *StreamingJob) stageByName(frag string) (*streamStage, error) {
	for _, st := range j.stages {
		if st.frag.Name == frag {
			return st, nil
		}
	}
	return nil, fmt.Errorf("timr: no streaming stage %q", frag)
}

// ---- placement ----

// place assigns a freshly created shard to the least loaded existing
// worker (fewest shards, ties to the lowest id) — deterministic, so two
// runs of the same feed sequence build identical placements.
func (st *streamStage) place(shard int) {
	if len(st.workers) == 0 {
		st.workers = append(st.workers, &streamWorker{id: st.nextWorker})
		st.nextWorker++
	}
	w := st.workers[0]
	for _, c := range st.workers[1:] {
		if len(c.shards) < len(w.shards) || (len(c.shards) == len(w.shards) && c.id < w.id) {
			w = c
		}
	}
	w.shards = insertSorted(w.shards, shard)
	st.assign[shard] = w.id
	st.workersG.Set(int64(len(st.workers)))
}

// shardLoad is the shard's events admitted since the last load capture:
// the last full wave plus the current interval so far — live enough for
// ForceSplit before the first wave, stable enough for the policy.
func (st *streamStage) shardLoad(id int) int {
	return st.lastLoad[id] + st.parts[id].pushes
}

func (st *streamStage) workerLoad(w *streamWorker) int {
	n := 0
	for _, s := range w.shards {
		n += st.shardLoad(s)
	}
	return n
}

func (st *streamStage) hottestWorker() *streamWorker {
	var best *streamWorker
	bestLoad := -1
	for _, w := range st.workers {
		if len(w.shards) < 2 {
			continue
		}
		if l := st.workerLoad(w); l > bestLoad || (l == bestLoad && best != nil && w.id < best.id) {
			best, bestLoad = w, l
		}
	}
	return best
}

func (st *streamStage) coldestWorker() *streamWorker {
	best := st.workers[0]
	bestLoad := st.workerLoad(best)
	for _, w := range st.workers[1:] {
		if l := st.workerLoad(w); l < bestLoad || (l == bestLoad && w.id < best.id) {
			best, bestLoad = w, l
		}
	}
	return best
}

// ---- migration mechanics ----

// migrate transfers a set of shards from one worker to another. Each
// shard's engine state makes a genuine byte round-trip: the checkpoint
// is copied (the "transfer"), a fresh engine is restored from the copy,
// and the replay log repopulates the barrier buffer — the same
// reconstruction a crash performs, so correctness rides on the PR 4
// invariant rather than on new machinery. Armed crash draws and push
// counts survive the move untouched: chaos and migration compose.
func (st *streamStage) migrate(from, to *streamWorker, shards []int, kind string) {
	rec := Migration{Frag: st.frag.Name, Kind: kind, From: from.id, To: to.id}
	for _, id := range shards {
		p := st.parts[id]
		ckpt := append([]byte(nil), p.ckpt...)
		if s := st.job.durStore; s != nil && len(p.ckpt) > 0 {
			// With a durable store attached, the transfer is a genuine
			// framed, checksummed disk round-trip (with the store's retry
			// supervisor). Persistent failure falls back to the in-memory
			// copy — byte-identical, so determinism is unaffected; only the
			// durability exercise is lost.
			if moved, err := s.Transfer(st.frag.Name, p.id, p.ckpt); err == nil {
				ckpt = moved
			}
		}
		p.eng = st.newEngine(p)
		if len(ckpt) > 0 {
			if err := p.eng.Restore(ckpt); err != nil {
				// Unreachable short of memory corruption: the checkpoint
				// came from an engine compiled from this same fragment root.
				panic(fmt.Sprintf("timr: shard migration failed: %v", err))
			}
			p.ckpt = ckpt
		}
		p.buf.pending = append(p.buf.pending[:0], p.log...)
		from.shards = removeSorted(from.shards, id)
		to.shards = insertSorted(to.shards, id)
		st.assign[id] = to.id
		st.migrations.Inc()
		st.migBytes.Add(int64(len(ckpt)))
		rec.Shards = append(rec.Shards, id)
		rec.Bytes += len(ckpt)
	}
	st.job.migs = append(st.job.migs, rec)
	st.workersG.Set(int64(len(st.workers)))
}

// split peels the hot half of w's shards onto a brand-new worker:
// shards are taken hottest-first until roughly half of w's load has
// moved (at least one moves, at least one stays).
func (st *streamStage) split(w *streamWorker, kind string) {
	nw := &streamWorker{id: st.nextWorker}
	st.nextWorker++
	st.workers = append(st.workers, nw)

	order := append([]int(nil), w.shards...)
	sort.Slice(order, func(a, b int) bool {
		la, lb := st.shardLoad(order[a]), st.shardLoad(order[b])
		if la != lb {
			return la > lb
		}
		return order[a] < order[b]
	})
	half, moved := st.workerLoad(w)/2, 0
	var take []int
	for _, id := range order {
		if len(take) > 0 && (moved >= half || len(take) == len(order)-1) {
			break
		}
		take = append(take, id)
		moved += st.shardLoad(id)
	}
	st.migrate(w, nw, take, kind)
}

// merge retires worker w, moving all its shards to the least loaded
// sibling.
func (st *streamStage) merge(w *streamWorker, kind string) {
	into, _ := st.lightestSibling(w)
	st.migrate(w, into, append([]int(nil), w.shards...), kind)
	for i, c := range st.workers {
		if c == w {
			st.workers = append(st.workers[:i], st.workers[i+1:]...)
			break
		}
	}
	st.workersG.Set(int64(len(st.workers)))
}

// rebalance runs the policy once, after a wave: split a worker over
// capacity, else retire one idling below the merge floor. One action per
// stage per wave keeps placement churn bounded and every step
// observable.
func (st *streamStage) rebalance() {
	rc := st.job.rebal
	if hot := st.hottestWorker(); hot != nil && len(st.workers) < rc.MaxWorkers &&
		st.workerLoad(hot) > rc.SplitAbove {
		st.split(hot, "split")
		return
	}
	if len(st.workers) < 2 {
		return
	}
	cold := st.coldestWorker()
	if st.workerLoad(cold) >= rc.MergeBelow {
		return
	}
	// Guard against oscillation: only merge when the combined pair stays
	// under the split threshold.
	lightest, load := st.lightestSibling(cold)
	if lightest != nil && st.workerLoad(cold)+load <= rc.SplitAbove {
		st.merge(cold, "merge")
	}
}

// lightestSibling returns the least loaded worker other than w (ties to
// the lowest id) — the merge destination.
func (st *streamStage) lightestSibling(w *streamWorker) (*streamWorker, int) {
	var into *streamWorker
	intoLoad := 0
	for _, c := range st.workers {
		if c == w {
			continue
		}
		if l := st.workerLoad(c); into == nil || l < intoLoad || (l == intoLoad && c.id < into.id) {
			into, intoLoad = c, l
		}
	}
	return into, intoLoad
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}
