package core

import (
	"fmt"
	"sort"

	"timr/internal/dur"
	"timr/internal/temporal"
)

// Durable restart for streaming jobs.
//
// The in-memory crash path (streaming.go crash()) already proves the
// core invariant: engines consume input only during Advance, so at the
// end of a wave every partition's checkpoint plus its replay log — which
// at that moment equals its barrier's pending events — reconstruct the
// partition exactly. Durability is that same cut, written down: one
// store generation per wave carries every partition's (checkpoint,
// log), the delivered results, and the output barrier's pending events.
// A process killed at any instant restarts from the newest intact
// generation, and the driver re-feeds everything its sources admitted
// after that wave (the replay log inside the generation covers the rest)
// — producing bit-identical output, including under injected I/O faults
// that force a fallback to an older generation with a longer replay.

// commitDurable snapshots the job at the end of the wave at time t and
// commits it as one generation. Called from Advance with the wave fully
// applied: every partition's ckpt/log are fresh, j.waves counts this
// wave, and j.results/j.out.pending reflect everything released. Commit
// failure is tolerated — counted by the store, remembered in durErr —
// because the previous generation remains a correct (if older) recovery
// line, costing only extended replay.
func (j *StreamingJob) commitDurable(t temporal.Time) {
	snap := &dur.Snapshot{
		Wave:     t,
		Waves:    j.waves,
		Machines: j.machines,
		Results:  j.results,
		Pending:  j.out.pending,
	}
	for _, st := range j.stages {
		for _, p := range st.sortedParts() {
			snap.Parts = append(snap.Parts, dur.PartitionState{
				Frag: st.frag.Name, Part: p.id, Ckpt: p.ckpt, Log: p.log,
			})
		}
	}
	var srcNames []string
	for name, f := range j.feeders {
		if _, ok := f.Position(); ok {
			srcNames = append(srcNames, name)
		}
	}
	sort.Strings(srcNames)
	for _, name := range srcNames {
		pos, _ := j.feeders[name].Position()
		snap.Offsets = append(snap.Offsets, dur.SourceOffset{Name: name, Pos: pos})
	}
	j.durErr = j.durStore.Commit(snap)
}

// DurableErr returns the most recent durable-commit error (nil after a
// successful wave commit). Commit failures never fail the wave; this is
// how callers observe that the recovery line has fallen behind.
func (j *StreamingJob) DurableErr() error { return j.durErr }

// RestoreFromDir reopens a streaming job from its durable store: the
// newest intact generation (corrupt ones are quarantined, with fallback)
// is loaded and applied to a freshly built job, which then continues
// committing to the same store. The returned Recovery is nil when the
// store holds no generation — the job starts clean and the caller feeds
// from the beginning. Otherwise the caller must re-feed every source
// event admitted after the recovered wave (Recovery.Snap.Wave); events
// admitted before it but not yet consumed are inside the generation's
// replay logs and need no re-feeding.
//
// The plan and sources must match the crashed process's. So must the
// machine count, since hash partition ids are recorded against it: a
// generation written with a different count is refused with an error
// naming both, and one that records no count (written before counts were
// recorded) is refused by name.
func RestoreFromDir(plan *temporal.Plan, sources map[string]*temporal.Schema, store *dur.Store, opts ...StreamOption) (*StreamingJob, *dur.Recovery, error) {
	rec, err := store.Load()
	if err != nil {
		return nil, nil, err
	}
	sj, err := NewStreamingJob(plan, sources, append(append([]StreamOption(nil), opts...), WithDurable(store))...)
	if err != nil {
		return nil, nil, err
	}
	if rec == nil {
		return sj, nil, nil
	}
	if err := sj.applySnapshot(rec.Snap); err != nil {
		return nil, nil, fmt.Errorf("timr: restore from %s (gen %d): %w", store.Dir(), rec.Gen, err)
	}
	return sj, rec, nil
}

// applySnapshot rebuilds the job's live state from a recovered
// generation: every recorded partition goes through the same rebuild a
// crash does, then the job-level output record is restored. j.waves is
// set before any partition is created so the crash-injection draws of
// the restored run are well-defined from the first arm.
func (j *StreamingJob) applySnapshot(snap *dur.Snapshot) error {
	switch {
	case snap.Machines == 0:
		return fmt.Errorf("generation records no machine count (written by an older build); cannot restore")
	case snap.Machines != j.machines:
		return fmt.Errorf("generation was written with %d machines, this job has %d; partition ids would not match", snap.Machines, j.machines)
	}
	j.waves = snap.Waves
	for _, ps := range snap.Parts {
		st, err := j.stageByName(ps.Frag)
		if err != nil {
			return err
		}
		if err := st.rebuild(st.partition(ps.Part), ps.Ckpt, ps.Log); err != nil {
			return fmt.Errorf("partition %s/%d: %w", ps.Frag, ps.Part, err)
		}
	}
	j.results = append(j.results[:0], snap.Results...)
	j.out.pending = append(j.out.pending[:0], snap.Pending...)
	for _, o := range snap.Offsets {
		if f, ok := j.feeders[o.Name]; ok {
			f.SetPosition(o.Pos)
		}
	}
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
