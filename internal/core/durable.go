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
// end of a wave every partition's checkpoint plus its barrier's pending
// events — its replay log — reconstruct the partition exactly.
// Durability is that same cut, written down: one store generation per
// wave carries every partition's (checkpoint, pending events), the
// delivered results, and the output barrier's pending events. A process
// killed at any instant is rebuilt by NewStreamingJob over the same
// store from the newest intact generation, and the driver re-feeds
// everything its sources admitted after that wave (the pending events
// inside the generation cover the rest)
// — producing bit-identical output, including under injected I/O faults
// that force a fallback to an older generation with a longer replay.

// snapshotTag leads a streaming generation's payload, so a payload of
// another kind (a refresher's state) fails decode at its first byte.
const snapshotTag byte = 0xD6

// commitDurable snapshots the job at the end of the wave at time t and
// commits it as one generation. Called from Advance with the wave fully
// applied: every partition's ckpt is fresh, j.waves counts this
// wave, and j.results/j.outs[0] reflect everything released. Commit
// failure is tolerated — counted by the store, remembered in durErr —
// because the previous generation remains a correct (if older) recovery
// line, costing only extended replay.
//
// The payload, after snapshotTag: the machine count; the published input
// offsets, sorted by source name; every partition's (fragment, id,
// checkpoint, pending events), stage by stage in id order; the delivered
// results; and the output barrier's pending events. The wave and wave
// count are the generation's own.
func (j *StreamingJob) commitDurable(t temporal.Time) {
	var w temporal.Encoder
	w.Byte(snapshotTag)
	w.Uvarint(uint64(j.machines))
	var srcNames []string
	for name, f := range j.feeders {
		if _, ok := f.Position(); ok {
			srcNames = append(srcNames, name)
		}
	}
	sort.Strings(srcNames)
	w.Uvarint(uint64(len(srcNames)))
	for _, name := range srcNames {
		pos, _ := j.feeders[name].Position()
		w.String(name)
		w.Varint(pos)
	}
	nparts := 0
	for _, st := range j.stages {
		nparts += len(st.parts)
	}
	w.Uvarint(uint64(nparts))
	for _, st := range j.stages {
		for _, p := range st.parts {
			w.String(st.frag.Name)
			w.Varint(int64(p.id))
			w.BytesField(p.ckpt)
			w.Events(p.buf.pending)
		}
	}
	w.Events(j.results)
	w.Events(j.outs[0].pending)
	j.durErr = j.durStore.Commit(t, j.waves, w.Bytes())
}

// snapshot is a decoded streaming generation's payload (commitDurable
// has its layout).
type snapshot struct {
	machines         int
	offsets          map[string]int64
	parts            []partState
	results, pending []temporal.Event
}

// partState is one partition's recovery record: the engine checkpoint
// taken at the wave, and the replay log — its barrier's pending events,
// admitted but not yet consumed.
type partState struct {
	frag string
	id   int
	ckpt []byte
	log  []temporal.Event
}

// decodeSnapshot parses a streaming generation's payload. Every count and
// length is checked against the bytes present, so arbitrary input errors
// and never panics or drives an allocation larger than itself. Its
// slices alias data.
func decodeSnapshot(data []byte) (*snapshot, error) {
	r := temporal.NewDecoder(data)
	if err := r.Expect(snapshotTag, "streaming snapshot"); err != nil {
		return nil, err
	}
	snap := &snapshot{machines: int(r.Uvarint()), offsets: map[string]int64{}}
	for i, n := 0, r.Count("source offsets"); i < n && r.Err() == nil; i++ {
		name := r.String()
		snap.offsets[name] = r.Varint()
	}
	for i, n := 0, r.Count("partitions"); i < n && r.Err() == nil; i++ {
		snap.parts = append(snap.parts, partState{
			frag: r.String(), id: int(r.Varint()), ckpt: r.BytesField(), log: r.Events(),
		})
	}
	snap.results = r.Events()
	snap.pending = r.Events()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return snap, nil
}

// DurableErr returns the most recent durable-commit error (nil after a
// successful wave commit). Commit failures never fail the wave; this is
// how callers observe that the recovery line has fallen behind.
func (j *StreamingJob) DurableErr() error { return j.durErr }

// recover applies the newest generation of the job's store that is
// intact and decodes as a streaming snapshot (others are quarantined,
// with fallback), which Recovered then returns; a store holding none
// leaves the job clean. The plan and sources must match the crashed
// process's. So must the machine count, since hash partition ids are
// recorded against it: a generation written with a different count is
// refused with an error naming both, and stays in the store.
func (j *StreamingJob) recover() error {
	var snap *snapshot
	g, err := j.durStore.Load(func(g *dur.Generation) error {
		var err error
		snap, err = decodeSnapshot(g.Payload)
		return err
	})
	if err != nil || g == nil {
		return err
	}
	if err := j.applySnapshot(g.Waves, snap); err != nil {
		return fmt.Errorf("timr: restore from %s (gen %d): %w", j.durStore.Dir(), g.Gen, err)
	}
	j.recovered = g
	return nil
}

// Recovered returns the generation a durable job resumed from when it was
// built, or nil when its store held none (the job started clean, and the
// caller feeds from the beginning). Otherwise the caller must re-feed
// every source event admitted after the recovered wave (Wave); events
// admitted before it but not yet consumed are inside the generation's
// barrier buffers and need no re-feeding.
func (j *StreamingJob) Recovered() *dur.Generation { return j.recovered }

// applySnapshot rebuilds the job's live state from a recovered
// generation: every recorded partition goes through the same rebuild a
// crash does, then the job-level output record is restored. Every
// partition is re-armed once j.waves is set, so the crash-injection
// draws of the restored run are a function of the restored wave count.
func (j *StreamingJob) applySnapshot(waves int, snap *snapshot) error {
	if snap.machines != j.machines {
		return fmt.Errorf("generation was written with %d machines, this job has %d; partition ids would not match", snap.machines, j.machines)
	}
	j.waves = waves
	for _, st := range j.stages {
		for _, p := range st.parts {
			st.arm(p)
		}
	}
	for _, ps := range snap.parts {
		st, err := j.stageByName(ps.frag)
		if err != nil {
			return err
		}
		if ps.id < 0 || ps.id >= len(st.parts) {
			return fmt.Errorf("generation holds partition %s/%d, but the stage has %d partitions", ps.frag, ps.id, len(st.parts))
		}
		p := st.parts[ps.id]
		p.buf.pending = append(p.buf.pending[:0], ps.log...)
		if err := st.rebuild(p, ps.ckpt); err != nil {
			return fmt.Errorf("partition %s/%d: %w", ps.frag, ps.id, err)
		}
	}
	j.results = append(j.results[:0], snap.results...)
	j.outs[0].pending = append(j.outs[0].pending[:0], snap.pending...)
	for name, pos := range snap.offsets {
		if f, ok := j.feeders[name]; ok {
			f.SetPosition(pos)
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
