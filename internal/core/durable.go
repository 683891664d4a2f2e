package core

import (
	"fmt"
	"slices"
	"sort"

	"timr/internal/dur"
	"timr/internal/temporal"
)

// Durable restart for streaming jobs.
//
// Engines consume input only during Advance, so at the end of a wave
// every partition's checkpoint plus its barrier's logs — its replay log
// — reconstruct the partition exactly. Durability is that cut, written
// down: one store generation per wave carries every partition's
// (checkpoint, replay log), the delivered results, and the output
// barrier's log. A process killed at any instant is rebuilt by
// NewStreamingJob over the same store from the newest intact generation,
// and the caller re-feeds everything its sources admitted after that
// wave (the replay logs inside the generation cover the rest) —
// producing bit-identical output, including under injected I/O faults
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
func (j *StreamingJob) commitDurable(t temporal.Time) {
	snap := &snapshot{machines: j.machines, offsets: map[string]int64{}, results: j.results, pending: j.outs[0].logs[0]}
	for name, f := range j.feeders {
		if pos, ok := f.Position(); ok {
			snap.offsets[name] = pos
		}
	}
	for _, st := range j.stages {
		for _, p := range st.parts {
			snap.parts = append(snap.parts, partState{frag: st.frag.Name, id: p.id, ckpt: p.ckpt, log: replayLog(p.buf)})
		}
	}
	j.durErr = j.durStore.Commit(t, j.waves, snap.encode())
}

// snapshot is a streaming generation's payload. The wave and wave count
// are the generation's own.
type snapshot struct {
	machines         int
	offsets          map[string]int64 // published input positions
	parts            []partState      // stage by stage, in id order
	results, pending []temporal.Event // delivered results; the output barrier's log
}

// partState is one partition's recovery record: the engine checkpoint
// taken at the wave, and the replay log — its barrier's logs, admitted
// but not yet consumed, as replayLog records them.
type partState struct {
	frag string
	id   int
	ckpt []byte
	log  []temporal.Event
}

// encode lays the snapshot out after snapshotTag: the machine count; the
// offsets, sorted by source name; every partition's (fragment, id,
// checkpoint, replay log); the results; the output barrier's log.
func (snap *snapshot) encode() []byte {
	var w temporal.Encoder
	w.Byte(snapshotTag)
	w.Uvarint(uint64(snap.machines))
	names := make([]string, 0, len(snap.offsets))
	for name := range snap.offsets {
		names = append(names, name)
	}
	sort.Strings(names)
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		w.String(name)
		w.Varint(snap.offsets[name])
	}
	w.Uvarint(uint64(len(snap.parts)))
	for _, ps := range snap.parts {
		w.String(ps.frag)
		w.Varint(int64(ps.id))
		w.BytesField(ps.ckpt)
		w.Events(ps.log)
	}
	w.Events(snap.results)
	w.Events(snap.pending)
	return w.Bytes()
}

// replayLog is a barrier's logs as a generation records them: one list in
// (LE, RE, payload) order, every payload ending in its input index. The
// index exists only here, on disk; applySnapshot strips it.
func replayLog(b *barrier) []temporal.Event {
	var evs []temporal.Event
	for src, log := range b.logs {
		tag := temporal.Int(int64(src))
		for _, e := range log {
			e.Payload = append(slices.Clip(e.Payload), tag)
			evs = append(evs, e)
		}
	}
	temporal.SortEvents(evs)
	return evs
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
// generation: every recorded partition is rebuilt, then the job-level
// output record is restored.
func (j *StreamingJob) applySnapshot(waves int, snap *snapshot) error {
	if snap.machines != j.machines {
		return fmt.Errorf("generation was written with %d machines, this job has %d; partition ids would not match", snap.machines, j.machines)
	}
	j.waves = waves
	for _, ps := range snap.parts {
		st, err := j.stageByName(ps.frag)
		if err != nil {
			return err
		}
		if ps.id < 0 || ps.id >= len(st.parts) {
			return fmt.Errorf("generation holds partition %s/%d, but the stage has %d partitions", ps.frag, ps.id, len(st.parts))
		}
		p := st.parts[ps.id]
		logs, err := untag(ps.log, st.frag.Inputs)
		if err != nil {
			return fmt.Errorf("partition %s/%d: %w", ps.frag, ps.id, err)
		}
		p.buf.logs = logs
		if err := st.rebuild(p, ps.ckpt); err != nil {
			return fmt.Errorf("partition %s/%d: %w", ps.frag, ps.id, err)
		}
	}
	root := j.stages[len(j.stages)-1].frag.Root.Schema()
	if err := conforms(root, snap.results); err != nil {
		return fmt.Errorf("delivered results: %w", err)
	}
	if err := conforms(root, snap.pending); err != nil {
		return fmt.Errorf("output barrier: %w", err)
	}
	j.results = append(j.results[:0], snap.results...)
	j.outs[0].logs[0] = append(j.outs[0].logs[0][:0], snap.pending...)
	for name, pos := range snap.offsets {
		if f, ok := j.feeders[name]; ok {
			f.SetPosition(pos)
		}
	}
	return nil
}

// rebuild restores a partition from a generation: the engine is
// discarded, and a fresh one is restored from ckpt (an empty ckpt leaves
// it as built), to which the barrier's logs replay at the next wave.
func (st *streamStage) rebuild(p *streamPartition, ckpt []byte) error {
	eng, err := st.newEngine(p)
	if err != nil {
		return err
	}
	if len(ckpt) > 0 {
		if err := eng.Restore(ckpt); err != nil {
			return err
		}
	}
	p.eng = eng
	st.replayed.Add(int64(p.buf.held()))
	st.recoveries.Inc()
	return nil
}

// untag splits a recorded replay log into one log per input, stripping
// each payload's input index. It refuses an event whose index is not an
// Int naming one of inputs, or whose payload does not fit that input's
// schema: the next wave would feed it to an engine that cannot take it.
func untag(log []temporal.Event, inputs []FragmentInput) ([][]temporal.Event, error) {
	logs := make([][]temporal.Event, len(inputs))
	for _, e := range log {
		n := len(e.Payload) - 1
		if n < 0 || e.Payload[n].Kind() != temporal.KindInt || uint64(e.Payload[n].AsInt()) >= uint64(len(inputs)) {
			return nil, fmt.Errorf("replay log event %v names none of the %d inputs", e, len(inputs))
		}
		src := e.Payload[n].AsInt()
		e.Payload = e.Payload[:n]
		if err := conforms(inputs[src].Schema, []temporal.Event{e}); err != nil {
			return nil, fmt.Errorf("input %s: %w", inputs[src].ScanName, err)
		}
		logs[src] = append(logs[src], e)
	}
	return logs, nil
}

// conforms reports an event whose payload does not fit sch: another
// arity, or a value whose kind is not its column's (null fits any).
func conforms(sch *temporal.Schema, evs []temporal.Event) error {
	for _, e := range evs {
		if len(e.Payload) != sch.Len() {
			return fmt.Errorf("event %v has %d columns, the schema %d", e, len(e.Payload), sch.Len())
		}
		for i, v := range e.Payload {
			if f := sch.Field(i); v.Kind() != f.Kind && v.Kind() != temporal.KindNull {
				return fmt.Errorf("event %v holds a %s in %s column %s", e, v.Kind(), f.Kind, f.Name)
			}
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
