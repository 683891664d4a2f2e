package temporal

// Checkpointing gives every stateful physical operator a compact,
// deterministic byte encoding of its live state, so an engine can be
// snapshotted between input batches and rebuilt elsewhere (a streaming
// partition of a killed process, from its durable generation). The
// encoding is the shared binary row codec (codec.go): stdlib-only
// varints, no reflection, no per-type registries.
//
// Two invariants make the snapshots usable:
//
//   - Determinism: unordered containers (hash synopses, pending maps,
//     heaps) are serialized in a canonical sort order, so snapshotting
//     the same logical state twice yields identical bytes — checkpoint
//     equality is byte equality, which the fuzz target exploits.
//   - Behavioral equivalence, not bit equivalence, of the restored
//     operator: a heap may be rebuilt with a different internal layout
//     and a synopsis bucket in a different order, but every sequence of
//     future inputs produces the same output events. Where physical
//     order does carry meaning (merger FIFOs, UDO row order), the
//     encoding preserves it verbatim.

// Checkpointer is implemented by stateful operators. Stateless operators
// (filter, project, multicast) simply do not implement it and are skipped
// structurally when the pipeline walks its operators.
//
// Restore must be called on a freshly built operator (same plan node,
// zero state) before it has processed any input; on error the operator —
// and the engine hosting it — must be discarded.
type Checkpointer interface {
	Snapshot(w *Encoder)
	Restore(r *Decoder) error
}

// Per-operator tag bytes, written ahead of each operator's state and
// verified on restore, so a plan/checkpoint mismatch fails loudly instead
// of reading one operator's bytes as another's.
//
// The engine header doubles as the format version: 0xE8 is format 2,
// which introduced the grouped-aggregate section, writes expirations in
// pop order and renumbered the tags; format 1 images (header 0xE7) are
// refused by Engine.Restore. A retired tag is never reused, so an image
// holding one is refused by tag: 0x07 was the per-key GroupApply, deleted
// when every sub-plan became grouped kernels; 0x01 and 0x06 were the
// top-level aggregate and hopping UDO, which are now grouped kernels with
// no key and write 0x08 and 0x09. Retiring them did not bump the header:
// an image holding no top-level aggregate or UDO reads the same as before,
// and such images (GroupApply and join ones among them) must still restore.
const (
	ckEngine   byte = 0xE8
	ckEngineV1 byte = 0xE7
	// 0x01 retired (top-level aggregate)
	ckAlterLife byte = 0x02
	ckUnion     byte = 0x03
	ckJoin      byte = 0x04
	ckAntiSemi  byte = 0x05
	// 0x06 retired (hopping UDO), 0x07 retired (per-key GroupApply)
	ckGroupedAgg byte = 0x08
	ckGroupedUDO byte = 0x09
)
