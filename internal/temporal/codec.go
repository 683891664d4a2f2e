package temporal

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"unsafe"
)

// The shared binary row codec: a compact, deterministic, stdlib-varint
// encoding of values, rows and events, used by two very different
// persistence layers —
//
//   - operator checkpoints (checkpoint.go): every stateful operator's
//     Snapshot/Restore writes an Encoder and reads a Decoder;
//   - the map-reduce spill files (internal/mapreduce/spill.go): shuffle
//     runs and output partitions evicted from memory are streams of
//     length-prefixed rows in this same encoding.
//
// The encoding is self-describing at the value level (a kind tag per
// value), carries no schema, and has two load-bearing properties:
//
//   - Determinism: encoding the same logical data twice yields identical
//     bytes, so checkpoint equality is byte equality and spilled
//     partitions compare bit-identically to resident ones.
//   - Robustness: every length and count a Decoder reads is
//     bounds-checked against the bytes actually remaining, so corrupt
//     (or fuzzed) input fails with an error — never a panic, never an
//     attacker-sized allocation (FuzzRowCodecRoundtrip enforces this).

// Encoder accumulates the codec byte stream. The zero value is ready to
// use; Reset recycles the buffer for the next record.
type Encoder struct {
	buf []byte
}

// Bytes returns the accumulated encoding.
func (w *Encoder) Bytes() []byte { return w.buf }

// Len returns the number of bytes accumulated so far.
func (w *Encoder) Len() int { return len(w.buf) }

// Reset empties the encoder, keeping the buffer capacity.
func (w *Encoder) Reset() { w.buf = w.buf[:0] }

// Byte appends a raw byte (tags).
func (w *Encoder) Byte(b byte) { w.buf = append(w.buf, b) }

// Uvarint appends an unsigned varint.
func (w *Encoder) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Varint appends a signed (zig-zag) varint; Time values use this.
func (w *Encoder) Varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Encoder) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// String appends a length-prefixed string.
func (w *Encoder) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Value appends one tagged value.
func (w *Encoder) Value(v Value) {
	k := v.Kind()
	w.Byte(byte(k))
	switch k {
	case KindNull:
	case KindFloat:
		w.Uvarint(v.n)
	case KindString:
		w.String(v.str())
	default: // int, bool
		w.Varint(int64(v.n))
	}
}

// uvarintLen returns the number of bytes Uvarint appends for v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// varintLen returns the number of bytes Varint appends for v.
func varintLen(v int64) int {
	return uvarintLen(uint64(v<<1) ^ uint64(v>>63))
}

// EncodedLen returns the exact number of bytes Encoder.Value appends
// for v: one kind tag plus the payload encoding. MemoryBudget
// accounting (mapreduce.RowBytes) relies on this matching the encoder
// byte for byte, so a "4KB" partition really holds at most 4KB of
// spill-frame payload.
func (v Value) EncodedLen() int {
	switch v.Kind() {
	case KindNull:
		return 1
	case KindFloat:
		return 1 + uvarintLen(v.n)
	case KindString:
		return 1 + uvarintLen(v.n) + int(v.n)
	default: // int, bool
		return 1 + varintLen(int64(v.n))
	}
}

// RowEncodedLen returns the exact number of bytes Encoder.Row appends
// for r: the count prefix plus every value.
func RowEncodedLen(r Row) int {
	n := uvarintLen(uint64(len(r)))
	for _, v := range r {
		n += v.EncodedLen()
	}
	return n
}

// Row appends a length-prefixed row.
func (w *Encoder) Row(r Row) {
	w.Uvarint(uint64(len(r)))
	for _, v := range r {
		w.Value(v)
	}
}

// AppendRow appends the bytes Encoder.Row writes for r to dst and returns
// the extended slice.
func AppendRow(dst []byte, r Row) []byte {
	w := Encoder{buf: dst}
	w.Row(r)
	return w.buf
}

// Event appends one event (lifetime + payload).
func (w *Encoder) Event(e Event) {
	w.Varint(e.LE)
	w.Varint(e.RE)
	w.Row(e.Payload)
}

// Events appends a count-prefixed event slice in the given order.
func (w *Encoder) Events(evs []Event) {
	w.Uvarint(uint64(len(evs)))
	for _, e := range evs {
		w.Event(e)
	}
}

// Decoder decodes a codec byte stream. Errors are sticky: after the
// first failure every read returns zero values and Err reports the
// failure, so decode code can read straight through and check once.
type Decoder struct {
	data []byte
	pos  int
	err  error
}

// NewDecoder wraps a codec byte stream.
func NewDecoder(data []byte) *Decoder {
	return &Decoder{data: data}
}

// Reset points the decoder at a new byte stream, clearing any sticky
// error — spill readers reuse one Decoder across row frames.
func (r *Decoder) Reset(data []byte) {
	r.data, r.pos, r.err = data, 0, nil
}

// Err returns the first decode error, if any.
func (r *Decoder) Err() error { return r.err }

func (r *Decoder) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("temporal: codec: "+format, args...)
	}
}

func (r *Decoder) remaining() int { return len(r.data) - r.pos }

// Failf records and returns a decode error; callers use it for
// structural mismatches the byte-level reads cannot detect.
func (r *Decoder) Failf(format string, args ...any) error {
	r.fail(format, args...)
	return r.err
}

// Byte reads one raw byte.
func (r *Decoder) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.data) {
		r.fail("unexpected end of input")
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// Expect reads one tag byte and fails unless it matches.
func (r *Decoder) Expect(tag byte, what string) error {
	if got := r.Byte(); r.err == nil && got != tag {
		r.fail("expected %s tag 0x%02x, found 0x%02x", what, tag, got)
	}
	return r.err
}

// Uvarint reads an unsigned varint.
func (r *Decoder) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail("bad uvarint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// Varint reads a signed varint.
func (r *Decoder) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// Bool reads a one-byte boolean.
func (r *Decoder) Bool() bool { return r.Byte() != 0 }

// Count reads an element count and sanity-checks it against the bytes
// remaining (every element costs at least one byte), so a corrupt count
// cannot drive a huge allocation.
func (r *Decoder) Count(what string) int {
	n := r.Uvarint()
	if r.err == nil && n > uint64(r.remaining()) {
		r.fail("%s count %d exceeds remaining %d bytes", what, n, r.remaining())
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string.
func (r *Decoder) String() string { return string(r.bytes()) }

// bytes reads a length-prefixed byte string and returns it in place, a
// sub-slice of the input.
func (r *Decoder) bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.fail("string length %d exceeds remaining %d bytes", n, r.remaining())
		return nil
	}
	b := r.data[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b
}

// Value reads one tagged value.
func (r *Decoder) Value() Value { return r.value(false) }

// value reads one tagged value; with view set, a string value aliases the
// input instead of owning a copy of its bytes.
func (r *Decoder) value(view bool) Value {
	kind := Kind(r.Byte())
	switch kind {
	case KindNull:
		return Null
	case KindFloat:
		return bitsValue(KindFloat, r.Uvarint())
	case KindString:
		b := r.bytes()
		if view && len(b) > 0 {
			return String(unsafe.String(&b[0], len(b)))
		}
		return String(string(b))
	case KindInt, KindBool:
		return bitsValue(kind, uint64(r.Varint()))
	default:
		r.fail("unknown value kind %d", kind)
		return Null
	}
}

// Row reads a length-prefixed row.
func (r *Decoder) Row() Row {
	n := r.Count("row")
	if r.err != nil || n == 0 {
		return nil
	}
	row := make(Row, n)
	for i := range row {
		row[i] = r.Value()
	}
	return row
}

// RowView reads a length-prefixed row into dst's storage, growing it only
// when dst is too short, and returns it. Its string values alias the
// decoder's input instead of copying it, so the row reads true only while
// dst and that input are left unmodified. A caller that decodes row after
// row into one scratch row allocates nothing once the scratch is as wide
// as the widest row.
func (r *Decoder) RowView(dst Row) Row {
	n := r.Count("row")
	if r.err != nil {
		return dst[:0]
	}
	if cap(dst) < n {
		dst = make(Row, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = r.value(true)
	}
	return dst
}

// Event reads one event.
func (r *Decoder) Event() Event {
	le := r.Varint()
	re := r.Varint()
	return Event{LE: le, RE: re, Payload: r.Row()}
}

// Events reads a count-prefixed event slice.
func (r *Decoder) Events() []Event {
	n := r.Count("events")
	if r.err != nil || n == 0 {
		return nil
	}
	evs := make([]Event, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		evs = append(evs, r.Event())
	}
	return evs
}

// Done fails unless the stream was consumed exactly.
func (r *Decoder) Done() error {
	if r.err == nil && r.pos != len(r.data) {
		r.fail("%d trailing bytes", len(r.data)-r.pos)
	}
	return r.err
}
