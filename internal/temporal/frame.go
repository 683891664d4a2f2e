package temporal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Framed, checksummed file form of the checkpoint codec. Checkpoints and
// replay logs written to disk (internal/dur) are sequences of frames:
//
//	0xFA | uvarint(len(payload)) | payload | crc32c(payload), 4 bytes LE
//
// The CRC is Castagnoli (the iSCSI polynomial, hardware-accelerated on
// every platform Go targets), computed over the payload bytes only: the
// magic and length are structurally validated, so corrupting them fails
// the decode before the checksum is even consulted. Like the value codec
// (codec.go), every length is bounds-checked against the bytes actually
// present — arbitrary input errors cleanly, never panics, never drives an
// attacker-sized allocation (FuzzFrameDecode enforces this).

// FrameMagic is the leading byte of every checkpoint frame.
const FrameMagic byte = 0xFA

// frameCRC is the Castagnoli table shared by encode and decode.
var frameCRC = crc32.MakeTable(crc32.Castagnoli)

// maxFrame caps a single frame payload; a longer length prefix means the
// file is corrupt, and failing beats allocating attacker-sized buffers.
const maxFrame = 1 << 30

// AppendFrame appends payload to dst as one checksummed frame and
// returns the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	dst = append(dst, FrameMagic)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, frameCRC))
}

// DecodeFrame splits one frame off the front of data, returning its
// payload (aliasing data — callers that outlive data must copy) and the
// remaining bytes. Truncated input, a bad magic, an oversized or
// overrunning length, and a checksum mismatch all return an error.
func DecodeFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("temporal: frame: empty input")
	}
	if data[0] != FrameMagic {
		return nil, nil, fmt.Errorf("temporal: frame: bad magic 0x%02x", data[0])
	}
	ln, n := binary.Uvarint(data[1:])
	if n <= 0 {
		return nil, nil, fmt.Errorf("temporal: frame: bad length varint")
	}
	if ln > maxFrame {
		return nil, nil, fmt.Errorf("temporal: frame: payload of %d bytes exceeds cap (corrupt frame)", ln)
	}
	body := data[1+n:]
	if uint64(len(body)) < ln+4 {
		return nil, nil, fmt.Errorf("temporal: frame: payload %d + crc overruns remaining %d bytes", ln, len(body))
	}
	payload = body[:ln]
	want := binary.LittleEndian.Uint32(body[ln : ln+4])
	if got := crc32.Checksum(payload, frameCRC); got != want {
		return nil, nil, fmt.Errorf("temporal: frame: checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	return payload, body[ln+4:], nil
}

// BytesField appends a length-prefixed raw byte slice — how the durable
// store embeds an engine checkpoint image inside a partition record.
func (w *Encoder) BytesField(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// BytesField reads a length-prefixed raw byte slice. The result aliases
// the decoder's input; callers that outlive it must copy.
func (r *Decoder) BytesField() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.fail("bytes field length %d exceeds remaining %d bytes", n, r.remaining())
		return nil
	}
	b := r.data[r.pos : r.pos+int(n) : r.pos+int(n)]
	r.pos += int(n)
	return b
}
