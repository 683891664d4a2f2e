package temporal

import (
	"bytes"
	"strings"
	"testing"
)

func TestFrameRoundtrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		bytes.Repeat([]byte{0xAB}, 1000),
		func() []byte { // a realistic checkpoint image
			var w Encoder
			w.Byte(ckEngine)
			w.Varint(12345)
			w.Events([]Event{PointEvent(7, Row{Int(1), String("k")})})
			return w.Bytes()
		}(),
	}
	var buf []byte
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	rest := buf
	for i, p := range payloads {
		got, r, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload mismatch: %x vs %x", i, got, p)
		}
		rest = r
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after all frames", len(rest))
	}
}

func TestFrameDetectsCorruption(t *testing.T) {
	payload := []byte("the quick brown checkpoint")
	frame := AppendFrame(nil, payload)

	// Every single-bit flip anywhere in the frame must fail the decode
	// (magic, length, payload, or CRC — no flip may pass silently).
	for i := range frame {
		for b := 0; b < 8; b++ {
			mut := append([]byte(nil), frame...)
			mut[i] ^= 1 << b
			p, _, err := DecodeFrame(mut)
			if err == nil && bytes.Equal(p, payload) {
				t.Fatalf("bit flip at byte %d bit %d went undetected", i, b)
			}
		}
	}

	// Truncations at every length must error, never panic.
	for n := 0; n < len(frame); n++ {
		if _, _, err := DecodeFrame(frame[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}

	// A payload flip specifically is a checksum error; a magic flip is not.
	mut := append([]byte(nil), frame...)
	mut[len(mut)-5] ^= 0x10 // inside payload
	if _, _, err := DecodeFrame(mut); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("payload corruption not reported as checksum error: %v", err)
	}
	mut = append(mut[:0:0], frame...)
	mut[0] ^= 0xFF
	if _, _, err := DecodeFrame(mut); err == nil || strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("magic corruption misreported: %v", err)
	}
}

func TestFrameOversizedLengthRejected(t *testing.T) {
	// Hand-build a frame whose length prefix claims > maxFrame bytes: the
	// decoder must reject the length before attempting any allocation.
	buf := []byte{FrameMagic}
	buf = appendUvarint(buf, uint64(maxFrame)+1)
	buf = append(buf, make([]byte, 64)...)
	if _, _, err := DecodeFrame(buf); err == nil {
		t.Fatal("oversized length prefix accepted")
	}
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// FuzzFrameDecode feeds arbitrary bytes to the frame decoder: corrupt
// input must error cleanly — never panic, never over-allocate — and any
// input that does decode must re-encode to a frame whose decode agrees.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, nil))
	f.Add(AppendFrame(nil, []byte("seed payload")))
	f.Add(AppendFrame(AppendFrame(nil, []byte("two")), []byte("frames")))
	f.Add([]byte{FrameMagic, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, rest, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("rest grew: %d > %d input bytes", len(rest), len(data))
		}
		re := AppendFrame(nil, payload)
		got, _, err := DecodeFrame(re)
		if err != nil {
			t.Fatalf("re-encoded frame fails decode: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("re-encode roundtrip mismatch")
		}
	})
}

// TestFrameOverheadExact: a frame adds exactly its magic byte, the
// payload length's uvarint and the CRC to the payload.
func TestFrameOverheadExact(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 100000} {
		got := len(AppendFrame(nil, make([]byte, n)))
		if want := n + 1 + uvarintLen(uint64(n)) + 4; got != want {
			t.Fatalf("payload %d: frame is %d bytes, want %d", n, got, want)
		}
	}
}
