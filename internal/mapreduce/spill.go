package mapreduce

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"timr/internal/dur"
	"timr/internal/temporal"
)

// Out-of-core data plane. A partition of a Dataset — and the shuffle
// output handed to a reducer — is an ordered list of Segments, each
// either resident (a []Row) or spilled to a temp file. Spilled segments
// are streams of length-prefixed rows in the shared binary row codec
// (internal/temporal/codec.go), the same encoding operator checkpoints
// use, so one codec serves both persistence layers. Reducers stream a
// spilled segment through a RowReader; a map task reads it whole and
// routes its frames without materializing rows (frameReader).
//
// Spill is a budget decision, not a correctness one: the row order a
// consumer observes through a RowReader is identical whether a segment
// is resident or spilled, which is what makes pipeline output
// bit-identical across every MemoryBudget setting.

// maxSpillFrame caps a single row frame; a longer length prefix means
// the file is corrupt, and failing beats allocating attacker-sized
// buffers.
const maxSpillFrame = 1 << 30

// spillIO aggregates spill traffic. Cluster-owned files share the
// cluster's accumulator, so a stage's spill activity is the
// before/after delta; standalone files (tests) get their own.
type spillIO struct {
	segments  atomic.Int64
	bytes     atomic.Int64
	readBytes atomic.Int64
	readNs    atomic.Int64
}

// spillCounts is a point-in-time copy of a spillIO.
type spillCounts struct {
	segments, bytes, readBytes, readNs int64
}

func (s *spillIO) snapshot() spillCounts {
	return spillCounts{
		segments:  s.segments.Load(),
		bytes:     s.bytes.Load(),
		readBytes: s.readBytes.Load(),
		readNs:    s.readNs.Load(),
	}
}

// spillFile is one temp file holding many segments back to back. Writes
// are buffered and serialized under mu; the first read seals the file
// (flushes the buffer), after which concurrent readers use ReadAt
// through independent SectionReaders.
type spillFile struct {
	path string
	io   *spillIO
	fs   dur.FS

	mu  sync.Mutex
	f   dur.File
	w   *bufio.Writer // non-nil until sealed
	off int64
}

// createSpillFile opens a fresh spill file through the given FS seam
// (dur.OS{} in production; tests substitute a fault-injecting FS to
// exercise full disks and failed fsyncs against the real spill paths).
func createSpillFile(fs dur.FS, dir string, acct *spillIO) (*spillFile, error) {
	if fs == nil {
		fs = dur.OS{}
	}
	f, err := fs.CreateTemp(dir, "seg-*.spill")
	if err != nil {
		return nil, fmt.Errorf("mapreduce: create spill file: %w", err)
	}
	return &spillFile{
		path: f.Name(),
		io:   acct,
		fs:   fs,
		f:    f,
		w:    bufio.NewWriterSize(f, 64<<10),
	}, nil
}

// writeSegment appends n row frames as one spilled segment and returns
// it. frames is written as given, in one Write: it is either a map task's
// bucket of frames copied verbatim from a spilled input, or rows encoded
// by appendFrames.
func (sf *spillFile) writeSegment(frames []byte, n int, sorted bool) (Segment, error) {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if sf.w == nil {
		return Segment{}, fmt.Errorf("mapreduce: spill file %s already sealed for reading", sf.path)
	}
	start := sf.off
	if _, err := sf.w.Write(frames); err != nil {
		return Segment{}, fmt.Errorf("mapreduce: spill write: %w", err)
	}
	sf.off += int64(len(frames))
	sf.io.segments.Add(1)
	sf.io.bytes.Add(int64(len(frames)))
	return Segment{file: sf, off: start, size: int64(len(frames)), n: n, sorted: sorted}, nil
}

// appendFrames appends one row frame per row to dst: uvarint(len)
// followed by the codec's row bytes, len being the row's RowBytes.
func appendFrames(dst []byte, rows []Row) []byte {
	for _, r := range rows {
		dst = binary.AppendUvarint(dst, uint64(RowBytes(r)))
		dst = temporal.AppendRow(dst, r)
	}
	return dst
}

// seal flushes buffered writes, fsyncs the file, and switches it to
// read mode. A spill file never outlives its process (and stale spill
// dirs are swept), so the sync is not there for crash durability: it
// makes deferred write-back failures (ENOSPC, EIO) surface here, as a
// distinct "spill sync" error, before any segment is read back. Flush and
// sync failures are wrapped distinctly so callers can tell a full buffer
// drain from a storage-layer refusal.
func (sf *spillFile) seal() error {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if sf.w != nil {
		if err := sf.w.Flush(); err != nil {
			return fmt.Errorf("mapreduce: spill flush: %w", err)
		}
		if err := sf.f.Sync(); err != nil {
			return fmt.Errorf("mapreduce: spill sync: %w", err)
		}
		sf.w = nil
	}
	return nil
}

// close releases the handle and deletes the file; segments pointing at
// it become unreadable. A close failure (the write side's last chance
// to report an error) and a remove failure are distinct problems —
// both are surfaced, separately wrapped, rather than the first being
// folded into the second.
func (sf *spillFile) close() error {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	sf.w = nil
	var errs []error
	if err := sf.f.Close(); err != nil {
		errs = append(errs, fmt.Errorf("mapreduce: spill close: %w", err))
	}
	if err := sf.fs.Remove(sf.path); err != nil {
		errs = append(errs, fmt.Errorf("mapreduce: spill remove: %w", err))
	}
	return errors.Join(errs...)
}

// countingReader charges read bytes and wall time to the file's spillIO.
type countingReader struct {
	r  io.Reader
	io *spillIO
}

func (c *countingReader) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.r.Read(p)
	c.io.readBytes.Add(int64(n))
	c.io.readNs.Add(int64(time.Since(t0)))
	return n, err
}

// Segment is one contiguous chunk of a partition: resident rows, or a
// byte range of a spill file holding per-row frames. Segments are
// immutable once built; copying the struct is cheap and safe.
type Segment struct {
	rows   []Row
	file   *spillFile
	off    int64
	size   int64
	n      int
	sorted bool
}

// ResidentSegment wraps rows (borrowed, not copied) as an in-memory
// segment. sorted declares that the rows are ordered by the stage's run
// key (see Stage.RunKey) — callers that cannot vouch for it must pass
// false.
func ResidentSegment(rows []Row, sorted bool) Segment {
	return Segment{rows: rows, n: len(rows), sorted: sorted}
}

// Len returns the row count.
func (s *Segment) Len() int { return s.n }

// Spilled reports whether the segment lives in a spill file.
func (s *Segment) Spilled() bool { return s.file != nil }

// Sorted reports whether the rows are ordered by the producing stage's
// run key. Sorted segments can stream through a k-way merge; a consumer
// that needs the order reads an unsorted one whole.
func (s *Segment) Sorted() bool { return s.sorted }

// Resident returns the in-memory rows (borrowed), or nil for a spilled
// segment.
func (s *Segment) Resident() []Row { return s.rows }

// Materialize returns all rows of the segment: the underlying slice
// (borrowed — callers must not mutate) when resident, a fresh decode of
// the spill file range otherwise.
func (s *Segment) Materialize() ([]Row, error) {
	if s.file == nil {
		return s.rows, nil
	}
	out := make([]Row, 0, s.n)
	rd := NewRowReader(*s)
	for {
		r, ok, err := rd.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, r)
	}
}

// Open returns a pull iterator over the segment's rows.
func (s *Segment) Open() *RowReader { return NewRowReader(*s) }

// readFrames reads a spilled segment's whole byte range, its row frames,
// with one ReadAt into a buffer of its own.
func (s *Segment) readFrames() ([]byte, error) {
	if err := s.file.seal(); err != nil {
		return nil, err
	}
	buf := make([]byte, s.size)
	t0 := time.Now()
	n, err := s.file.f.ReadAt(buf, s.off)
	s.file.io.readBytes.Add(int64(n))
	s.file.io.readNs.Add(int64(time.Since(t0)))
	if n < len(buf) {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("mapreduce: spill read: %w", err)
	}
	return buf, nil
}

// frameReader walks the row frames of a spilled segment held in memory.
// Every length it reads is checked against the bytes left, so corrupt
// input fails with an error, never with a panic or an out-of-range slice.
type frameReader struct {
	data []byte // frames not read yet
	left int    // frames still expected
	dec  temporal.Decoder
	row  Row // scratch row that next decodes into
}

// skip splits off the next frame without decoding it: the whole frame,
// length prefix included, and its row payload.
func (fr *frameReader) skip() (frame, body []byte, err error) {
	if fr.left <= 0 {
		return nil, nil, errors.New("mapreduce: spill read: segment holds more frames than its row count")
	}
	ln, k := binary.Uvarint(fr.data)
	if k <= 0 {
		return nil, nil, fmt.Errorf("mapreduce: spill read: bad frame length prefix (%d frames short)", fr.left)
	}
	if ln > uint64(len(fr.data)-k) {
		return nil, nil, fmt.Errorf("mapreduce: spill frame of %d bytes overruns its segment (%d bytes left, corrupt spill file)", ln, len(fr.data)-k)
	}
	end := k + int(ln)
	frame, body = fr.data[:end], fr.data[k:end]
	fr.data = fr.data[end:]
	fr.left--
	return frame, body, nil
}

// next splits off the next frame and decodes its row into the reader's
// scratch row, which the following call overwrites; string values alias
// the segment's bytes (temporal.Decoder.RowView). It returns the row, its
// RowBytes and the whole frame, length prefix included. A frame must be
// exactly what appendFrames writes for the row it decodes to, so the
// payload length is the row's RowBytes and the frame can be copied into a
// spill file in place of re-encoding the row.
func (fr *frameReader) next() (row Row, size int, frame []byte, err error) {
	frame, body, err := fr.skip()
	if err != nil {
		return nil, 0, nil, err
	}
	fr.dec.Reset(body)
	fr.row = fr.dec.RowView(fr.row)
	if err := fr.dec.Done(); err != nil {
		return nil, 0, nil, err
	}
	var hdr [binary.MaxVarintLen64]byte
	if len(body) != RowBytes(fr.row) || len(frame)-len(body) != len(binary.AppendUvarint(hdr[:0], uint64(len(body)))) {
		return nil, 0, nil, errors.New("mapreduce: spill read: frame is not the canonical encoding of its row (corrupt spill file)")
	}
	return fr.row, len(body), frame, nil
}

// done fails unless every frame and every byte was read.
func (fr *frameReader) done() error {
	if fr.left != 0 || len(fr.data) != 0 {
		return fmt.Errorf("mapreduce: spill read: segment ends with %d frames unread and %d bytes left over (corrupt spill file)", fr.left, len(fr.data))
	}
	return nil
}

// decodeFrames decodes n row frames into rows that own their values and
// strings: a kept bucket of a map task over a spilled input.
func decodeFrames(frames []byte, n int) ([]Row, error) {
	fr := frameReader{data: frames, left: n}
	var dec slabDecoder
	rows := make([]Row, n)
	for i := range rows {
		_, body, err := fr.skip()
		if err != nil {
			return nil, err
		}
		if rows[i], err = dec.row(body, n-i); err != nil {
			return nil, err
		}
	}
	if err := fr.done(); err != nil {
		return nil, err
	}
	return rows, nil
}

// slabDecoder decodes row frames into rows carved from blocks of values,
// one allocation per block instead of one per row. Each row is clipped
// (cap == len) and owns its values and strings; a block is never reused,
// so a row outlives the decoder and every row decoded after it.
type slabDecoder struct {
	dec  temporal.Decoder
	slab []temporal.Value
}

// slabMax caps a block at 128 kB of values, as temporal's row arenas do.
const slabMax = 8192

// row decodes one frame's row. left counts the frames still to decode,
// this one included: a block holds about that many rows of this width, up
// to slabMax values.
func (d *slabDecoder) row(body []byte, left int) (Row, error) {
	d.dec.Reset(body)
	n := d.dec.Count("row")
	if n > len(d.slab) {
		d.slab = make([]temporal.Value, max(n, min(n*left, slabMax)))
	}
	var row Row
	if n > 0 { // an empty row decodes to nil, as Decoder.Row returns it
		row, d.slab = d.slab[:n:n], d.slab[n:]
	}
	for i := range row {
		row[i] = d.dec.Value()
	}
	if err := d.dec.Done(); err != nil {
		return nil, err
	}
	return row, nil
}

// RowReader is a pull iterator over the rows of a segment list, in
// order. Resident segments are walked in place (no copies, no decode);
// spilled segments stream through a buffered reader one row frame at a
// time, so a reducer's working set stays bounded no matter how large
// its input partition is.
//
// A RowReader is single-goroutine; open one reader per consumer.
type RowReader struct {
	segs []Segment
	i    int // next segment
	err  error

	// current resident segment
	rows []Row
	ri   int

	// current spilled segment
	br  *bufio.Reader
	rem int
	buf []byte
	dec slabDecoder
}

// NewRowReader returns a reader over the given segments in order.
func NewRowReader(segs ...Segment) *RowReader {
	return &RowReader{segs: segs}
}

// Next returns the next row. ok is false when the input is exhausted.
// After an error, every subsequent call returns the same error.
func (r *RowReader) Next() (row Row, ok bool, err error) {
	for {
		if r.err != nil {
			return nil, false, r.err
		}
		if r.rows != nil {
			if r.ri < len(r.rows) {
				row = r.rows[r.ri]
				r.ri++
				return row, true, nil
			}
			r.rows = nil
		}
		if r.br != nil {
			if r.rem > 0 {
				row, r.err = r.readFrame()
				if r.err != nil {
					return nil, false, r.err
				}
				r.rem--
				return row, true, nil
			}
			r.br = nil
		}
		if r.i >= len(r.segs) {
			return nil, false, nil
		}
		seg := &r.segs[r.i]
		r.i++
		if seg.file == nil {
			r.rows, r.ri = seg.rows, 0
			continue
		}
		if err := seg.file.seal(); err != nil {
			r.err = err
			return nil, false, r.err
		}
		src := io.NewSectionReader(seg.file.f, seg.off, seg.size)
		r.br = bufio.NewReaderSize(&countingReader{r: src, io: seg.file.io}, int(min(seg.size, 32<<10)))
		r.rem = seg.n
	}
}

func (r *RowReader) readFrame() (Row, error) {
	ln, err := binary.ReadUvarint(r.br)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: spill read: %w", err)
	}
	if ln > maxSpillFrame {
		return nil, fmt.Errorf("mapreduce: spill frame of %d bytes exceeds cap (corrupt spill file)", ln)
	}
	if uint64(cap(r.buf)) < ln {
		r.buf = make([]byte, ln)
	}
	buf := r.buf[:ln]
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return nil, fmt.Errorf("mapreduce: spill read: %w", err)
	}
	return r.dec.row(buf, r.rem)
}
