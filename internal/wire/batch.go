package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Batch framing: the wire format of one coalesced bus transmission. A
// batch is
//
//	magic   u32    batchMagic ('A' 'B' 'T' 2)
//	count   u32    number of frames (patched by Finish)
//	frames  count × { length u32, bytes }
//	sum     u32    CRC-32C (Castagnoli) over everything above, from magic
//	               through the last frame byte
//
// The checksum is verified before any frame is handed out, so a truncated
// or corrupted batch fails closed: a decoder never observes a partial
// prefix of frames (the batch analogue of the bus's §5.1 atomicity). A
// degree-32 CRC detects every error burst of 32 bits or fewer, hence every
// corruption confined to one byte, wherever it falls: in the body it
// changes the computed sum, in the trailer the stored one.

// batchMagic identifies a batch and its format version.
const batchMagic uint32 = 0x02544241 // "ABT" 2

// batchOverhead is the fixed framing cost: magic + count + checksum.
const batchOverhead = 4 + 4 + 4

// ErrBadMagic is reported when a batch does not start with batchMagic.
var ErrBadMagic = errors.New("wire: bad batch magic")

// ErrChecksum is reported when a batch fails checksum verification.
var ErrChecksum = errors.New("wire: batch checksum mismatch")

// castagnoli selects the CRC-32C polynomial, which hash/crc32 computes
// with the processor's CRC instruction on amd64 and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the batch checksum; it does not allocate, so the hot encode
// path stays allocation-free.
func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// BatchWriter frames a sequence of records into an underlying Writer. A
// batch may be embedded after other fields: framing starts at the Writer's
// current offset. Records are appended either whole (Frame) or streamed
// in place between BeginFrame and EndFrame; Finish patches the frame count
// and appends the checksum. Exactly one Finish call must follow the last
// frame.
type BatchWriter struct {
	w     *Writer
	start int // offset of the magic word
	// frameOff is the offset of the open frame's length prefix, -1 when
	// no frame is open.
	frameOff int
	count    uint32
}

// NewBatchWriter begins a batch at w's current offset.
func NewBatchWriter(w *Writer) *BatchWriter {
	bw := &BatchWriter{w: w, start: w.Len(), frameOff: -1}
	w.U32(batchMagic)
	w.U32(0) // frame count, patched by Finish
	return bw
}

// Frame appends one complete record.
func (bw *BatchWriter) Frame(b []byte) {
	bw.w.Bytes32(b)
	bw.count++
}

// BeginFrame opens a frame whose contents the caller writes directly into
// the underlying Writer, avoiding a staging copy. EndFrame closes it.
func (bw *BatchWriter) BeginFrame() {
	if bw.frameOff >= 0 {
		panic("wire: BeginFrame with a frame already open")
	}
	bw.frameOff = bw.w.Len()
	bw.w.U32(0) // frame length, patched by EndFrame
}

// EndFrame closes the frame opened by BeginFrame, patching its length.
func (bw *BatchWriter) EndFrame() {
	if bw.frameOff < 0 {
		panic("wire: EndFrame without BeginFrame")
	}
	bw.w.SetU32(bw.frameOff, uint32(bw.w.Len()-bw.frameOff-4))
	bw.frameOff = -1
	bw.count++
}

// Finish patches the frame count and appends the checksum, completing the
// batch.
func (bw *BatchWriter) Finish() {
	if bw.frameOff >= 0 {
		panic("wire: Finish with a frame still open")
	}
	bw.w.SetU32(bw.start+4, bw.count)
	bw.w.U32(checksum(bw.w.buf[bw.start:]))
}

// BatchReader decodes a batch produced by BatchWriter. Construction
// verifies the checksum over the entire input before any frame is yielded;
// on any failure Next returns nothing and Err reports the latched error,
// exactly as with Reader.
type BatchReader struct {
	r     *Reader
	count uint32
	read  uint32
}

// NewBatchReader opens the batch occupying all of b. Frames returned by
// Next alias b.
func NewBatchReader(b []byte) *BatchReader {
	br := &BatchReader{r: NewReader(nil)}
	if len(b) < batchOverhead {
		br.r.err = ErrTruncated
		return br
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if binary.LittleEndian.Uint32(trailer) != checksum(body) {
		br.r.err = ErrChecksum
		return br
	}
	br.r = NewReader(body)
	if br.r.U32() != batchMagic {
		br.r.err = ErrBadMagic
		return br
	}
	br.count = br.r.U32()
	return br
}

// Len returns the number of frames in the batch (0 after a verification
// failure).
func (br *BatchReader) Len() int {
	if br.r.err != nil {
		return 0
	}
	return int(br.count)
}

// Next returns the next frame, or ok=false at the end of the batch or on
// error. The frame aliases the input buffer.
func (br *BatchReader) Next() ([]byte, bool) {
	if br.r.err != nil || br.read == br.count {
		return nil, false
	}
	n := br.r.U32()
	if br.r.err == nil && n > MaxBytes {
		br.r.err = ErrTooLong
	}
	f := br.r.take(int(n))
	if br.r.err != nil {
		return nil, false
	}
	br.read++
	return f, true
}

// Err returns the first error encountered (checksum, magic, truncation),
// or nil. It is the underlying Reader.Err.
func (br *BatchReader) Err() error { return br.r.Err() }

// Done returns a non-nil error if decoding failed, frames remain
// unconsumed, or trailing bytes follow the last frame.
func (br *BatchReader) Done() error {
	if err := br.r.Err(); err != nil {
		return err
	}
	if br.read != br.count {
		return fmt.Errorf("wire: %d of %d batch frames consumed", br.read, br.count)
	}
	return br.r.Done()
}
