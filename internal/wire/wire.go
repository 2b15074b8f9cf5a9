// Package wire implements the deterministic binary encoding used by kernel
// payloads (sync messages, birth notices, page traffic, server protocols).
//
// The encoding is little-endian with length-prefixed byte strings. A Writer
// accumulates bytes; a Reader consumes them and latches the first error so
// decoders can be written as straight-line code followed by a single Err
// check, in the style of bufio.Scanner.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated is reported when a Reader runs out of bytes.
var ErrTruncated = errors.New("wire: truncated payload")

// ErrTooLong is reported when a length prefix exceeds MaxBytes.
var ErrTooLong = errors.New("wire: byte string too long")

// MaxBytes bounds a single length-prefixed byte string. It protects
// decoders from corrupt length prefixes; no legitimate kernel payload
// approaches it.
const MaxBytes = 1 << 26 // 64 MiB

// Writer accumulates an encoded payload.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given capacity hint.
func NewWriter(capHint int) *Writer {
	return &Writer{buf: make([]byte, 0, capHint)}
}

// Bytes returns the encoded payload. The slice aliases the Writer's
// internal buffer; the caller must not keep writing afterwards.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes encoded so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset truncates the Writer to length zero, retaining the allocated
// buffer for reuse. Previously returned Bytes() slices are invalidated.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// SetU32 overwrites a previously written little-endian uint32 at byte
// offset off. Batch framing uses it to patch length and count
// placeholders; off must point at bytes already written.
func (w *Writer) SetU32(off int, v uint32) {
	binary.LittleEndian.PutUint32(w.buf[off:off+4], v)
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// I32 appends a little-endian int32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// F64 appends a float64 in IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes32 appends a uint32 length prefix followed by b.
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader consumes an encoded payload. The first decoding error is latched;
// subsequent reads return zero values.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b. The Reader does not copy b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first error encountered, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Done returns a non-nil error if decoding failed or bytes remain
// unconsumed. Decoders call it last to reject trailing garbage.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// count consumes a uint32 element count. A count of elements at least
// minSize bytes each that cannot fit in the remaining bytes fails the
// decode (ErrTruncated) and returns 0, so a corrupt count never sizes an
// allocation.
func (r *Reader) count(minSize int) int {
	n := r.U32()
	if uint64(n)*uint64(minSize) > uint64(r.Remaining()) {
		r.fail()
		return 0
	}
	return int(n)
}

// U8 consumes one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool consumes a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U16 consumes a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 consumes a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 consumes a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 consumes a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// I32 consumes a little-endian int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// F64 consumes an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// View32 consumes a uint32 length prefix and that many bytes. The result
// aliases the input buffer: it is valid only while that buffer is, and
// read-only unless the caller owns the buffer.
func (r *Reader) View32() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if n > MaxBytes {
		r.err = ErrTooLong
		return nil
	}
	return r.take(int(n))
}

// Bytes32 consumes a uint32 length prefix and that many bytes. The result
// is a copy, safe to retain.
func (r *Reader) Bytes32() []byte {
	b := r.View32()
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Rest consumes and returns every remaining byte. The result aliases the
// input buffer. Decoders whose payload ends in an embedded batch use it to
// hand the tail to a BatchReader.
func (r *Reader) Rest() []byte { return r.take(r.Remaining()) }

// String consumes a length-prefixed string.
func (r *Reader) String() string { return string(r.View32()) }
