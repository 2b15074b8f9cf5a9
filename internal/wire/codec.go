package wire

import (
	"cmp"
	"slices"
)

// Codec describes a payload once, for both directions. Built over a Writer
// (EncodeTo) each method appends the field it is handed; built over a
// Reader (DecodeFrom) it stores the next value read into that field. A
// payload type therefore has one codec method, its field order is its wire
// order, and that one method is both its encoder and its decoder.
//
// Decoding fills a fresh value: scalars, byte strings and slices are
// overwritten, map entries added. The Reader latches the first error, and
// the fields after it decode to zero. Empty byte strings, slices and maps
// decode to nil.
type Codec struct {
	w *Writer
	r *Reader
}

// EncodeTo returns a Codec that appends to w.
func EncodeTo(w *Writer) *Codec { return &Codec{w: w} }

// DecodeFrom returns a Codec that consumes r.
func DecodeFrom(r *Reader) *Codec { return &Codec{r: r} }

// Encode returns the encoding desc describes, in a fresh buffer the
// caller may retain: kernel payloads, server protocols and sync blobs. Only
// the kernel's transmit path encodes into a writer it reuses.
func Encode(desc func(*Codec)) []byte {
	w := NewWriter(64)
	desc(EncodeTo(w))
	return w.Bytes()
}

// Decode runs desc over b. Truncation, an impossible count and trailing
// bytes all fail it; what desc has filled by then is to be discarded.
func Decode(b []byte, desc func(*Codec)) error {
	r := NewReader(b)
	desc(DecodeFrom(r))
	return r.Done()
}

// U8 codes one byte.
func (c *Codec) U8(v *uint8) {
	if c.r != nil {
		*v = c.r.U8()
	} else {
		c.w.U8(*v)
	}
}

// Bool codes a boolean as one byte.
func (c *Codec) Bool(v *bool) {
	if c.r != nil {
		*v = c.r.Bool()
	} else {
		c.w.Bool(*v)
	}
}

// U32 codes a little-endian uint32.
func (c *Codec) U32(v *uint32) {
	if c.r != nil {
		*v = c.r.U32()
	} else {
		c.w.U32(*v)
	}
}

// I32 codes a little-endian int32.
func (c *Codec) I32(v *int32) {
	if c.r != nil {
		*v = c.r.I32()
	} else {
		c.w.I32(*v)
	}
}

// U64 codes a little-endian uint64.
func (c *Codec) U64(v *uint64) {
	if c.r != nil {
		*v = c.r.U64()
	} else {
		c.w.U64(*v)
	}
}

// I64 codes a little-endian int64.
func (c *Codec) I64(v *int64) {
	if c.r != nil {
		*v = c.r.I64()
	} else {
		c.w.I64(*v)
	}
}

// Int codes an int as a little-endian int64.
func (c *Codec) Int(v *int) {
	if c.r != nil {
		*v = int(c.r.I64())
	} else {
		c.w.I64(int64(*v))
	}
}

// Bytes32 codes a uint32 length prefix and that many bytes. Decoding
// copies them out of the input.
func (c *Codec) Bytes32(v *[]byte) {
	if c.r == nil {
		c.w.Bytes32(*v)
		return
	}
	*v = nil
	if b := c.r.View32(); len(b) > 0 {
		*v = append([]byte(nil), b...)
	}
}

// String codes a length-prefixed string.
func (c *Codec) String(v *string) {
	if c.r != nil {
		*v = c.r.String()
	} else {
		c.w.String(*v)
	}
}

// Embed codes a nested payload, described by desc, behind a uint32 length
// prefix. Decoding holds the nested payload to the same rules as the
// outer one: it must be consumed exactly.
func (c *Codec) Embed(desc func(*Codec)) {
	if c.r == nil {
		off := c.w.Len()
		c.w.U32(0)
		desc(c)
		c.w.SetU32(off, uint32(c.w.Len()-off-4))
		return
	}
	r := NewReader(c.r.View32())
	desc(DecodeFrom(r))
	if err := r.Done(); err != nil && c.r.err == nil {
		c.r.err = err
	}
}

// Grow codes the length of *s and returns it, for the caller's loop over
// the elements. Encoding writes len(*s). Decoding reads a count, sets *s to
// that many zero elements (nil for none) and returns the count; a count
// whose elements, at minSize bytes each, cannot fit in the bytes left fails
// the decode before anything is allocated.
func Grow[T any](c *Codec, s *[]T, minSize int) int {
	if c.r == nil {
		c.w.U32(uint32(len(*s)))
		return len(*s)
	}
	n := c.r.count(minSize)
	*s = nil
	if n > 0 {
		*s = make([]T, n)
	}
	return n
}

// U64s codes a slice of 64-bit values (pids, channel ids, logged
// results) as a count followed by the values.
func U64s[T ~uint64](c *Codec, s *[]T) {
	for i := range Grow(c, s, 8) {
		if c.r != nil {
			(*s)[i] = T(c.r.U64())
		} else {
			c.w.U64(uint64((*s)[i]))
		}
	}
}

// Map codes a map as a count followed by its entries in ascending key
// order, so equal maps encode to equal bytes; entry codes one key and its
// value. Decoding adds the entries to *m, making it when there is at least
// one, under the same count bound as Grow.
func Map[K cmp.Ordered, V any](c *Codec, m *map[K]V, minSize int, entry func(*K, *V)) {
	if c.r == nil {
		c.w.U32(uint32(len(*m)))
		if len(*m) == 0 {
			return
		}
		keys := make([]K, 0, len(*m))
		for k := range *m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		var k K
		var v V
		for _, k = range keys {
			v = (*m)[k]
			entry(&k, &v)
		}
		return
	}
	n := c.r.count(minSize)
	if n == 0 {
		return
	}
	if *m == nil {
		*m = make(map[K]V, n)
	}
	var k K
	var v V
	for range n {
		k, v = *new(K), *new(V)
		entry(&k, &v)
		(*m)[k] = v
	}
}
