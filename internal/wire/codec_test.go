package wire

import (
	"reflect"
	"runtime"
	"testing"
)

// record exercises every Codec method and helper.
type record struct {
	U8     uint8
	Flag   bool
	U32    uint32
	I32    int32
	U64    uint64
	I64    int64
	Int    int
	Bytes  []byte
	Str    string
	List   []uint64
	Pairs  []record
	Counts map[string]int64
	Inner  *record
}

func (r *record) codec(c *Codec) {
	c.U8(&r.U8)
	c.Bool(&r.Flag)
	c.U32(&r.U32)
	c.I32(&r.I32)
	c.U64(&r.U64)
	c.I64(&r.I64)
	c.Int(&r.Int)
	c.Bytes32(&r.Bytes)
	c.String(&r.Str)
	U64s(c, &r.List)
	for i := range Grow(c, &r.Pairs, 1) {
		r.Pairs[i].codec(c)
	}
	Map(c, &r.Counts, 12, func(k *string, v *int64) {
		c.String(k)
		c.I64(v)
	})
	hasInner := r.Inner != nil
	c.Bool(&hasInner)
	if hasInner {
		if r.Inner == nil {
			r.Inner = new(record)
		}
		c.Embed(r.Inner.codec)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	in := &record{
		U8: 1, Flag: true, U32: 2, I32: -3, U64: 4, I64: -5, Int: -6,
		Bytes: []byte("bytes"), Str: "str", List: []uint64{7, 8},
		Pairs:  []record{{U8: 9}, {Str: "x"}},
		Counts: map[string]int64{"b": 2, "a": 1, "c": 3},
		Inner:  &record{Str: "inner", Counts: map[string]int64{"z": 26}},
	}
	b := Encode(in.codec)
	out := new(record)
	if err := Decode(b, out.codec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("decoded %+v, want %+v", out, in)
	}
	// Truncation anywhere and a trailing byte both fail.
	for cut := 0; cut < len(b); cut++ {
		if err := Decode(b[:cut], new(record).codec); err == nil {
			t.Fatalf("truncation to %d bytes decoded", cut)
		}
	}
	if err := Decode(append(b, 0), new(record).codec); err == nil {
		t.Fatal("a trailing byte decoded")
	}
}

// TestCodecEmptyDecodesToNil: the one empty-value rule — empty byte
// strings, slices and maps decode to nil, so a round trip of a zero value
// is DeepEqual to it.
func TestCodecEmptyDecodesToNil(t *testing.T) {
	in := &record{Bytes: []byte{}, List: []uint64{}, Pairs: []record{}, Counts: map[string]int64{}}
	out := new(record)
	if err := Decode(Encode(in.codec), out.codec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, new(record)) {
		t.Fatalf("decoded %+v, want the zero record", out)
	}
}

// TestMapKeyOrder: a map encodes in ascending key order, so its encoding
// does not depend on how it was built.
func TestMapKeyOrder(t *testing.T) {
	a := &record{Counts: map[string]int64{}}
	b := &record{Counts: map[string]int64{}}
	keys := []string{"m", "c", "x", "a", "q"}
	for i, k := range keys {
		a.Counts[k] = int64(i)
		b.Counts[keys[len(keys)-1-i]] = int64(len(keys) - 1 - i)
	}
	for i := 0; i < 20; i++ {
		if string(Encode(a.codec)) != string(Encode(b.codec)) {
			t.Fatal("equal maps encoded differently")
		}
	}
}

// TestImpossibleCountFailsBeforeAllocating: a count of 0xFFFFFFFF with
// nothing behind it fails Grow and Map without sizing an allocation by it.
func TestImpossibleCountFailsBeforeAllocating(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	descs := map[string]func(*Codec){
		"Grow": func(c *Codec) {
			var s []record
			Grow(c, &s, 1)
		},
		"U64s": func(c *Codec) {
			var s []uint64
			U64s(c, &s)
		},
		"Map": func(c *Codec) {
			var m map[uint64]uint64
			Map(c, &m, 16, func(k, v *uint64) {
				c.U64(k)
				c.U64(v)
			})
		},
	}
	for name, desc := range descs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			if err := Decode(huge, desc); err == nil {
				t.Fatalf("%s accepted an impossible count", name)
			}
		}
		runtime.ReadMemStats(&after)
		if perRun := (after.TotalAlloc - before.TotalAlloc) / 100; perRun >= 1<<10 {
			t.Errorf("%s allocated %d B per impossible count", name, perRun)
		}
	}
}
