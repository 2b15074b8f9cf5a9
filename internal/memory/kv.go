package memory

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"auragen/internal/wire"
)

// KV is a deterministic key/value heap stored inside an AddressSpace.
//
// Guest programs keep all mutable state here so that the process state is
// exactly its address space, as the paper requires: the sync snapshot
// ("changes in the address space", §7.8) then captures guest state with
// page granularity, and restoring the backup page account reconstitutes the
// guest byte-for-byte.
//
// Mutations are buffered in an ordinary map; Flush brings the image in the
// address space up to date. The image is canonical — an AUR2 header, then
// the records packed in sorted key order — so identical logical states
// produce identical bytes (and therefore identical dirty-page sets across
// primary and backup). The kernel calls Flush as the first step of every
// sync.
//
// KV remembers the layout of the image it last wrote or loaded: the record
// order (keys) and, on every record, its place in that order and the offset
// of its value bytes. A Put that keeps a value's length leaves the layout
// alone, so Flush only patches those value bytes; anything else (an
// insert, a delete, a value changing length) moves every later record, and
// Flush rewrites the image from the first record affected to the end.
type KV struct {
	space *AddressSpace
	data  map[string]*record
	// keys is the record order of the image as last laid out.
	keys []string
	// stale is the index in keys of the first record the image no longer
	// holds in the right place (laidOut if there is none).
	stale int
	// rekeyed reports a key inserted or deleted since keys was built.
	rekeyed bool
	// patch lists the records whose value changed at the same length
	// since the last Flush; each is on it once (record.dirty).
	patch []*record
	// flushedLen is the length of the image, so Flush can zero the tail
	// when the heap shrinks.
	flushedLen int
	// spare holds records allocated ahead of the inserts that will use
	// them, a heap's worth at a time.
	spare []record
}

// record is one key's value and where the image holds it.
type record struct {
	val []byte
	// idx is the record's index in KV.keys, -1 until a layout places it;
	// off is then the offset of its value bytes in the address space.
	idx   int
	off   int64
	dirty bool
	// small backs val when the value fits (every integer does), sparing
	// an allocation per record.
	small [8]byte
}

// set makes rec hold a copy of value.
func (rec *record) set(value []byte) {
	if len(value) <= len(rec.small) {
		rec.val = rec.small[:len(value)]
	} else {
		rec.val = make([]byte, len(value))
	}
	copy(rec.val, value)
}

const (
	kvMagic uint32 = 0x41555232 // "AUR2"
	// kvRecords is the offset of the first record: magic, body length and
	// record count come before it.
	kvRecords = 12
	laidOut   = math.MaxInt
)

// NewKV returns a KV backed by space, initialized from the bytes already
// present there (an empty space yields an empty heap). Recovery constructs
// a KV over the restored page account to recover guest state.
func NewKV(space *AddressSpace) (*KV, error) {
	kv := &KV{space: space, data: make(map[string]*record), stale: laidOut}
	if err := kv.load(); err != nil {
		return nil, err
	}
	return kv, nil
}

// load deserializes the heap image at offset 0 of the address space and
// records its layout. Values alias the one private copy of the image.
func (kv *KV) load() error {
	var hdr [8]byte
	kv.space.ReadAt(0, hdr[:])
	magic := binary.LittleEndian.Uint32(hdr[0:4])
	if magic == 0 {
		// Fresh address space: empty heap, and no header yet.
		kv.stale = 0
		return nil
	}
	if magic != kvMagic {
		return fmt.Errorf("memory: KV heap has bad magic %#x", magic)
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > wire.MaxBytes {
		return fmt.Errorf("memory: KV heap length %d exceeds limit", n)
	}
	body := make([]byte, n)
	kv.space.ReadAt(8, body)
	r := wire.NewReader(body)
	count := r.U32()
	if uint64(count)*8 > uint64(n) {
		return fmt.Errorf("memory: KV heap corrupt: %d records in %d bytes", count, n)
	}
	recs := make([]record, count)
	kv.keys = make([]string, 0, count)
	for i := range recs {
		k := r.String()
		v := r.View32()
		if r.Err() != nil {
			break
		}
		if i > 0 && k <= kv.keys[i-1] {
			// Not the canonical order: the next Flush rewrites it all.
			kv.stale, kv.rekeyed = 0, true
		}
		recs[i] = record{val: v, idx: i, off: int64(8 + len(body) - r.Remaining() - len(v))}
		kv.data[k] = &recs[i]
		kv.keys = append(kv.keys, k)
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("memory: KV heap corrupt: %w", err)
	}
	kv.flushedLen = 8 + int(n)
	return nil
}

// Flush brings the heap image up to date with the map: a change of layout
// rewrites the records from the first one affected to the end (for a fresh
// heap, the whole image), and values that only changed at their old length
// are patched in place. Only bytes that differ from the previous image
// dirty their pages (WriteAt diffs), so the sync cost tracks the amount of
// state actually changed.
func (kv *KV) Flush() {
	if kv.rekeyed {
		keys := kv.Keys()
		// Records keep their place up to the first key that differs.
		i := 0
		for i < len(keys) && i < len(kv.keys) && keys[i] == kv.keys[i] {
			i++
		}
		kv.stale = min(kv.stale, i)
		kv.keys, kv.rekeyed = keys, false
	}
	if kv.stale != laidOut {
		kv.layout(kv.stale)
		kv.stale = laidOut
	}
	for _, rec := range kv.patch {
		if rec.dirty { // neither deleted nor rewritten by the layout above
			kv.space.WriteAt(rec.off, rec.val)
			rec.dirty = false
		}
	}
	kv.patch = kv.patch[:0]
}

// layout rewrites the image from record first to the end, then the header
// in front of it.
func (kv *KV) layout(first int) {
	off := int64(kvRecords)
	if first > 0 {
		prev := kv.data[kv.keys[first-1]]
		off = prev.off + int64(len(prev.val))
	}
	w := wire.NewWriter(64 + max(kv.flushedLen-int(off), 0))
	for i, k := range kv.keys[first:] {
		rec := kv.data[k]
		w.String(k)
		w.Bytes32(rec.val)
		rec.idx, rec.off, rec.dirty = first+i, off+int64(w.Len()-len(rec.val)), false
	}
	kv.space.WriteAt(off, w.Bytes())
	newLen := int(off) + w.Len()
	var hdr [kvRecords]byte
	binary.LittleEndian.PutUint32(hdr[0:4], kvMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(newLen-8))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(kv.keys)))
	kv.space.WriteAt(0, hdr[:])
	if newLen < kv.flushedLen {
		// Zero the stale tail so shrink + regrow cannot resurrect old
		// bytes and the image stays canonical.
		kv.space.WriteAt(int64(newLen), make([]byte, kv.flushedLen-newLen))
	}
	kv.flushedLen = newLen
}

// relayout notes that rec's bytes in the image, and with them every later
// record, are out of place.
func (kv *KV) relayout(rec *record) {
	if rec.idx >= 0 {
		kv.stale = min(kv.stale, rec.idx)
	}
}

// Get returns the value stored under key and whether it was present. The
// returned slice is the stored one: it is valid until the next Put or
// Delete of key, and callers must not mutate it (use Put).
func (kv *KV) Get(key string) ([]byte, bool) {
	rec, ok := kv.data[key]
	if !ok {
		return nil, false
	}
	return rec.val, true
}

// Put stores a copy of value under key.
func (kv *KV) Put(key string, value []byte) {
	rec, ok := kv.data[key]
	switch {
	case !ok:
		if len(kv.spare) == 0 {
			kv.spare = make([]record, max(16, len(kv.data)))
		}
		rec, kv.spare = &kv.spare[0], kv.spare[1:]
		rec.set(value)
		rec.idx = -1
		kv.data[key] = rec
		kv.rekeyed = true
	case len(rec.val) != len(value):
		rec.set(value)
		kv.relayout(rec)
	case !bytes.Equal(rec.val, value):
		copy(rec.val, value)
		if !rec.dirty && rec.idx >= 0 {
			rec.dirty = true
			kv.patch = append(kv.patch, rec)
		}
	}
}

// Delete removes key if present.
func (kv *KV) Delete(key string) {
	rec, ok := kv.data[key]
	if !ok {
		return
	}
	delete(kv.data, key)
	rec.dirty = false
	kv.rekeyed = true
	kv.relayout(rec)
}

// Len returns the number of keys.
func (kv *KV) Len() int { return len(kv.data) }

// Keys returns every key in sorted order.
func (kv *KV) Keys() []string {
	keys := make([]string, 0, len(kv.data))
	for k := range kv.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// GetString returns the value under key as a string ("" if absent).
func (kv *KV) GetString(key string) string {
	v, _ := kv.Get(key)
	return string(v)
}

// PutString stores a string value.
func (kv *KV) PutString(key, value string) { kv.Put(key, []byte(value)) }

// GetUint64 returns the value under key as a uint64 (0 if absent or
// malformed).
func (kv *KV) GetUint64(key string) uint64 {
	v, ok := kv.Get(key)
	if !ok || len(v) != 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

// PutUint64 stores a uint64 value.
func (kv *KV) PutUint64(key string, value uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], value)
	kv.Put(key, b[:])
}

// GetInt64 returns the value under key as an int64 (0 if absent).
func (kv *KV) GetInt64(key string) int64 { return int64(kv.GetUint64(key)) }

// PutInt64 stores an int64 value.
func (kv *KV) PutInt64(key string, value int64) { kv.PutUint64(key, uint64(value)) }

// Add adds delta to the int64 stored under key and returns the new value.
func (kv *KV) Add(key string, delta int64) int64 {
	v := kv.GetInt64(key) + delta
	kv.PutInt64(key, v)
	return v
}
