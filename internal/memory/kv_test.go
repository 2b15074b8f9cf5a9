package memory

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"auragen/internal/wire"
)

func TestKVBasicOps(t *testing.T) {
	kv, err := NewKV(NewAddressSpace(64))
	if err != nil {
		t.Fatal(err)
	}
	kv.Put("a", []byte{1, 2})
	kv.PutString("b", "hello")
	kv.PutUint64("c", 99)
	kv.PutInt64("d", -5)

	if v, ok := kv.Get("a"); !ok || !bytes.Equal(v, []byte{1, 2}) {
		t.Errorf("Get(a) = %v, %v", v, ok)
	}
	if got := kv.GetString("b"); got != "hello" {
		t.Errorf("GetString(b) = %q", got)
	}
	if got := kv.GetUint64("c"); got != 99 {
		t.Errorf("GetUint64(c) = %d", got)
	}
	if got := kv.GetInt64("d"); got != -5 {
		t.Errorf("GetInt64(d) = %d", got)
	}
	kv.Delete("a")
	if _, ok := kv.Get("a"); ok {
		t.Error("Delete did not remove key")
	}
	if kv.Len() != 3 {
		t.Errorf("Len = %d, want 3", kv.Len())
	}
	if got := kv.Add("counter", 4); got != 4 {
		t.Errorf("Add = %d", got)
	}
	if got := kv.Add("counter", -1); got != 3 {
		t.Errorf("Add = %d", got)
	}
}

func TestKVPutCopies(t *testing.T) {
	kv, _ := NewKV(NewAddressSpace(64))
	buf := []byte{1, 2, 3}
	kv.Put("k", buf)
	buf[0] = 9
	if v, _ := kv.Get("k"); v[0] != 1 {
		t.Fatal("Put did not copy the value")
	}
}

func TestKVFlushLoadRoundTrip(t *testing.T) {
	space := NewAddressSpace(128)
	kv, _ := NewKV(space)
	kv.PutString("account/alice", "100")
	kv.PutString("account/bob", "250")
	kv.PutUint64("txcount", 7)
	kv.Flush()

	// Reconstructing over the same space (as recovery does over a restored
	// page account) must see identical state.
	kv2, err := NewKV(space)
	if err != nil {
		t.Fatal(err)
	}
	if got := kv2.GetString("account/alice"); got != "100" {
		t.Errorf("alice = %q", got)
	}
	if got := kv2.GetString("account/bob"); got != "250" {
		t.Errorf("bob = %q", got)
	}
	if got := kv2.GetUint64("txcount"); got != 7 {
		t.Errorf("txcount = %d", got)
	}
}

func TestKVFlushDeterministic(t *testing.T) {
	// Same logical content inserted in different orders must serialize to
	// identical bytes, so primary and backup dirty identical pages.
	s1 := NewAddressSpace(64)
	s2 := NewAddressSpace(64)
	kv1, _ := NewKV(s1)
	kv2, _ := NewKV(s2)
	kv1.PutString("x", "1")
	kv1.PutString("y", "2")
	kv1.PutString("z", "3")
	kv2.PutString("z", "3")
	kv2.PutString("x", "1")
	kv2.PutString("y", "2")
	kv1.Flush()
	kv2.Flush()
	if !Equal(s1, s2) {
		t.Fatal("insertion order leaked into serialized image")
	}
}

func TestKVShrinkThenRegrow(t *testing.T) {
	space := NewAddressSpace(64)
	kv, _ := NewKV(space)
	kv.PutString("big", "0123456789012345678901234567890123456789")
	kv.Flush()
	kv.Delete("big")
	kv.PutString("s", "x")
	kv.Flush()
	kv2, err := NewKV(space)
	if err != nil {
		t.Fatal(err)
	}
	if kv2.Len() != 1 || kv2.GetString("s") != "x" {
		t.Fatalf("after shrink: keys=%v", kv2.Keys())
	}
	// Regrowing must not resurrect stale bytes.
	kv2.PutString("big2", "abcdefghijabcdefghijabcdefghij")
	kv2.Flush()
	kv3, err := NewKV(space)
	if err != nil {
		t.Fatal(err)
	}
	if kv3.GetString("big2") != "abcdefghijabcdefghijabcdefghij" {
		t.Fatal("regrown value corrupt")
	}
}

func TestKVUnchangedFlushDirtiesNothing(t *testing.T) {
	space := NewAddressSpace(64)
	kv, _ := NewKV(space)
	kv.PutString("k", "v")
	kv.Flush()
	space.ClearDirty()
	kv.Flush() // no logical change
	if n := space.DirtyCount(); n != 0 {
		t.Fatalf("no-op Flush dirtied %d pages", n)
	}
}

func TestKVCorruptMagicRejected(t *testing.T) {
	space := NewAddressSpace(64)
	space.WriteAt(0, []byte{0xde, 0xad, 0xbe, 0xef, 1, 0, 0, 0})
	if _, err := NewKV(space); err == nil {
		t.Fatal("corrupt heap accepted")
	}
}

func TestKVQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		space := NewAddressSpace(128)
		kv, _ := NewKV(space)
		shadow := make(map[string]string)
		for i := 0; i < 50; i++ {
			k := fmt.Sprintf("key%d", rng.Intn(20))
			switch rng.Intn(3) {
			case 0, 1:
				v := fmt.Sprintf("val%d", rng.Int63())
				kv.PutString(k, v)
				shadow[k] = v
			case 2:
				kv.Delete(k)
				delete(shadow, k)
			}
			if rng.Intn(5) == 0 {
				kv.Flush()
				reloaded, err := NewKV(space)
				if err != nil {
					return false
				}
				kv = reloaded
			}
		}
		kv.Flush()
		final, err := NewKV(space)
		if err != nil {
			return false
		}
		if final.Len() != len(shadow) {
			return false
		}
		for k, v := range shadow {
			if final.GetString(k) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// kvRec is one record of a hand-built heap image.
type kvRec struct {
	k string
	v []byte
}

// encodeImage serialises recs, in the order given, behind an AUR2 header.
func encodeImage(recs []kvRec) []byte {
	w := wire.NewWriter(64)
	w.U32(kvMagic)
	w.U32(0)
	w.U32(uint32(len(recs)))
	for _, r := range recs {
		w.String(r.k)
		w.Bytes32(r.v)
	}
	w.SetU32(4, uint32(w.Len()-8))
	return w.Bytes()
}

// referenceFlush is the flush this package had before KV kept a layout
// index — sort every key, serialise the whole heap, let WriteAt diff it,
// zero the tail — kept as the oracle the incremental Flush is held to. It
// returns the image length, which the next call needs as prevLen.
func referenceFlush(space *AddressSpace, m map[string][]byte, prevLen int) int {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	recs := make([]kvRec, len(keys))
	for i, k := range keys {
		recs[i] = kvRec{k, m[k]}
	}
	img := encodeImage(recs)
	space.WriteAt(0, img)
	if len(img) < prevLen {
		space.WriteAt(int64(len(img)), make([]byte, prevLen-len(img)))
	}
	return len(img)
}

// checkKVHolds fails unless kv holds exactly the logical map m.
func checkKVHolds(t *testing.T, kv *KV, m map[string][]byte) {
	t.Helper()
	if kv.Len() != len(m) {
		t.Fatalf("Len = %d, want %d (keys %v)", kv.Len(), len(m), kv.Keys())
	}
	for k, want := range m {
		if got, ok := kv.Get(k); !ok || !bytes.Equal(got, want) {
			t.Fatalf("Get(%q) = %x, %v; want %x", k, got, ok, want)
		}
	}
}

func samePages(a, b []Page) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].No != b[i].No || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// TestKVFlushDifferential drives random same-size puts, resizing puts,
// inserts, deletes and no-op puts, flushing (and sometimes reloading, so
// the index comes from load) at random points. After every flush the
// address space must equal what the whole-image reference flush makes of
// the same map from the same previous image, with the same pages dirtied,
// and must equal a fresh KV populated with that map and flushed once.
func TestKVFlushDifferential(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		space, ref := NewAddressSpace(64), NewAddressSpace(64)
		kv, err := NewKV(space)
		if err != nil {
			t.Fatal(err)
		}
		shadow := make(map[string][]byte)
		refLen := 0
		randBytes := func(n int) []byte {
			b := make([]byte, n)
			rng.Read(b)
			return b
		}
		put := func(k string, v []byte) {
			kv.Put(k, v)
			shadow[k] = v
		}
		anyKey := func() (string, bool) {
			if len(shadow) == 0 {
				return "", false
			}
			return kv.Keys()[rng.Intn(len(shadow))], true
		}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // same-size put
				if k, ok := anyKey(); ok {
					put(k, randBytes(len(shadow[k])))
				}
			case op < 5: // resizing put
				if k, ok := anyKey(); ok {
					put(k, randBytes(rng.Intn(24)))
				}
			case op < 7: // insert (or overwrite) from a small key universe
				put(fmt.Sprintf("k%0*d", 1+rng.Intn(3), rng.Intn(60)), randBytes(rng.Intn(24)))
			case op < 8:
				if k, ok := anyKey(); ok {
					kv.Delete(k)
					delete(shadow, k)
				}
			case op < 9: // no-op put
				if k, ok := anyKey(); ok {
					put(k, append([]byte{}, shadow[k]...))
				}
			}
			if rng.Intn(6) != 0 {
				continue
			}
			kv.Flush()
			refLen = referenceFlush(ref, shadow, refLen)
			if !Equal(space, ref) {
				t.Fatalf("seed %d step %d: image differs from the whole-image flush", seed, step)
			}
			if !samePages(space.CaptureDirty(), ref.CaptureDirty()) {
				t.Fatalf("seed %d step %d: dirty pages differ from the whole-image flush", seed, step)
			}
			freshSpace := NewAddressSpace(64)
			fresh, _ := NewKV(freshSpace)
			for k, v := range shadow {
				fresh.Put(k, v)
			}
			fresh.Flush()
			if !Equal(space, freshSpace) {
				t.Fatalf("seed %d step %d: image is not a function of the map alone", seed, step)
			}
			reloaded, err := NewKV(space)
			if err != nil {
				t.Fatalf("seed %d step %d: reload: %v", seed, step, err)
			}
			checkKVHolds(t, reloaded, shadow)
			if rng.Intn(2) == 0 {
				kv = reloaded
			}
		}
	}
}

// TestKVReloadThenPatch covers the index built by load: a recovered heap
// patches a same-size value in place exactly like the heap that wrote it.
func TestKVReloadThenPatch(t *testing.T) {
	space, ref := NewAddressSpace(64), NewAddressSpace(64)
	kv, _ := NewKV(space)
	shadow := make(map[string][]byte)
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("acct/%d", i)
		shadow[k] = []byte{byte(i), 0, 0, 0, 0, 0, 0, 0}
		kv.Put(k, shadow[k])
	}
	kv.Flush()
	refLen := referenceFlush(ref, shadow, 0)
	space.ClearDirty()
	ref.ClearDirty()

	kv, err := NewKV(space)
	if err != nil {
		t.Fatal(err)
	}
	shadow["acct/31"] = []byte{9, 9, 9, 9, 9, 9, 9, 9}
	kv.Put("acct/31", shadow["acct/31"])
	kv.Flush()
	referenceFlush(ref, shadow, refLen)
	if n := space.DirtyCount(); n < 1 || n > 2 {
		t.Fatalf("one 8-byte value dirtied %d pages", n)
	}
	if !Equal(space, ref) || !samePages(space.CaptureDirty(), ref.CaptureDirty()) {
		t.Fatal("patch after reload differs from the whole-image flush")
	}
}

// TestKVNonCanonicalImage loads hand-built images whose records are out of
// order or repeat a key: load must accept them (later record wins) and the
// next Flush must rewrite the whole image canonically.
func TestKVNonCanonicalImage(t *testing.T) {
	for name, recs := range map[string][]kvRec{
		"out of order": {{"m", []byte("1")}, {"z", []byte("22")}, {"a", []byte("333")}},
		"repeated key": {{"a", []byte("old")}, {"b", []byte("2")}, {"a", []byte("new")}},
	} {
		space := NewAddressSpace(64)
		space.WriteAt(0, encodeImage(recs))
		want := make(map[string][]byte)
		for _, r := range recs {
			want[r.k] = r.v
		}

		kv, err := NewKV(space)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkKVHolds(t, kv, want)
		want["a"] = []byte("xyz") // same length as either image's last "a"
		kv.Put("a", want["a"])
		kv.Flush()
		ref := NewAddressSpace(64)
		referenceFlush(ref, want, 0)
		if !Equal(space, ref) {
			t.Fatalf("%s: Flush left a non-canonical image", name)
		}
		reloaded, err := NewKV(space)
		if err != nil {
			t.Fatalf("%s: reload: %v", name, err)
		}
		checkKVHolds(t, reloaded, want)
	}
}

// TestKVSameSizePutFlushIsCheap pins the point of the layout index: on a
// 4096-key heap, changing one value at its old length and flushing touches
// that value's page and allocates nothing.
func TestKVSameSizePutFlushIsCheap(t *testing.T) {
	space := NewAddressSpace(1024)
	kv, _ := NewKV(space)
	for i := 0; i < 4096; i++ {
		kv.PutUint64(fmt.Sprintf("key/%04d", i), uint64(i))
	}
	kv.Flush()
	space.ClearDirty()
	var n uint64
	allocs := testing.AllocsPerRun(100, func() {
		n++
		kv.PutUint64("key/2048", n<<32)
		kv.Flush()
	})
	if allocs != 0 {
		t.Errorf("same-size Put + Flush allocates %.0f times", allocs)
	}
	if d := space.DirtyCount(); d != 1 {
		t.Errorf("same-size Put + Flush dirtied %d pages, want 1", d)
	}
	if got, _ := NewKV(space); got.GetUint64("key/2048") != n<<32 {
		t.Error("patched value did not reach the image")
	}
}
