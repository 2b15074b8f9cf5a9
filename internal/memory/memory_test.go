package memory

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReadBackWrites(t *testing.T) {
	a := NewAddressSpace(64)
	data := []byte("the auragen 4000 consists of 2 to 32 clusters")
	a.WriteAt(10, data)
	got := make([]byte, len(data))
	a.ReadAt(10, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q, want %q", got, data)
	}
}

func TestUnwrittenMemoryReadsZero(t *testing.T) {
	a := NewAddressSpace(32)
	buf := make([]byte, 100)
	for i := range buf {
		buf[i] = 0xFF
	}
	a.ReadAt(1000, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestWriteSpanningPages(t *testing.T) {
	a := NewAddressSpace(16)
	data := make([]byte, 50)
	for i := range data {
		data[i] = byte(i + 1)
	}
	a.WriteAt(8, data) // spans pages 0..3
	got := make([]byte, 50)
	a.ReadAt(8, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page write not read back")
	}
	if n := a.DirtyCount(); n != 4 {
		t.Fatalf("DirtyCount = %d, want 4", n)
	}
}

func TestDirtyOnlyOnChange(t *testing.T) {
	a := NewAddressSpace(32)
	a.WriteAt(0, []byte("hello"))
	a.CaptureDirty()
	// Rewriting identical bytes must not dirty the page.
	a.WriteAt(0, []byte("hello"))
	if n := a.DirtyCount(); n != 0 {
		t.Fatalf("identical rewrite dirtied %d pages", n)
	}
	a.WriteAt(0, []byte("hellp"))
	if n := a.DirtyCount(); n != 1 {
		t.Fatalf("changed rewrite dirtied %d pages, want 1", n)
	}
}

func TestZeroWriteToAbsentPageIsNoop(t *testing.T) {
	a := NewAddressSpace(32)
	a.WriteAt(320, make([]byte, 64))
	if n := a.PageCount(); n != 0 {
		t.Fatalf("zero write materialized %d pages", n)
	}
	if n := a.DirtyCount(); n != 0 {
		t.Fatalf("zero write dirtied %d pages", n)
	}
}

func TestCaptureDirtySortedAndClears(t *testing.T) {
	a := NewAddressSpace(16)
	a.WriteAt(16*5, []byte{1})
	a.WriteAt(16*1, []byte{2})
	a.WriteAt(16*9, []byte{3})
	pages := a.CaptureDirty()
	if len(pages) != 3 {
		t.Fatalf("CaptureDirty returned %d pages", len(pages))
	}
	want := []PageNo{1, 5, 9}
	for i, p := range pages {
		if p.No != want[i] {
			t.Errorf("page %d = %d, want %d", i, p.No, want[i])
		}
	}
	if a.DirtyCount() != 0 {
		t.Fatal("CaptureDirty did not clear the dirty set")
	}
	if a.CaptureDirty() != nil {
		t.Fatal("second CaptureDirty returned pages")
	}
}

// TestCaptureDirtyHoldsSyncPointBytes: what a capture's holder reads is the
// page as it was at the capture, whether the process writes it before the
// release (the write goes to a clone) or after (nobody is reading any more).
func TestCaptureDirtyHoldsSyncPointBytes(t *testing.T) {
	a := NewAddressSpace(16)
	a.WriteAt(0, []byte{42})
	pages := a.CaptureDirty()
	a.WriteAt(0, []byte{7})
	if pages[0].Data[0] != 42 {
		t.Fatal("a write reached a page its capture still held")
	}
	sent := append([]byte(nil), pages[0].Data...) // the holder encodes, then releases
	a.Release(pages)
	a.WriteAt(0, []byte{9})
	if sent[0] != 42 {
		t.Fatal("transmitted bytes are not the capture-time bytes")
	}
	got := make([]byte, 1)
	if a.ReadAt(0, got); got[0] != 9 {
		t.Fatalf("space reads %d after the last write, want 9", got[0])
	}
}

func TestInstallRestoresWithoutDirtying(t *testing.T) {
	src := NewAddressSpace(32)
	src.WriteAt(0, []byte("primary state at sync"))
	src.WriteAt(100, []byte("more"))
	pages := src.SnapshotAll()

	dst := NewAddressSpace(32)
	dst.Install(pages)
	if !Equal(src, dst) {
		t.Fatal("Install did not reproduce source space")
	}
	if dst.DirtyCount() != 0 {
		t.Fatal("Install marked pages dirty")
	}
}

func TestEqualTreatsZeroPagesAsAbsent(t *testing.T) {
	a := NewAddressSpace(16)
	b := NewAddressSpace(16)
	a.WriteAt(0, []byte{1}) // materialize then zero
	a.WriteAt(0, []byte{0})
	if !Equal(a, b) {
		t.Fatal("zeroed resident page != absent page")
	}
}

func TestQuickReadWriteConsistency(t *testing.T) {
	// Random writes into a shadow buffer and the address space must agree.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 4096
		a := NewAddressSpace(128)
		shadow := make([]byte, size)
		for i := 0; i < 40; i++ {
			off := rng.Intn(size - 1)
			n := rng.Intn(size-off-1) + 1
			data := make([]byte, n)
			rng.Read(data)
			copy(shadow[off:], data)
			a.WriteAt(int64(off), data)
		}
		got := make([]byte, size)
		a.ReadAt(0, got)
		return bytes.Equal(got, shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDirtyPagesSufficientForReplica(t *testing.T) {
	// Property: applying only the captured deltas to a replica after each
	// round keeps the replica identical to the source — the invariant the
	// page server relies on — whether or not the capture is released before
	// the next round writes.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := NewAddressSpace(64)
		dst := NewAddressSpace(64)
		for round := 0; round < 10; round++ {
			for w := 0; w < 8; w++ {
				off := rng.Intn(2048)
				data := make([]byte, rng.Intn(100)+1)
				rng.Read(data)
				src.WriteAt(int64(off), data)
			}
			pages := src.CaptureDirty()
			dst.Install(pages)
			if rng.Intn(2) == 0 {
				src.Release(pages)
			}
		}
		return Equal(src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHighWater(t *testing.T) {
	a := NewAddressSpace(16)
	if a.HighWater() != 0 {
		t.Fatal("fresh space has nonzero high water")
	}
	a.WriteAt(16*7, []byte{1})
	if hw := a.HighWater(); hw != 8 {
		t.Fatalf("HighWater = %d, want 8", hw)
	}
}

func TestReset(t *testing.T) {
	a := NewAddressSpace(16)
	a.WriteAt(0, []byte{1, 2, 3})
	a.Reset()
	if a.PageCount() != 0 || a.DirtyCount() != 0 || a.HighWater() != 0 {
		t.Fatal("Reset left residual state")
	}
}
