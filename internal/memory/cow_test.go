package memory

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
)

// TestCaptureDirtyImmutableUnderWrites: pages captured by CaptureDirty keep
// their contents even when the primary rewrites them while the capture is
// outstanding (copy-on-write), so a sync can stream them out while the
// process keeps executing.
func TestCaptureDirtyImmutableUnderWrites(t *testing.T) {
	a := NewAddressSpace(64)
	a.WriteAt(0, bytes.Repeat([]byte{0xAA}, 64))
	a.WriteAt(64, bytes.Repeat([]byte{0xBB}, 64))

	cap1 := a.CaptureDirty()
	if len(cap1) != 2 {
		t.Fatalf("captured %d pages, want 2", len(cap1))
	}
	if a.DirtyCount() != 0 {
		t.Fatalf("dirty count %d after capture, want 0", a.DirtyCount())
	}
	if a.FrozenCount() != 2 {
		t.Fatalf("frozen count %d after capture, want 2", a.FrozenCount())
	}

	// Primary keeps executing: rewrite page 0, leave page 1 untouched.
	a.WriteAt(0, bytes.Repeat([]byte{0xCC}, 64))

	for _, b := range cap1[0].Data {
		if b != 0xAA {
			t.Fatalf("captured page 0 mutated: %#x", b)
		}
	}
	if a.FrozenCount() != 1 {
		t.Fatalf("frozen count %d after COW write, want 1", a.FrozenCount())
	}

	// The space itself sees the new contents.
	got := make([]byte, 64)
	a.ReadAt(0, got)
	for _, b := range got {
		if b != 0xCC {
			t.Fatalf("space page 0 = %#x, want 0xCC", b)
		}
	}

	// The rewritten page is dirty again and the next capture ships it.
	cap2 := a.CaptureDirty()
	if len(cap2) != 1 || cap2[0].No != 0 {
		t.Fatalf("second capture = %v, want page 0 only", cap2)
	}
	for _, b := range cap2[0].Data {
		if b != 0xCC {
			t.Fatalf("second capture page 0 = %#x, want 0xCC", b)
		}
	}
}

// TestCaptureDirtyIdenticalRewriteIsFree: rewriting identical bytes to a
// frozen page neither copies nor re-dirties it (the MMU-dirty-bit analogy
// holds through COW).
func TestCaptureDirtyIdenticalRewriteIsFree(t *testing.T) {
	a := NewAddressSpace(64)
	data := bytes.Repeat([]byte{7}, 64)
	a.WriteAt(0, data)
	_ = a.CaptureDirty()
	a.WriteAt(0, data)
	if a.FrozenCount() != 1 {
		t.Fatalf("identical rewrite thawed the page (frozen=%d)", a.FrozenCount())
	}
	if a.DirtyCount() != 0 {
		t.Fatalf("identical rewrite dirtied the page")
	}
}

// TestCaptureDirtyConcurrentReaders: a goroutine reading captured pages
// races writes to the same pages; with COW this is race-free (run under
// -race) and the reader observes the capture-time contents.
func TestCaptureDirtyConcurrentReaders(t *testing.T) {
	a := NewAddressSpace(128)
	for p := int64(0); p < 8; p++ {
		a.WriteAt(p*128, bytes.Repeat([]byte{byte(p + 1)}, 128))
	}
	captured := a.CaptureDirty()

	var wg sync.WaitGroup
	wg.Add(2)
	errs := make(chan string, 1)
	go func() { // the "transmit loop" reading the capture
		defer wg.Done()
		for iter := 0; iter < 100; iter++ {
			for _, pg := range captured {
				want := byte(pg.No + 1)
				for _, b := range pg.Data {
					if b != want {
						select {
						case errs <- "captured page mutated during concurrent writes":
						default:
						}
						return
					}
				}
			}
		}
	}()
	go func() { // the primary, still executing
		defer wg.Done()
		for iter := 0; iter < 100; iter++ {
			for p := int64(0); p < 8; p++ {
				a.WriteAt(p*128, bytes.Repeat([]byte{byte(iter + 100)}, 128))
			}
		}
	}()
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// TestReleaseOrders walks one page through the orders in which its capture
// can be written and released. Release ends a capture only for a page that
// still lives in the slice captured; thawLocked stays the one place a page is
// cloned, and after a release it is not reached.
func TestReleaseOrders(t *testing.T) {
	const size = 64
	fill := func(b byte) []byte { return bytes.Repeat([]byte{b}, size) }
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, a *AddressSpace, cap1 []Page)
		// frozen is FrozenCount at the end; sameBacking says whether the page
		// still lives in the slice the first capture aliased.
		frozen      int
		sameBacking bool
	}{
		{"release then write writes in place", func(t *testing.T, a *AddressSpace, cap1 []Page) {
			sent := append([]byte(nil), cap1[0].Data...)
			a.Release(cap1)
			if n := a.FrozenCount(); n != 0 {
				t.Fatalf("FrozenCount = %d after release, want 0", n)
			}
			next := byte(2)
			if allocs := testing.AllocsPerRun(20, func() {
				next++
				a.WriteAt(0, []byte{next})
			}); allocs != 0 {
				t.Fatalf("write after release allocates %v times, want 0", allocs)
			}
			if !bytes.Equal(sent, fill(1)) {
				t.Fatal("transmitted bytes are not the capture-time bytes")
			}
		}, 0, true},
		{"write then release keeps the clone", func(t *testing.T, a *AddressSpace, cap1 []Page) {
			a.WriteAt(0, fill(2))
			a.Release(cap1)
			if !bytes.Equal(cap1[0].Data, fill(1)) {
				t.Fatal("captured page changed under a write before its release")
			}
		}, 0, false},
		{"release of capture N after capture N+1 froze the clone", func(t *testing.T, a *AddressSpace, cap1 []Page) {
			a.WriteAt(0, fill(2)) // clones
			cap2 := a.CaptureDirty()
			a.Release(cap1) // must not unfreeze what cap2 is still reading
			if n := a.FrozenCount(); n != 1 {
				t.Fatalf("FrozenCount = %d after releasing the older capture, want 1", n)
			}
			a.WriteAt(0, fill(3))
			if !bytes.Equal(cap2[0].Data, fill(2)) {
				t.Fatal("second capture changed under a write before its own release")
			}
			a.Release(cap2)
		}, 0, false},
		{"a released page is captured again where it lives", func(t *testing.T, a *AddressSpace, cap1 []Page) {
			a.Release(cap1)
			a.WriteAt(0, fill(2)) // in place
			cap2 := a.CaptureDirty()
			if n := a.FrozenCount(); n != 1 {
				t.Fatalf("FrozenCount = %d after the second capture, want 1", n)
			}
			a.Release(cap2)
		}, 0, true},
		{"never released costs one clone at the next write", func(t *testing.T, a *AddressSpace, cap1 []Page) {
			a.WriteAt(0, fill(2))
			a.WriteAt(0, fill(3))
			if !bytes.Equal(cap1[0].Data, fill(1)) {
				t.Fatal("an unreleased capture changed")
			}
		}, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAddressSpace(size)
			a.WriteAt(0, fill(1))
			cap1 := a.CaptureDirty()
			tc.run(t, a, cap1)
			if n := a.FrozenCount(); n != tc.frozen {
				t.Errorf("FrozenCount = %d at the end, want %d", n, tc.frozen)
			}
			a.mu.Lock()
			same := &a.pages[0][0] == &cap1[0].Data[0]
			a.mu.Unlock()
			if same != tc.sameBacking {
				t.Errorf("page lives in the captured slice: %v, want %v", same, tc.sameBacking)
			}
		})
	}
}

// TestReleaseRacesWriter: the transmitting goroutine reads a capture and
// releases it while the process keeps writing the same pages. Under -race
// this is what shows that a write in place can only follow the release that
// ended the last read; the reader checks it saw capture-time bytes.
func TestReleaseRacesWriter(t *testing.T) {
	const size, pages, rounds = 128, 8, 200
	a := NewAddressSpace(size)
	captures := make(chan []Page)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the transmitter: encode, then release
		defer wg.Done()
		for c := range captures {
			for _, pg := range c {
				for _, b := range pg.Data[1:] {
					if b != pg.Data[0] {
						t.Errorf("page %d torn while captured: %d then %d", pg.No, pg.Data[0], b)
						break
					}
				}
			}
			a.Release(c)
		}
	}()
	for r := 0; r < rounds; r++ {
		for p := int64(0); p < pages; p++ {
			a.WriteAt(p*size, bytes.Repeat([]byte{byte(r + 1)}, size))
		}
		captures <- a.CaptureDirty()
	}
	close(captures)
	wg.Wait()
	if n := a.FrozenCount(); n != 0 {
		t.Fatalf("FrozenCount = %d after every capture was released, want 0", n)
	}
}

// TestInstallThaws: restoring a page account over frozen pages must not
// leave stale frozen marks (Install allocates private copies).
func TestInstallThaws(t *testing.T) {
	a := NewAddressSpace(32)
	a.WriteAt(0, bytes.Repeat([]byte{1}, 32))
	captured := a.CaptureDirty()
	a.Install([]Page{{No: 0, Data: bytes.Repeat([]byte{2}, 32)}})
	if a.FrozenCount() != 0 {
		t.Fatalf("Install left %d frozen marks", a.FrozenCount())
	}
	for _, b := range captured[0].Data {
		if b != 1 {
			t.Fatalf("Install mutated a captured page")
		}
	}
}

// TestResetClearsFrozen: Reset drops frozen marks with everything else.
func TestResetClearsFrozen(t *testing.T) {
	a := NewAddressSpace(32)
	a.WriteAt(0, bytes.Repeat([]byte{1}, 32))
	_ = a.CaptureDirty()
	a.Reset()
	if a.FrozenCount() != 0 {
		t.Fatalf("Reset left %d frozen marks", a.FrozenCount())
	}
}

// BenchmarkCaptureDirty is one steady-state sync's worth of memory work:
// write, capture, release. The capture is O(dirty) map work with zero page
// copies, and because the capture is released before the next round's writes
// those copy nothing either.
func BenchmarkCaptureDirty(b *testing.B) {
	for _, pages := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			a := NewAddressSpace(1024)
			stamp := make([]byte, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				binary.LittleEndian.PutUint64(stamp, uint64(i)+1)
				for p := 0; p < pages; p++ {
					a.WriteAt(int64(p)*1024, stamp)
				}
				got := a.CaptureDirty()
				if len(got) != pages {
					b.Fatalf("dirty = %d", len(got))
				}
				a.Release(got)
			}
		})
	}
}
