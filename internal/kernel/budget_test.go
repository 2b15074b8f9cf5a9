package kernel_test

import (
	"encoding/binary"
	"runtime"
	"testing"

	"auragen/internal/disk"
	"auragen/internal/kernel"
	"auragen/internal/memory"
	"auragen/internal/pager"
)

// TestSyncPathAllocBudget puts a number on "a sync allocates nothing per
// page" that plain `go test` gates: one steady-state sync of 8 dirty 1 KiB
// pages — capture at the primary, page-out and sync message through the
// kernel onto a bare bus, and off it into both page servers and their
// mirrored disks — may allocate syncAllocBudget bytes in syncAllocCount
// objects. The page-out's copy out of the transmit writer, the one copy of
// the pages the §5.1 broadcast owes (the bus hands it to both page servers
// as it is), is 9.2 KB of that (8.4 KB of payload in its size class),
// everything else 2.3–2.4 KB; one more copy of the dirty set anywhere on the
// path (a page cloned at the primary, a block buffer not recycled) is
// another 8 KiB and fails, and so does a page-out or sync message allocated
// on the heap instead of built in its outgoing slot (one more object). No
// goroutine runs, so the bytes repeat to within a slice's amortised growth
// (11 512–11 621 B measured) and the count exactly.
func TestSyncPathAllocBudget(t *testing.T) {
	const (
		pages           = 8
		rounds          = 64
		syncAllocBudget = 11<<10 + 512
		syncAllocCount  = 21
	)
	servers := [2]*pager.Server{
		pager.New(0, disk.New("pages-0", memory.DefaultPageSize, 0, 1)),
		pager.New(1, disk.New("pages-1", memory.DefaultPageSize, 0, 1)),
	}
	rig := kernel.NewSyncRig(servers[0], servers[1])
	space := rig.Proc().Space()
	stamp := make([]byte, 8)
	serial := uint64(0)
	sync := func() {
		serial++
		binary.LittleEndian.PutUint64(stamp, serial)
		for p := int64(0); p < pages; p++ {
			space.WriteAt(p*memory.DefaultPageSize, stamp)
		}
		if err := rig.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rounds; i++ {
		sync() // fill the accounts, the spare lists, the pools and the queues
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		sync()
	}
	runtime.ReadMemStats(&after)
	perSync, objects := (after.TotalAlloc-before.TotalAlloc)/rounds, (after.Mallocs-before.Mallocs)/rounds
	t.Logf("%d B and %d allocations per sync of %d pages", perSync, objects, pages)
	if (perSync > syncAllocBudget || objects > syncAllocCount) && !kernel.RaceEnabled {
		t.Errorf("one sync of %d dirty pages allocates %d B in %d objects, budget %d B in %d",
			pages, perSync, objects, syncAllocBudget, syncAllocCount)
	}

	// The syncs were real: both replicas hold the last image, committed.
	pid := rig.Proc().PID()
	for i, s := range servers {
		prim, back := s.AccountSizes(pid)
		if prim != pages || back != pages || s.SharedBlocks(pid) != pages || s.Disk().Blocks() != pages {
			t.Errorf("page server %d: accounts %d/%d, %d shared, %d blocks; want %d everywhere", i, prim, back, s.SharedBlocks(pid), s.Disk().Blocks(), pages)
		}
		if got := s.Epoch(pid); uint64(got) != serial {
			t.Errorf("page server %d committed epoch %d, want %d", i, got, serial)
		}
	}
	if servers[0].Fingerprint() != servers[1].Fingerprint() {
		t.Error("the two page servers diverged")
	}
	if n := space.FrozenCount(); n != 0 {
		t.Errorf("FrozenCount = %d after the last sync was transmitted", n)
	}
}
