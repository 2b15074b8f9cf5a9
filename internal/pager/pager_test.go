package pager

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"auragen/internal/disk"
	"auragen/internal/kernel"
	"auragen/internal/memory"
	"auragen/internal/trace"
	"auragen/internal/types"
	"auragen/internal/wire"
)

func newServer() *Server {
	return New(0, disk.New("t", 1024, 0, 1))
}

func page(no memory.PageNo, fill byte) memory.Page {
	d := make([]byte, 1024)
	for i := range d {
		d[i] = fill
	}
	return memory.Page{No: no, Data: d}
}

func out(pid types.PID, epoch types.Epoch, pgs ...memory.Page) *kernel.PageOut {
	return &kernel.PageOut{PID: pid, Epoch: epoch, From: 2, Pages: pgs}
}

func TestPageOutThenCommitVisibleToBackupAccount(t *testing.T) {
	s := newServer()
	s.HandlePageOut(out(7, 1, page(0, 0xAA)))
	s.HandlePageOut(out(7, 1, page(3, 0xBB)))
	if got := s.HandlePageRequest(7); len(got) != 0 {
		t.Fatalf("uncommitted pages visible to backup: %d", len(got))
	}
	s.HandleSyncCommit(7, 1)
	got := s.HandlePageRequest(7)
	if len(got) != 2 {
		t.Fatalf("backup account has %d pages, want 2", len(got))
	}
	if got[0].No != 0 || got[1].No != 3 {
		t.Fatalf("pages out of order: %v %v", got[0].No, got[1].No)
	}
	if got[0].Data[0] != 0xAA || got[1].Data[0] != 0xBB {
		t.Fatal("page contents wrong")
	}
}

func TestCommitSharesBlocks(t *testing.T) {
	s := newServer()
	s.HandlePageOut(out(7, 1, page(0, 1)))
	s.HandleSyncCommit(7, 1)
	if n := s.SharedBlocks(7); n != 1 {
		t.Fatalf("after sync, shared blocks = %d, want 1 (only one copy of each page)", n)
	}
	// Modifying the page diverges the accounts again.
	s.HandlePageOut(out(7, 2, page(0, 2)))
	if n := s.SharedBlocks(7); n != 0 {
		t.Fatalf("after modification, shared = %d, want 0", n)
	}
	p, b := s.AccountSizes(7)
	if p != 1 || b != 1 {
		t.Fatalf("accounts = %d/%d", p, b)
	}
	// The backup still reads the old contents.
	got := s.HandlePageRequest(7)
	if got[0].Data[0] != 1 {
		t.Fatal("backup account observed uncommitted modification")
	}
}

func TestCrashRollsBackUncommittedPages(t *testing.T) {
	s := newServer()
	s.HandlePageOut(out(7, 1, page(0, 1)))
	s.HandleSyncCommit(7, 1)
	s.HandlePageOut(out(7, 2, page(0, 9))) // uncommitted epoch-2 page
	s.HandleCrash(2)                       // the primary's cluster fails
	// Primary account rolled back to the committed state.
	got := s.HandlePageRequest(7)
	if len(got) != 1 || got[0].Data[0] != 1 {
		t.Fatalf("rollback failed: %v", got)
	}
	p, b := s.AccountSizes(7)
	if p != 1 || b != 1 {
		t.Fatalf("accounts after crash = %d/%d", p, b)
	}
	if n := s.SharedBlocks(7); n != 1 {
		t.Fatalf("accounts should share after rollback, shared=%d", n)
	}
}

func TestCrashLeavesOtherClustersAlone(t *testing.T) {
	s := newServer()
	s.HandlePageOut(out(7, 1, page(0, 1)))
	s.HandleSyncCommit(7, 1)
	s.HandlePageOut(out(7, 2, page(0, 9))) // uncommitted, primary on cluster 2
	s.HandleCrash(3)                       // some other cluster
	// pid 7's uncommitted page survives (its primary did not crash).
	if n := s.SharedBlocks(7); n != 0 {
		t.Fatal("unrelated crash rolled back a live primary's account")
	}
}

func TestFreeReleasesBlocks(t *testing.T) {
	s := newServer()
	s.HandlePageOut(out(7, 1, page(0, 1)))
	s.HandlePageOut(out(7, 1, page(1, 2)))
	s.HandleSyncCommit(7, 1)
	if s.disk.Blocks() == 0 {
		t.Fatal("no blocks allocated")
	}
	s.HandleFree([]types.PID{7})
	if n := s.disk.Blocks(); n != 0 {
		t.Fatalf("%d blocks leaked after free", n)
	}
	if got := s.HandlePageRequest(7); len(got) != 0 {
		t.Fatal("freed account still readable")
	}
}

func TestOverwriteFreesReplacedBlock(t *testing.T) {
	s := newServer()
	s.HandlePageOut(out(7, 1, page(0, 1)))
	s.HandlePageOut(out(7, 1, page(0, 2))) // same page again, pre-commit
	if n := s.disk.Blocks(); n != 1 {
		t.Fatalf("replaced uncommitted block not freed: %d blocks", n)
	}
	s.HandleSyncCommit(7, 1)
	s.HandlePageOut(out(7, 2, page(0, 3)))
	// Old block shared with backup: must NOT be freed.
	got := s.HandlePageRequest(7)
	if len(got) != 1 || got[0].Data[0] != 2 {
		t.Fatalf("backup lost its shared block: %v", got)
	}
}

func TestEpochTracked(t *testing.T) {
	s := newServer()
	if s.Epoch(7) != 0 {
		t.Fatal("fresh epoch not 0")
	}
	s.HandleSyncCommit(7, 5)
	if s.Epoch(7) != 5 {
		t.Fatalf("epoch = %d", s.Epoch(7))
	}
}

// TestCloneOfNeverPagedProcessMatches: a process that syncs before it has
// ever paged out leaves an empty backup account and an epoch at the source;
// the resilvered clone must hash equal, or the redundancy oracle reports
// healthy replicas as diverged.
func TestCloneOfNeverPagedProcessMatches(t *testing.T) {
	src := newServer()
	src.HandleSyncCommit(7, 3)
	clone := newServer()
	if err := clone.CloneFrom(src); err != nil {
		t.Fatal(err)
	}
	if clone.Epoch(7) != 3 {
		t.Fatalf("clone epoch = %d, want 3", clone.Epoch(7))
	}
	if src.Fingerprint() != clone.Fingerprint() {
		t.Fatal("clone of a synced, never-paged process fingerprints differently from its source")
	}
	if src.Fingerprint() == newServer().Fingerprint() {
		t.Fatal("a committed epoch left no trace in the fingerprint")
	}
}

func TestMirroredInstancesConverge(t *testing.T) {
	// Two instances fed the same ordered stream must serve identical
	// backup accounts (the deterministic-replica property).
	a := New(0, disk.New("a", 1024, 0, 1))
	b := New(1, disk.New("b", 1024, 0, 1))
	feed := func(s *Server) {
		s.HandlePageOut(out(7, 1, page(0, 1)))
		s.HandlePageOut(out(7, 1, page(2, 2)))
		s.HandleSyncCommit(7, 1)
		s.HandlePageOut(out(7, 2, page(0, 3)))
		s.HandleSyncCommit(7, 2)
		s.HandlePageOut(out(9, 1, page(0, 9)))
		s.HandleSyncCommit(9, 1)
		s.HandleFree([]types.PID{9})
	}
	feed(a)
	feed(b)
	pa := a.HandlePageRequest(7)
	pb := b.HandlePageRequest(7)
	if len(pa) != len(pb) {
		t.Fatalf("account sizes differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].No != pb[i].No || !bytes.Equal(pa[i].Data, pb[i].Data) {
			t.Fatalf("page %d differs", i)
		}
	}
	if len(a.HandlePageRequest(9)) != 0 || len(b.HandlePageRequest(9)) != 0 {
		t.Fatal("freed account persists")
	}
}

// referenceCommit and referenceRollback are the whole-account commit and
// rollback the server used before it tracked the pages touched since the
// last commit: rebuild one account as a copy of the other, re-referencing
// every block. They are kept as the oracle for the incremental ones.
func referenceCommit(s *Server, pid types.PID, epoch types.Epoch) {
	old := s.backup[pid]
	fresh := make(account, len(s.primary[pid]))
	for no, b := range s.primary[pid] {
		fresh[no] = b
		s.incRef(b)
	}
	s.backup[pid] = fresh
	s.epoch[pid] = epoch
	for _, b := range old {
		s.decRef(b)
	}
}

func referenceRollback(s *Server, pid types.PID) {
	old := s.primary[pid]
	fresh := make(account, len(s.backup[pid]))
	for no, b := range s.backup[pid] {
		fresh[no] = b
		s.incRef(b)
	}
	s.primary[pid] = fresh
	for _, b := range old {
		s.decRef(b)
	}
	delete(s.primaryCluster, pid)
}

// refCounts returns, for every page of every account, how many account
// slots reference its block: the refcounts, independent of block ids.
func refCounts(s *Server) map[string]int {
	out := make(map[string]int)
	for tag, tbl := range map[string]map[types.PID]account{"P": s.primary, "B": s.backup} {
		for pid, acct := range tbl {
			for no, b := range acct {
				out[fmt.Sprintf("%s/%d/%d", tag, pid, no)] = s.refs[b]
			}
		}
	}
	return out
}

// TestIncrementalCommitMatchesWholeAccount feeds one random stream of
// page-outs, commits, crash rollbacks and frees to a server and to a twin
// whose commits and rollbacks are the whole-account reference, and holds
// them to the same logical content, sharing, refcounts and block usage
// after every step — and, at intervals, to the same CloneFrom result.
func TestIncrementalCommitMatchesWholeAccount(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := newServer(), newServer()
		pids := []types.PID{7, 9, 11}
		epoch := types.Epoch(0)
		for step := 0; step < 400; step++ {
			pid := pids[rng.Intn(len(pids))]
			switch op := rng.Intn(10); {
			case op < 5: // a sync's page-out; pages may repeat before a commit
				var pgs []memory.Page
				for i := 1 + rng.Intn(3); i > 0; i-- {
					pgs = append(pgs, page(memory.PageNo(rng.Intn(12)), byte(rng.Intn(256))))
				}
				po := &kernel.PageOut{PID: pid, Epoch: epoch + 1, From: types.ClusterID(2 + rng.Intn(2)), Pages: pgs}
				got.HandlePageOut(po)
				want.HandlePageOut(po)
			case op < 8:
				epoch++
				got.HandleSyncCommit(pid, epoch)
				referenceCommit(want, pid, epoch)
			case op < 9:
				if rng.Intn(2) == 0 {
					got.HandleCrashPID(pid)
					if _, known := want.primaryCluster[pid]; known {
						referenceRollback(want, pid)
					}
				} else {
					crashed := types.ClusterID(2 + rng.Intn(2))
					got.HandleCrash(crashed)
					for p, where := range want.primaryCluster {
						if where == crashed {
							referenceRollback(want, p)
						}
					}
				}
			default:
				got.HandleFree([]types.PID{pid})
				want.HandleFree([]types.PID{pid})
			}
			if got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("seed %d step %d: fingerprints differ", seed, step)
			}
			if !reflect.DeepEqual(refCounts(got), refCounts(want)) {
				t.Fatalf("seed %d step %d: refcounts differ", seed, step)
			}
			if g, w := got.disk.Blocks(), want.disk.Blocks(); g != w {
				t.Fatalf("seed %d step %d: %d blocks in use, reference has %d", seed, step, g, w)
			}
			for _, p := range pids {
				if g, w := got.SharedBlocks(p), want.SharedBlocks(p); g != w {
					t.Fatalf("seed %d step %d: pid %d shares %d blocks, reference %d", seed, step, p, g, w)
				}
			}
			if step%50 == 49 {
				// Clones of the two must agree, and must carry on from
				// where their sources stand, also between a page-out and
				// its commit.
				gotClone, wantClone := newServer(), newServer()
				if err := gotClone.CloneFrom(got); err != nil {
					t.Fatal(err)
				}
				if err := wantClone.CloneFrom(want); err != nil {
					t.Fatal(err)
				}
				if gotClone.Fingerprint() != wantClone.Fingerprint() {
					t.Fatalf("seed %d step %d: clone fingerprints differ", seed, step)
				}
				got, want = gotClone, wantClone
			}
		}
	}
}

// TestCommitPageOutCrashCommit is the sequence the incremental rollback
// must get right: pages committed, paged out again (one of them twice, one
// new), rolled back by a crash, then committed.
func TestCommitPageOutCrashCommit(t *testing.T) {
	s := newServer()
	s.HandlePageOut(out(7, 1, page(0, 1), page(1, 1)))
	s.HandleSyncCommit(7, 1)
	s.HandlePageOut(out(7, 2, page(0, 2), page(5, 2)))
	s.HandlePageOut(out(7, 2, page(0, 3)))
	s.HandleCrash(2)
	if p, b := s.AccountSizes(7); p != 2 || b != 2 || s.SharedBlocks(7) != 2 {
		t.Fatalf("after rollback: primary %d, backup %d, shared %d; want 2, 2, 2", p, b, s.SharedBlocks(7))
	}
	if n := s.disk.Blocks(); n != 2 {
		t.Fatalf("rollback left %d blocks in use, want 2", n)
	}
	s.HandleSyncCommit(7, 2)
	got := s.HandlePageRequest(7)
	if len(got) != 2 || got[0].Data[0] != 1 || got[1].Data[0] != 1 {
		t.Fatalf("rolled-back pages reached the backup account: %v", got)
	}
	s.HandleFree([]types.PID{7})
	if n := s.disk.Blocks(); n != 0 {
		t.Fatalf("%d blocks leaked", n)
	}
}

// TestPageOutDoesNotKeepThePayload holds HandlePageOut to the PagerSink
// contract: decoded pages alias the message payload and are valid only for
// the call, so the account must survive the payload being overwritten.
func TestPageOutDoesNotKeepThePayload(t *testing.T) {
	s := newServer()
	w := wire.NewWriter(0)
	out(7, 1, page(0, 0xAA), page(3, 0xBB)).EncodePayload(w)
	payload := w.Bytes()
	po, err := kernel.DecodePageOut(payload)
	if err != nil {
		t.Fatal(err)
	}
	s.HandlePageOut(po)
	for i := range payload {
		payload[i] = 0x55
	}
	s.HandleSyncCommit(7, 1)
	got := s.HandlePageRequest(7)
	if len(got) != 2 || !bytes.Equal(got[0].Data, page(0, 0xAA).Data) || !bytes.Equal(got[1].Data, page(3, 0xBB).Data) {
		t.Fatal("the account changed with the payload buffer")
	}
}

// TestPageOutCutShortByDiskFailure: a page the disk refuses ends the set
// there. The block allocated for it is freed, one note says so, and the pages
// already applied are still rolled back with their primary's cluster.
func TestPageOutCutShortByDiskFailure(t *testing.T) {
	s := newServer()
	log := trace.NewEventLog(16)
	s.SetEventLog(log)
	oversize := memory.Page{No: 1, Data: make([]byte, 2048)}
	s.HandlePageOut(out(7, 1, page(0, 0xAA), oversize, page(2, 0xCC)))
	if n := len(log.Events()); n != 1 || log.Events()[0].Kind != trace.EvNote {
		t.Fatalf("events = %v, want one EvNote", log.Events())
	}
	if p, _ := s.AccountSizes(7); p != 1 || s.Disk().Blocks() != 1 || len(s.refs) != 1 {
		t.Fatalf("account %d pages, disk %d blocks, %d refs; want 1 each", p, s.Disk().Blocks(), len(s.refs))
	}
	s.HandleCrash(2)
	if p, _ := s.AccountSizes(7); p != 0 || s.Disk().Blocks() != 0 {
		t.Fatalf("after the primary's crash: account %d pages, disk %d blocks; want none", p, s.Disk().Blocks())
	}
}
