package core

import (
	"sync"
	"testing"
	"time"

	"auragen/internal/directory"
	"auragen/internal/guest"
	"auragen/internal/kernel"
	"auragen/internal/trace"
	"auragen/internal/types"
)

// freshPager writes, at each signal, one page it has never written before
// and syncs it, so every page-out it sends carries only fresh pages.
type freshPager struct{}

func (freshPager) Run(p guest.API) error {
	page := int64(p.Space().PageSize())
	for i := int64(0); ; i++ {
		ev, err := p.NextEvent()
		if err != nil {
			return err
		}
		if !ev.IsSignal {
			continue
		}
		p.Space().WriteAt(i*page, []byte{byte(i + 1)})
		p.Tick(1)
		if err := p.SyncPoint(); err != nil {
			return err
		}
	}
}

func (freshPager) FlushState()                {}
func (freshPager) MarshalRegs() []byte        { return nil }
func (freshPager) UnmarshalRegs([]byte) error { return nil }

// TestResilverAppliesEachPageOutOnce: page-outs around a page-server
// resilver reach the new replica exactly once. Cluster 1, a page-server
// cluster, is crashed and repaired while the survivor's executive is held
// (a server injection that blocks under cluster 0's kernel lock):
//
//   - one page-out is sent before the repair starts, so it sits
//     undispatched in the survivor's inbox when the repair begins;
//   - one is sent after the replacement kernel has attached to the bus, so
//     it waits in the survivor's inbox and in the new kernel's.
//
// A replica writes a page-out's pages to its disk once per application, and
// the process never writes a page twice, so a replica that applied every
// page-out once still holds every block it wrote. Each page-out applied a
// second time writes its page again and, at the commit that follows,
// frees the first copy: the excess of the new replica's disk writes over
// its blocks counts those double applications. The replicas must also end
// fingerprint-equal (WaitRedundant).
func TestResilverAppliesEachPageOutOnce(t *testing.T) {
	reg := guest.NewRegistry()
	reg.Register("fresh-pager", func() guest.Guest { return freshPager{} })
	sys, err := New(Options{Clusters: 3, EventLogLimit: 1 << 12}, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	pid := spawn(t, sys, "fresh-pager", "", SpawnConfig{Cluster: 2, BackupCluster: 0, SyncReads: 1, SyncTicks: 1})

	// Receipts tell the test where each page-out is. The first reaches only
	// the survivor, cluster 0. The second is delivered to both pager
	// clusters once the replacement kernel receives the sync that follows
	// it: the bus stages a transmission into its targets in cluster order,
	// inside one critical section.
	first, second := make(chan struct{}), make(chan struct{})
	pageOuts := 0
	sys.EventLog().SetObserver(func(e trace.Event) {
		switch {
		case e.Kind != trace.EvReceive:
		case e.Cluster == 0 && e.MsgKind == types.KindPageOut:
			if pageOuts++; pageOuts == 1 {
				close(first)
			}
		case e.Cluster == 1 && e.MsgKind == types.KindPageOut:
			pageOuts++
		case e.Cluster == 1 && e.MsgKind == types.KindSync && e.PID == pid && pageOuts == 3:
			pageOuts++
			close(second)
		}
	})
	t.Cleanup(func() { sys.EventLog().SetObserver(nil) })
	wait := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never arrived", what)
		}
	}

	if err := sys.Crash(1); err != nil {
		t.Fatal(err)
	}
	sys.Settle(2 * time.Second)

	survivor, old := sys.Kernel(0), sys.Kernel(1)
	held, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	releaseSurvivor := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(releaseSurvivor) // before Stop, which needs the survivor's lock
	go survivor.ServerInject(directory.PIDFileServer, func(*kernel.ServerCtx, kernel.Server) {
		close(held)
		<-release
	})
	<-held
	if err := sys.Signal(pid, types.SigUser); err != nil {
		t.Fatal(err)
	}
	wait(first, "the first page-out")
	// The repair publishes the replacement kernel, then logs its booting
	// phase.
	booted := sys.EventLog().Trip(func(e trace.Event) bool {
		return e.Kind == trace.EvRepair && e.Cluster == 1 && types.RepairPhase(e.Arg) == types.RepairBooting
	}, 1)
	repaired := make(chan error, 1)
	go func() { repaired <- sys.Repair(1) }()
	booted.Wait()
	if sys.Kernel(1) == old {
		t.Fatal("the repair logged its booting phase before publishing the replacement kernel")
	}
	if err := sys.Signal(pid, types.SigUser); err != nil {
		t.Fatal(err)
	}
	wait(second, "the second page-out")
	releaseSurvivor()
	if err := <-repaired; err != nil {
		t.Fatal(err)
	}
	// The replacement kernel has been started; let it dispatch its inbox.
	sys.Settle(2 * time.Second)
	if err := sys.WaitRedundant(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if pages := sys.Metrics().PagesOut.Load(); pages != 2 {
		t.Fatalf("process paged out %d pages, want 2", pages)
	}
	d := sys.Pager(1).Disk()
	_, writes := d.Stats()
	if twice := int(writes) - d.Blocks(); twice != 0 {
		t.Fatalf("new replica wrote %d blocks and holds %d: %d page-out application(s) beyond the first", writes, d.Blocks(), twice)
	}
}
