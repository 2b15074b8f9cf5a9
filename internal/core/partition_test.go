package core

import (
	"testing"
	"time"

	"auragen/internal/bus"
	"auragen/internal/kernel"
	"auragen/internal/trace"
	"auragen/internal/types"
)

// TestCrashNoticeCrossesAnyOutboundCut: core, not a cluster, transmits the
// crash notice, so a partition that severs every outbound link of cluster 0
// keeps it from no live cluster.
func TestCrashNoticeCrossesAnyOutboundCut(t *testing.T) {
	metrics := new(trace.Metrics)
	b := bus.New(metrics, nil)
	var inboxes []*bus.Inbox
	for c := types.ClusterID(0); c < 3; c++ {
		inboxes = append(inboxes, b.Attach(c))
	}
	for i := 0; i < bus.NumBuses; i++ {
		if err := b.Cut(i, 0, false, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.BroadcastBatch([]*types.Message{crashNotice(2, 2)}); err != nil {
		t.Fatal(err)
	}
	for c, in := range inboxes {
		if n := in.Backlog(); n != 1 {
			t.Errorf("cluster %d received %d crash notices, want 1", c, n)
		}
	}
	if drops := metrics.PartitionDrops.Load(); drops != 0 {
		t.Errorf("partition_drops = %d, want 0", drops)
	}
}

// TestStaleIncarnationMessageFenced exercises the dispatch fence directly:
// once a crash notice announces cluster 2's next incarnation, every kernel
// must reject traffic still stamped with the superseded one, and cluster 2
// itself — alive behind the wrongful declaration — must step down.
func TestStaleIncarnationMessageFenced(t *testing.T) {
	sys := newTestSystem(t, 3)

	cn := &kernel.CrashNotice{Crashed: 2, Inc: 5}
	if _, err := sys.bus.BroadcastBatch([]*types.Message{{
		Kind:    types.KindCrashNotice,
		Payload: kernel.Encode(cn),
	}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.await("cluster 2 self-fencing on a superseding crash notice", 5*time.Second, func() (string, error) {
		if !sys.kern(2).Crashed() {
			return "still running", nil
		}
		return "", nil
	}); err != nil {
		t.Fatal(err)
	}

	// A frame from cluster 2's superseded life: stamped Inc 1, below the
	// announced view of 5. Dispatch must fence it before any kind handling.
	stale := &types.Message{
		Kind:   types.KindData,
		Src:    501,
		Dst:    502,
		Route:  types.Route{Dst: 1, DstBackup: types.NoCluster, SrcBackup: types.NoCluster},
		Origin: 2,
		Inc:    1,
	}
	if _, err := sys.bus.BroadcastBatch([]*types.Message{stale}); err != nil {
		t.Fatal(err)
	}
	// A data message wakes no waiter when it is dispatched; a mark barrier
	// orders the check after every live kernel's dispatch of it.
	sys.Settle(5 * time.Second)
	if sys.Metrics().FencedRejects.Load() == 0 {
		t.Fatal("stale-incarnation message was never fenced")
	}
}

// TestPartitionReachability pins the probe path's view of a partition: a
// single-bus cut leaves the cluster reachable (dual-bus failover), a
// full cut does not, and healing restores it.
func TestPartitionReachability(t *testing.T) {
	sys := newTestSystem(t, 3)

	if !sys.bus.Reachable(2) {
		t.Fatal("cluster 2 unreachable before any cut")
	}
	if err := sys.PartitionCluster(2, true, true, 0); err != nil {
		t.Fatal(err)
	}
	if !sys.bus.Reachable(2) {
		t.Fatal("single-bus cut should be absorbed by the other bus")
	}
	if err := sys.PartitionCluster(2, true, true); err != nil {
		t.Fatal(err)
	}
	if sys.bus.Reachable(2) {
		t.Fatal("fully cut cluster still reachable")
	}
	if err := sys.HealPartitions(); err != nil {
		t.Fatal(err)
	}
	if !sys.bus.Reachable(2) {
		t.Fatal("healed cluster still unreachable")
	}
}
