package bus

import (
	"reflect"
	"testing"

	"auragen/internal/trace"
	"auragen/internal/types"
)

// BroadcastBatch takes the receive buffer of a cluster at the first message
// it delivers there and leaves every other cluster's alone. These tests are
// goroutine-free in the manner of lossy_test.go. Where one says a port was
// not touched, the test itself holds that port's inbox mutex across the
// broadcast: the bus locks, signals and unlocks a port in one motion, so a
// broadcast that completes under that hold did none of the three there, and
// one that tried hangs the test.

// routeTo routes a message to one, two or three clusters.
func routeTo(cs ...types.ClusterID) types.Route {
	cs = append(cs, types.NoCluster, types.NoCluster)
	return types.Route{Dst: cs[0], DstBackup: cs[1], SrcBackup: cs[2]}
}

// unheld fails the test if any port is still marked locked or any inbox
// mutex is still held after a broadcast returned.
func unheld(t *testing.T, b *Bus) {
	t.Helper()
	for _, p := range b.ports {
		if p.locked {
			t.Errorf("cluster %d's port is still marked locked", p.c)
		}
		if !p.in.mu.TryLock() {
			t.Fatalf("cluster %d's inbox mutex is still held", p.c)
		}
		p.in.mu.Unlock()
	}
}

func TestBatchLocksOnlyTheInboxesItReaches(t *testing.T) {
	b := New(&trace.Metrics{}, nil)
	in0, in1, in2 := b.Attach(0), b.Attach(1), b.Attach(2)

	in1.mu.Lock()
	send(t, b, dataMsg(10, 20, routeTo(0, 2), "a"), dataMsg(10, 20, routeTo(2), "b"))
	in1.mu.Unlock()

	if got := [3]int{in0.Backlog(), in1.Backlog(), in2.Backlog()}; got != [3]int{1, 0, 2} {
		t.Fatalf("backlogs = %v, want [1 0 2]", got)
	}
	unheld(t, b)
}

func TestMembershipKindStillReachesEveryPort(t *testing.T) {
	b := New(&trace.Metrics{}, nil)
	inboxes := []*Inbox{b.Attach(0), b.Attach(1), b.Attach(2)}
	notice := &types.Message{Kind: types.KindCrashNotice, Route: routeTo(0), Payload: []byte("notice")}
	send(t, b, dataMsg(10, 20, routeTo(1), "before"), notice)
	for c, in := range inboxes {
		ids := received(in)
		if len(ids) == 0 || ids[len(ids)-1] != notice.ID {
			t.Errorf("cluster %d received IDs %v, want the notice (ID %d) last", c, ids, notice.ID)
		}
	}
	unheld(t, b)
}

// A port the batch comes back to after a change of route is already held:
// taking it a second time would deadlock on the spot.
func TestRouteChangeMidBatchLocksEachPortOnce(t *testing.T) {
	b := New(&trace.Metrics{}, nil)
	inboxes := []*Inbox{b.Attach(0), b.Attach(1), b.Attach(2), b.Attach(3)}
	batch := []*types.Message{
		dataMsg(10, 20, routeTo(0), "a"),
		dataMsg(10, 20, routeTo(0, 1), "b"),
		dataMsg(10, 20, routeTo(1, 2), "c"),
		dataMsg(10, 20, routeTo(0), "d"),
	}
	inboxes[3].mu.Lock()
	send(t, b, batch...)
	inboxes[3].mu.Unlock()

	id := func(i int) uint64 { return batch[i].ID }
	want := [][]uint64{{id(0), id(1), id(3)}, {id(1), id(2)}, {id(2)}, {}}
	for c, in := range inboxes {
		if got := received(in); !reflect.DeepEqual(got, want[c]) {
			t.Errorf("cluster %d received IDs %v, want %v", c, got, want[c])
		}
	}
	unheld(t, b)
}

// A delayed frame is staged by lossyWire.releaseLocked, one inbox at a time
// and outside any batch. It must leave no mark on the port: the next batch
// would take a marked port for one it had locked itself, stage into it
// without the lock and unlock a mutex it never took.
func TestDelayedReleaseLeavesNoPortMarked(t *testing.T) {
	b := New(&trace.Metrics{}, nil)
	in0, _, in2 := b.Attach(0), b.Attach(1), b.Attach(2)

	b.ArmDelay(1, 1)
	held := dataMsg(10, 20, routeTo(2), "held")
	send(t, b, held)
	if in2.Backlog() != 0 {
		t.Fatal("the armed delay did not hold the frame")
	}
	send(t, b, dataMsg(10, 20, routeTo(0), "passes the release point"))
	if got := received(in2); !reflect.DeepEqual(got, []uint64{held.ID}) {
		t.Fatalf("cluster 2 received IDs %v, want the released frame %d", got, held.ID)
	}
	unheld(t, b)

	in2.mu.Lock()
	send(t, b, dataMsg(10, 20, routeTo(0), "after the release"))
	in2.mu.Unlock()
	if in0.Backlog() != 2 || in2.Backlog() != 1 {
		t.Fatalf("backlogs: cluster 0 has %d, cluster 2 has %d; want 2, 1", in0.Backlog(), in2.Backlog())
	}
	unheld(t, b)
}
