package bus

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"auragen/internal/trace"
	"auragen/internal/types"
)

func dataMsg(src, dst types.PID, route types.Route, payload string) *types.Message {
	return &types.Message{
		Kind:    types.KindData,
		Src:     src,
		Dst:     dst,
		Route:   route,
		Payload: []byte(payload),
	}
}

// send transmits msgs as one batch and fails the test unless the bus
// accepted every one of them.
func send(t testing.TB, b *Bus, msgs ...*types.Message) {
	t.Helper()
	if n, err := b.BroadcastBatch(msgs); err != nil || n != len(msgs) {
		t.Fatalf("BroadcastBatch sent %d of %d: %v", n, len(msgs), err)
	}
}

// drain returns everything queued at in, or nil without blocking when
// nothing is.
func drain(in *Inbox) []types.Message {
	in.mu.Lock()
	queued := len(in.q)
	in.mu.Unlock()
	if queued == 0 {
		return nil
	}
	ms, _ := in.PopAll(nil)
	return ms
}

func TestBroadcastReachesAllRouteTargets(t *testing.T) {
	b := New(&trace.Metrics{}, nil)
	in0 := b.Attach(0)
	in1 := b.Attach(1)
	in2 := b.Attach(2)

	route := types.Route{Dst: 1, DstBackup: 2, SrcBackup: 0}
	send(t, b, dataMsg(10, 20, route, "hi"))
	for i, in := range []*Inbox{in0, in1, in2} {
		if in.Backlog() != 1 {
			t.Errorf("inbox %d has %d messages, want 1", i, in.Backlog())
		}
	}
}

func TestBroadcastSkipsUnroutedClusters(t *testing.T) {
	b := New(&trace.Metrics{}, nil)
	b.Attach(0)
	in1 := b.Attach(1)
	in3 := b.Attach(3)

	route := types.Route{Dst: 1, DstBackup: types.NoCluster, SrcBackup: types.NoCluster}
	send(t, b, dataMsg(1, 2, route, "x"))
	if in1.Backlog() != 1 {
		t.Error("destination did not receive")
	}
	if in3.Backlog() != 0 {
		t.Error("unrelated cluster received")
	}
}

func TestDuplicateTargetsDeliverOnce(t *testing.T) {
	// When the destination's backup lives in the sender-backup cluster the
	// route lists the cluster twice; it must still receive one copy.
	b := New(&trace.Metrics{}, nil)
	b.Attach(0)
	in1 := b.Attach(1)
	route := types.Route{Dst: 1, DstBackup: 1, SrcBackup: 1}
	send(t, b, dataMsg(1, 2, route, "x"))
	if in1.Backlog() != 1 {
		t.Fatalf("cluster got %d copies, want 1", in1.Backlog())
	}
}

func TestCopiesAreIndependent(t *testing.T) {
	// The hand-off contract of BroadcastBatch. Each cluster's receive
	// buffers hold their own message value — a kernel stamps Seq on arrival
	// without racing its peers, and the sender may reuse its header the
	// moment BroadcastBatch returns — while the payload and nondet words are
	// the sender's own slices, shared read-only by every target.
	b := New(&trace.Metrics{}, nil)
	in0 := b.Attach(0)
	in1 := b.Attach(1)
	route := types.Route{Dst: 0, DstBackup: 1}
	m := dataMsg(1, 2, route, "abc")
	m.Nondet = []uint64{7}
	send(t, b, m)
	id := m.ID
	m.ID, m.Seq, m.Route, m.Origin, m.Inc = 0, 55, types.Route{Dst: 9}, 9, 9
	m0, m1 := drain(in0), drain(in1)
	if len(m0) != 1 || len(m1) != 1 {
		t.Fatalf("delivered %d and %d copies, want one each", len(m0), len(m1))
	}
	m0[0].Seq, m0[0].Route.SrcBackup = 99, 8
	if m1[0].Seq != 0 || m1[0].Route != route {
		t.Fatal("clusters share a message instance")
	}
	for i, got := range []types.Message{m0[0], m1[0]} {
		if got.ID != id || got.Origin != 0 || got.Inc != 0 {
			t.Fatalf("cluster %d's header follows the sender's reuse of its own: %+v", i, got)
		}
		if &got.Payload[0] != &m.Payload[0] || &got.Nondet[0] != &m.Nondet[0] {
			t.Fatalf("cluster %d received a copy of the payload or nondet words, want the sender's slices", i)
		}
	}
}

func TestDetachedClusterSkippedOthersStillReceive(t *testing.T) {
	b := New(&trace.Metrics{}, nil)
	b.Attach(0)
	in1 := b.Attach(1)
	b.Attach(2)
	b.Detach(2)
	route := types.Route{Dst: 1, DstBackup: 2}
	send(t, b, dataMsg(1, 2, route, "x"))
	if in1.Backlog() != 1 {
		t.Fatal("live target lost a message because a co-target crashed")
	}
}

func TestDualBusRedundancy(t *testing.T) {
	b := New(&trace.Metrics{}, nil)
	in0 := b.Attach(0)
	if err := b.FailBus(0); err != nil {
		t.Fatal(err)
	}
	route := types.Route{Dst: 0}
	if _, err := b.BroadcastBatch([]*types.Message{dataMsg(1, 2, route, "x")}); err != nil {
		t.Fatalf("single bus failure should be tolerated: %v", err)
	}
	if in0.Backlog() != 1 {
		t.Fatal("message lost on surviving bus")
	}
	if err := b.FailBus(1); err != nil {
		t.Fatal(err)
	}
	_, err := b.BroadcastBatch([]*types.Message{dataMsg(1, 2, route, "x")})
	if !errors.Is(err, types.ErrTooManyFailures) {
		t.Fatalf("double bus failure returned %v", err)
	}
	if err := b.RepairBus(0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.BroadcastBatch([]*types.Message{dataMsg(1, 2, route, "x")}); err != nil {
		t.Fatalf("after repair: %v", err)
	}
}

func TestFailBusRange(t *testing.T) {
	b := New(&trace.Metrics{}, nil)
	if err := b.FailBus(-1); err == nil {
		t.Error("FailBus(-1) accepted")
	}
	if err := b.FailBus(NumBuses); err == nil {
		t.Error("FailBus out of range accepted")
	}
	if err := b.RepairBus(7); err == nil {
		t.Error("RepairBus out of range accepted")
	}
}

func TestIdenticalOrderAtPrimaryAndBackup(t *testing.T) {
	// The core §5.1 property: concurrent senders, but the primary's
	// cluster and the backup's cluster observe their common messages in
	// the same relative order.
	b := New(&trace.Metrics{}, nil)
	inP := b.Attach(0) // primary's cluster
	inB := b.Attach(1) // backup's cluster
	route := types.Route{Dst: 0, DstBackup: 1}

	const senders = 8
	const perSender = 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				m := dataMsg(types.PID(100+s), 7, route, fmt.Sprintf("%d/%d", s, i))
				if _, err := b.BroadcastBatch([]*types.Message{m}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()

	orderP, orderB := drain(inP), drain(inB)
	if len(orderP) != senders*perSender || len(orderB) != senders*perSender {
		t.Fatalf("lost messages: primary=%d backup=%d", len(orderP), len(orderB))
	}
	for i := range orderP {
		if p, bk := string(orderP[i].Payload), string(orderB[i].Payload); p != bk {
			t.Fatalf("order diverges at %d: primary=%s backup=%s", i, p, bk)
		}
	}
}

func TestCrashNoticeReachesEveryLiveCluster(t *testing.T) {
	b := New(&trace.Metrics{}, nil)
	inboxes := make([]*Inbox, 4)
	for i := range inboxes {
		inboxes[i] = b.Attach(types.ClusterID(i))
	}
	b.Detach(2)
	send(t, b, &types.Message{Kind: types.KindCrashNotice, Payload: []byte{2}})
	for i, in := range inboxes {
		want := 1
		if i == 2 {
			want = 0
		}
		if in.Backlog() != want {
			t.Errorf("cluster %d got %d, want %d", i, in.Backlog(), want)
		}
	}
}

func TestCrashNoticeOrderedAfterPriorTraffic(t *testing.T) {
	// Because crash notices ride the same totally-ordered bus, a kernel
	// that sees the notice has already seen every message broadcast before
	// it — the §7.10.1 "all messages distributed before crash handling"
	// precondition.
	b := New(&trace.Metrics{}, nil)
	in := b.Attach(0)
	route := types.Route{Dst: 0}
	for i := 0; i < 10; i++ {
		send(t, b, dataMsg(1, 2, route, fmt.Sprintf("m%d", i)))
	}
	send(t, b, &types.Message{Kind: types.KindCrashNotice})
	ms := drain(in)
	if len(ms) != 11 || ms[10].Kind != types.KindCrashNotice {
		t.Fatalf("crash notice overtook traffic or went missing: got %d messages, want 10 then the notice", len(ms))
	}
}

func TestInboxCloseWakesBlockedPopAll(t *testing.T) {
	b := New(&trace.Metrics{}, nil)
	in := b.Attach(0)
	done := make(chan bool)
	go func() {
		_, ok := in.PopAll(nil)
		done <- ok
	}()
	b.Detach(0)
	if ok := <-done; ok {
		t.Fatal("PopAll returned messages from a closed empty inbox")
	}
}

func TestReattachReplacesInbox(t *testing.T) {
	b := New(&trace.Metrics{}, nil)
	old := b.Attach(0)
	fresh := b.Attach(0)
	if _, ok := old.PopAll(nil); ok {
		t.Fatal("old inbox not closed on reattach")
	}
	send(t, b, dataMsg(1, 2, types.Route{Dst: 0}, "x"))
	if fresh.Backlog() != 1 || old.Backlog() != 0 {
		t.Fatal("message routed to stale inbox")
	}
}

func TestMetricsCountTransmissionsOnce(t *testing.T) {
	var m trace.Metrics
	b := New(&m, nil)
	b.Attach(0)
	b.Attach(1)
	b.Attach(2)
	route := types.Route{Dst: 0, DstBackup: 1, SrcBackup: 2}
	for i := 0; i < 5; i++ {
		send(t, b, dataMsg(1, 2, route, "abcd"))
	}
	if got := m.BusTransmissions.Load(); got != 5 {
		t.Errorf("transmissions = %d, want 5 (once per multicast)", got)
	}
	if got := m.BusDeliveries.Load(); got != 15 {
		t.Errorf("deliveries = %d, want 15", got)
	}
	if got := m.BusBytes.Load(); got != 20 {
		t.Errorf("bytes = %d, want 20", got)
	}
}

func TestFailoverRecordsMetricAndSucceeds(t *testing.T) {
	var m trace.Metrics
	b := New(&m, nil)
	in0 := b.Attach(0)
	route := types.Route{Dst: 0}

	// Healthy dual bus: traffic rides the preferred bus, no failovers.
	send(t, b, dataMsg(1, 2, route, "x"))
	if got := m.BusFailovers.Load(); got != 0 {
		t.Fatalf("failovers on healthy bus = %d, want 0", got)
	}

	// One failed physical bus: the caller must not notice, but the
	// failover must be counted once per transmission.
	if err := b.FailBus(0); err != nil {
		t.Fatal(err)
	}
	send(t, b, dataMsg(1, 2, route, "x"), dataMsg(1, 2, route, "x"), dataMsg(1, 2, route, "x"))
	if got := m.BusFailovers.Load(); got != 3 {
		t.Fatalf("failovers = %d, want 3", got)
	}
	if in0.Backlog() != 4 {
		t.Fatalf("inbox has %d messages, want 4", in0.Backlog())
	}

	// Losing only the secondary bus is not a failover.
	if err := b.RepairBus(0); err != nil {
		t.Fatal(err)
	}
	if err := b.FailBus(1); err != nil {
		t.Fatal(err)
	}
	send(t, b, dataMsg(1, 2, route, "x"))
	if got := m.BusFailovers.Load(); got != 3 {
		t.Fatalf("failovers after secondary-only failure = %d, want 3", got)
	}
}

func TestTransientDropRecoveredByRetry(t *testing.T) {
	var m trace.Metrics
	b := New(&m, nil)
	in0 := b.Attach(0)
	drops := 0
	b.SetFaultHook(func(busIdx int, msg *types.Message, attempt int) bool {
		if attempt == 0 && drops == 0 {
			drops++
			return true
		}
		return false
	})
	if _, err := b.BroadcastBatch([]*types.Message{dataMsg(1, 2, types.Route{Dst: 0}, "x")}); err != nil {
		t.Fatalf("transient drop must be recovered by retry: %v", err)
	}
	if in0.Backlog() != 1 {
		t.Fatalf("inbox has %d messages, want 1", in0.Backlog())
	}
	if got := m.BusFaultDrops.Load(); got != 1 {
		t.Fatalf("fault drops = %d, want 1", got)
	}
	if got := m.BusRetries.Load(); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
	if got := m.BusTransmissions.Load(); got != 1 {
		t.Fatalf("transmissions = %d, want 1 (drops must not mint IDs)", got)
	}
}

func TestPersistentFaultExhaustsRetries(t *testing.T) {
	var m trace.Metrics
	b := New(&m, nil)
	in0 := b.Attach(0)
	b.SetFaultHook(func(busIdx int, msg *types.Message, attempt int) bool {
		return true // every attempt drops
	})
	_, err := b.BroadcastBatch([]*types.Message{dataMsg(1, 2, types.Route{Dst: 0}, "x")})
	if !errors.Is(err, types.ErrTooManyFailures) {
		t.Fatalf("exhausted retries returned %v, want ErrTooManyFailures", err)
	}
	if in0.Backlog() != 0 {
		t.Fatal("dropped transmission still delivered")
	}
	if got := m.BusFaultDrops.Load(); got != MaxTransmitAttempts {
		t.Fatalf("fault drops = %d, want %d", got, MaxTransmitAttempts)
	}

	// Removing the hook restores service; the sender's retry discipline
	// (kernel transmitBatch) can then succeed on a later batch.
	b.SetFaultHook(nil)
	send(t, b, dataMsg(1, 2, types.Route{Dst: 0}, "x"))
	if in0.Backlog() != 1 {
		t.Fatal("post-repair transmission lost")
	}
}

func TestLive(t *testing.T) {
	b := New(&trace.Metrics{}, nil)
	b.Attach(3)
	b.Attach(0)
	b.Attach(5)
	b.Detach(3)
	got := b.Live()
	if len(got) != 2 || got[0] != 0 || got[1] != 5 {
		t.Fatalf("Live = %v", got)
	}
	if b.IsLive(3) || !b.IsLive(5) {
		t.Fatal("IsLive wrong")
	}
}
