package bus

import (
	"fmt"
	"sync"
	"testing"

	"auragen/internal/trace"
	"auragen/internal/types"
)

func TestNewPanicsOnNilMetrics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil, nil) did not panic; silent private sinks split system counters")
		}
	}()
	New(nil, nil)
}

func TestBroadcastMintsMonotonicMessageIDs(t *testing.T) {
	log := trace.NewEventLog(64)
	b := New(&trace.Metrics{}, log)
	in0 := b.Attach(0)
	in1 := b.Attach(1)
	route := types.Route{Dst: 0, DstBackup: 1}
	for i := 0; i < 3; i++ {
		send(t, b, dataMsg(1, 2, route, "x"))
	}
	ms0, ms1 := drain(in0), drain(in1)
	for i, want := 0, uint64(1); want <= 3; i, want = i+1, want+1 {
		if ms0[i].ID != want || ms1[i].ID != want {
			t.Fatalf("copies carry IDs %d/%d, want both %d", ms0[i].ID, ms1[i].ID, want)
		}
	}
	// One EvTransmit per multicast, one EvReceive per copy.
	if got := log.Count(trace.EvTransmit); got != 3 {
		t.Errorf("EvTransmit count = %d, want 3", got)
	}
	if got := log.Count(trace.EvReceive); got != 6 {
		t.Errorf("EvReceive count = %d, want 6", got)
	}
	// The transmit event precedes its receive events and shares their ID.
	var lastTransmit uint64
	for _, e := range log.Events() {
		switch e.Kind {
		case trace.EvTransmit:
			if e.MsgID != lastTransmit+1 {
				t.Fatalf("transmit IDs not monotonic: %d after %d", e.MsgID, lastTransmit)
			}
			lastTransmit = e.MsgID
		case trace.EvReceive:
			if e.MsgID != lastTransmit {
				t.Fatalf("receive for msg#%d before its transmit (last transmit %d)", e.MsgID, lastTransmit)
			}
		}
	}
}

// receiveOrders extracts, per cluster, the sequence of message IDs recorded
// by EvReceive events, in event-log order.
func receiveOrders(events []trace.Event) map[types.ClusterID][]uint64 {
	orders := make(map[types.ClusterID][]uint64)
	for _, e := range events {
		if e.Kind == trace.EvReceive {
			orders[e.Cluster] = append(orders[e.Cluster], e.MsgID)
		}
	}
	return orders
}

// assertNoInterleaving checks the §5.1 property on a trace: for every pair
// of clusters, the per-cluster order of their shared message IDs is
// identical.
func assertNoInterleaving(t *testing.T, orders map[types.ClusterID][]uint64) {
	t.Helper()
	var clusters []types.ClusterID
	for c := range orders {
		clusters = append(clusters, c)
	}
	for i := 0; i < len(clusters); i++ {
		for j := i + 1; j < len(clusters); j++ {
			a, bIDs := orders[clusters[i]], orders[clusters[j]]
			inB := make(map[uint64]bool, len(bIDs))
			for _, id := range bIDs {
				inB[id] = true
			}
			inA := make(map[uint64]bool, len(a))
			for _, id := range a {
				inA[id] = true
			}
			var sharedA, sharedB []uint64
			for _, id := range a {
				if inB[id] {
					sharedA = append(sharedA, id)
				}
			}
			for _, id := range bIDs {
				if inA[id] {
					sharedB = append(sharedB, id)
				}
			}
			if len(sharedA) != len(sharedB) {
				t.Fatalf("%v/%v shared-message counts differ: %d vs %d",
					clusters[i], clusters[j], len(sharedA), len(sharedB))
			}
			for k := range sharedA {
				if sharedA[k] != sharedB[k] {
					t.Fatalf("%v and %v disagree on shared message %d: msg#%d vs msg#%d",
						clusters[i], clusters[j], k, sharedA[k], sharedB[k])
				}
			}
		}
	}
}

func TestTraceOrderingPropertyAcrossClusterPairs(t *testing.T) {
	// The §5.1 no-interleaving guarantee, asserted from the event log
	// rather than queue internals: concurrent senders multicast to
	// overlapping cluster subsets; for every pair of clusters, the order
	// of the message IDs they both received must be identical.
	log := trace.NewEventLog(1 << 16)
	b := New(&trace.Metrics{}, log)
	for c := types.ClusterID(0); c < 3; c++ {
		b.Attach(c)
	}
	routes := []types.Route{
		{Dst: 0, DstBackup: 1, SrcBackup: types.NoCluster},
		{Dst: 1, DstBackup: 2, SrcBackup: types.NoCluster},
		{Dst: 2, DstBackup: 0, SrcBackup: types.NoCluster},
		{Dst: 0, DstBackup: 1, SrcBackup: 2},
	}
	const senders = 8
	const perSender = 300
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				route := routes[(s+i)%len(routes)]
				m := dataMsg(types.PID(100+s), 7, route, fmt.Sprintf("%d/%d", s, i))
				if _, err := b.BroadcastBatch([]*types.Message{m}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()

	if dropped := log.Dropped(); dropped != 0 {
		t.Fatalf("event ring overflowed (%d dropped); grow the test's capacity", dropped)
	}
	orders := receiveOrders(log.Events())
	if len(orders) != 3 {
		t.Fatalf("expected receives at 3 clusters, got %d", len(orders))
	}
	total := 0
	for _, ids := range orders {
		total += len(ids)
	}
	if total == 0 {
		t.Fatal("no receive events recorded")
	}
	assertNoInterleaving(t, orders)
}

func TestDisabledLogBroadcastAllocs(t *testing.T) {
	// The acceptance bar for the tracing subsystem: with the event log
	// disabled (nil), the send path must not allocate for tracing. Sending
	// to a detached target isolates the path from inbox appends; the bus
	// copies no payload, so nothing else allocates either.
	if raceEnabled {
		t.Skip("AllocsPerRun unreliable under -race")
	}
	b := New(&trace.Metrics{}, nil)
	one := []*types.Message{{
		Kind:    types.KindData,
		Src:     1,
		Dst:     2,
		Route:   types.Route{Dst: 5, DstBackup: types.NoCluster, SrcBackup: types.NoCluster},
		Payload: []byte("abcdefgh"),
	}}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := b.BroadcastBatch(one); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("BroadcastBatch with disabled log allocates %.1f times per op, want 0", allocs)
	}
}
