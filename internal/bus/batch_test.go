package bus

import (
	"fmt"
	"testing"

	"auragen/internal/trace"
	"auragen/internal/types"
)

// TestBroadcastBatchOrderAndRouting: a mixed batch (ordinary routes plus a
// membership-level kind mid-batch) is transmitted in order with increasing
// IDs, routed per message, and counted as ONE batch.
func TestBroadcastBatchOrderAndRouting(t *testing.T) {
	m := &trace.Metrics{}
	b := New(m, nil)
	in0 := b.Attach(0)
	in1 := b.Attach(1)
	in2 := b.Attach(2)

	batch := []*types.Message{
		dataMsg(1, 2, types.Route{Dst: 1, DstBackup: types.NoCluster, SrcBackup: types.NoCluster}, "a"),
		{Kind: types.KindCrashNotice, Route: types.Route{Dst: types.NoCluster}},
		dataMsg(1, 2, types.Route{Dst: 1, DstBackup: 2, SrcBackup: 0}, "b"),
	}
	sent, err := b.BroadcastBatch(batch)
	if err != nil || sent != 3 {
		t.Fatalf("sent=%d err=%v", sent, err)
	}
	for i := 1; i < len(batch); i++ {
		if batch[i].ID <= batch[i-1].ID {
			t.Fatalf("IDs not increasing: %d then %d", batch[i-1].ID, batch[i].ID)
		}
	}
	// in1 gets all three; in0/in2 get the crash notice + "b".
	if in1.Backlog() != 3 || in0.Backlog() != 2 || in2.Backlog() != 2 {
		t.Fatalf("inbox depths = %d %d %d", in0.Backlog(), in1.Backlog(), in2.Backlog())
	}
	// Per-inbox arrival order matches batch order.
	want := []types.Kind{types.KindData, types.KindCrashNotice, types.KindData}
	for i, got := range drain(in1) {
		if got.Kind != want[i] {
			t.Fatalf("in1 arrival %d is %v, want order %v", i, got.Kind, want)
		}
	}
	if got := m.BusBatches.Load(); got != 1 {
		t.Fatalf("bus_batches = %d, want 1", got)
	}
	if got := m.BusBatchedMessages.Load(); got != 3 {
		t.Fatalf("bus_batched_messages = %d, want 3", got)
	}
}

// TestBroadcastBatchFaultRetryWithinBatch: a transient fault on one
// message's first attempt is retried inside the critical section and the
// whole batch still goes through.
func TestBroadcastBatchFaultRetryWithinBatch(t *testing.T) {
	m := &trace.Metrics{}
	b := New(m, nil)
	b.Attach(0)
	in1 := b.Attach(1)
	b.SetFaultHook(func(busIdx int, msg *types.Message, attempt int) bool {
		return string(msg.Payload) == "flaky" && attempt == 0
	})
	batch := []*types.Message{
		dataMsg(1, 2, types.Route{Dst: 1}, "ok"),
		dataMsg(1, 2, types.Route{Dst: 1}, "flaky"),
		dataMsg(1, 2, types.Route{Dst: 1}, "ok2"),
	}
	sent, err := b.BroadcastBatch(batch)
	if err != nil || sent != 3 {
		t.Fatalf("sent=%d err=%v", sent, err)
	}
	if in1.Backlog() != 3 {
		t.Fatalf("delivered %d, want 3", in1.Backlog())
	}
	if m.BusRetries.Load() != 1 {
		t.Fatalf("bus_retries = %d, want 1", m.BusRetries.Load())
	}
}

// TestBroadcastBatchTruncatesOnFailure: a message dropped past the retry
// budget truncates the batch — earlier messages are delivered, the failed
// one and everything after are not (no holes).
func TestBroadcastBatchTruncatesOnFailure(t *testing.T) {
	m := &trace.Metrics{}
	b := New(m, nil)
	b.Attach(0)
	in1 := b.Attach(1)
	b.SetFaultHook(func(busIdx int, msg *types.Message, attempt int) bool {
		return string(msg.Payload) == "doomed"
	})
	batch := []*types.Message{
		dataMsg(1, 2, types.Route{Dst: 1}, "a"),
		dataMsg(1, 2, types.Route{Dst: 1}, "b"),
		dataMsg(1, 2, types.Route{Dst: 1}, "doomed"),
		dataMsg(1, 2, types.Route{Dst: 1}, "after"),
	}
	sent, err := b.BroadcastBatch(batch)
	if err == nil {
		t.Fatal("doomed batch reported success")
	}
	if sent != 2 {
		t.Fatalf("sent = %d, want 2", sent)
	}
	got := drain(in1)
	if len(got) != 2 {
		t.Fatalf("delivered %d, want 2", len(got))
	}
	for i, want := range []string{"a", "b"} {
		if string(got[i].Payload) != want {
			t.Fatalf("delivered %q, want %q", got[i].Payload, want)
		}
	}
}

// TestBroadcastBatchBothBusesDown: nothing is transmitted or delivered.
func TestBroadcastBatchBothBusesDown(t *testing.T) {
	b := New(&trace.Metrics{}, nil)
	b.Attach(0)
	in1 := b.Attach(1)
	if err := b.FailBus(0); err != nil {
		t.Fatal(err)
	}
	if err := b.FailBus(1); err != nil {
		t.Fatal(err)
	}
	sent, err := b.BroadcastBatch([]*types.Message{
		dataMsg(1, 2, types.Route{Dst: 1}, "x"),
	})
	if err == nil || sent != 0 {
		t.Fatalf("sent=%d err=%v, want 0 and error", sent, err)
	}
	if in1.Backlog() != 0 {
		t.Fatal("message delivered with both buses down")
	}
}

// TestInboxPeakWatermark: the inbox_peak metric records the deepest queue
// observed across batches.
func TestInboxPeakWatermark(t *testing.T) {
	m := &trace.Metrics{}
	b := New(m, nil)
	in1 := b.Attach(1)
	var batch []*types.Message
	for i := 0; i < 10; i++ {
		batch = append(batch, dataMsg(1, 2, types.Route{Dst: 1}, fmt.Sprint(i)))
	}
	if _, err := b.BroadcastBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := m.InboxPeak.Load(); got != 10 {
		t.Fatalf("inbox_peak = %d, want 10", got)
	}
	// Draining then refilling shallower must not lower the watermark.
	drain(in1)
	send(t, b, dataMsg(1, 2, types.Route{Dst: 1}, "one"))
	if got := m.InboxPeak.Load(); got != 10 {
		t.Fatalf("inbox_peak dropped to %d", got)
	}
}

// TestBroadcastBatchSteadyStateAllocs pins the batch path's allocation
// contract: once the receive queues are warm, a BroadcastBatch call
// allocates nothing at all, payload bytes included — the targets share the
// sender's payload slices instead of copying them.
//
// The sending goroutine drains every inbox itself after each batch, so the
// queues stay one batch deep: a consumer goroutine that lagged would grow a
// queue, and that growth is not the batch path's allocation.
func TestBroadcastBatchSteadyStateAllocs(t *testing.T) {
	bus := New(&trace.Metrics{}, nil)
	var inboxes [3]*Inbox
	var bufs [3][]types.Message
	for c := range inboxes {
		inboxes[c] = bus.Attach(types.ClusterID(c))
	}
	route := types.Route{Dst: 0, DstBackup: 1, SrcBackup: 2}
	batch := make([]*types.Message, 64)
	for j := range batch {
		batch[j] = dataMsg(1, 2, route, "sixty-four bytes or so")
	}
	send := func() {
		if _, err := bus.BroadcastBatch(batch); err != nil {
			t.Fatal(err)
		}
		for c, in := range inboxes {
			ms, _ := in.PopAll(bufs[c])
			bufs[c] = ms
		}
	}
	for i := 0; i < 4; i++ { // warm both buffers each inbox swaps between
		send()
	}
	if allocs := testing.AllocsPerRun(200, send); allocs > 0 {
		t.Fatalf("BroadcastBatch allocated %.2f objects per batch; want 0", allocs)
	}
}

// BenchmarkBroadcast is the per-message baseline: batches of one, so one
// critical-section acquisition per message.
func BenchmarkBroadcast(b *testing.B) {
	bus := New(&trace.Metrics{}, nil)
	for c := types.ClusterID(0); c < 3; c++ {
		in := bus.Attach(c)
		go func() {
			var buf []types.Message
			for {
				ms, ok := in.PopAll(buf)
				if !ok {
					return
				}
				buf = ms
			}
		}()
	}
	route := types.Route{Dst: 0, DstBackup: 1, SrcBackup: 2}
	one := []*types.Message{dataMsg(1, 2, route, string(make([]byte, 64)))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bus.BroadcastBatch(one); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBroadcastBatch64 sends the same traffic 64 messages per
// critical-section acquisition.
func BenchmarkBroadcastBatch64(b *testing.B) {
	bus := New(&trace.Metrics{}, nil)
	for c := types.ClusterID(0); c < 3; c++ {
		in := bus.Attach(c)
		go func() {
			var buf []types.Message
			for {
				ms, ok := in.PopAll(buf)
				if !ok {
					return
				}
				buf = ms
			}
		}()
	}
	route := types.Route{Dst: 0, DstBackup: 1, SrcBackup: 2}
	payload := string(make([]byte, 64))
	batch := make([]*types.Message, 64)
	for j := range batch {
		batch[j] = dataMsg(1, 2, route, payload)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 64 {
		if _, err := bus.BroadcastBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBroadcastContended measures batches of one with GOMAXPROCS
// producers contending for the critical section.
func BenchmarkBroadcastContended(b *testing.B) {
	bus := New(&trace.Metrics{}, nil)
	in := bus.Attach(0)
	go func() {
		var buf []types.Message
		for {
			ms, ok := in.PopAll(buf)
			if !ok {
				return
			}
			buf = ms
		}
	}()
	route := types.Route{Dst: 0}
	payload := string(make([]byte, 64))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		one := []*types.Message{dataMsg(1, 2, route, payload)}
		for pb.Next() {
			if _, err := bus.BroadcastBatch(one); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBroadcastBatchContended is the batched counterpart of
// BenchmarkBroadcastContended: each producer offers 64-message batches.
func BenchmarkBroadcastBatchContended(b *testing.B) {
	bus := New(&trace.Metrics{}, nil)
	in := bus.Attach(0)
	go func() {
		var buf []types.Message
		for {
			ms, ok := in.PopAll(buf)
			if !ok {
				return
			}
			buf = ms
		}
	}()
	route := types.Route{Dst: 0}
	payload := string(make([]byte, 64))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		batch := make([]*types.Message, 0, 64)
		for j := 0; j < 64; j++ {
			batch = append(batch, dataMsg(1, 2, route, payload))
		}
		pending := 0
		for pb.Next() {
			pending++
			if pending == 64 {
				if _, err := bus.BroadcastBatch(batch); err != nil {
					b.Fatal(err)
				}
				pending = 0
			}
		}
		if pending > 0 {
			if _, err := bus.BroadcastBatch(batch[:pending]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
