package bus

import (
	"sync"
	"testing"

	"auragen/internal/trace"
	"auragen/internal/types"
)

// runBackpressure drives P concurrent producers through BroadcastBatch into
// one inbox drained by a single PopAll consumer (with optional drain
// jitter), and checks what the queue owes that consumer:
//
//   - no loss and no duplication: every producer's N messages arrive
//     exactly once;
//   - no reordering within a producer: each producer stamps Seq 0..N-1 and
//     sends sequentially, so §5.1's total order must preserve each
//     producer's subsequence.
func runBackpressure(t *testing.T, jitter *types.RNG) {
	t.Helper()
	const (
		producers = 4
		perProd   = 300
		batch     = 7
	)
	b := New(&trace.Metrics{}, nil)
	in := b.Attach(0)
	in.SetDrainJitter(jitter)
	route := types.Route{Dst: 0, DstBackup: types.NoCluster, SrcBackup: types.NoCluster}

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for seq := 0; seq < perProd; seq += batch {
				var msgs []*types.Message
				for i := seq; i < seq+batch && i < perProd; i++ {
					msgs = append(msgs, &types.Message{
						Kind:    types.KindData,
						Channel: types.ChannelID(p),
						Seq:     types.Seq(i),
						Route:   route,
					})
				}
				if n, err := b.BroadcastBatch(msgs); err != nil || n != len(msgs) {
					t.Errorf("producer %d: sent %d of %d: %v", p, n, len(msgs), err)
					return
				}
			}
		}(p)
	}

	got := make([][]types.Seq, producers)
	var buf []types.Message
	for total := 0; total < producers*perProd; {
		ms, ok := in.PopAll(buf)
		if !ok {
			t.Fatalf("inbox closed after %d of %d messages", total, producers*perProd)
		}
		for i := range ms {
			p := int(ms[i].Channel)
			got[p] = append(got[p], ms[i].Seq)
		}
		total += len(ms)
		buf = ms
	}
	wg.Wait()

	for p := 0; p < producers; p++ {
		if len(got[p]) != perProd {
			t.Fatalf("producer %d: %d of %d messages received", p, len(got[p]), perProd)
		}
		for i, s := range got[p] {
			if s != types.Seq(i) {
				t.Fatalf("producer %d: position %d holds seq %d (lost, duplicated, or reordered)", p, i, s)
			}
		}
	}
}

// TestInboxBackpressureProperty: concurrent batched producers against one
// inbox and its consumer — exact delivery, per-producer order.
func TestInboxBackpressureProperty(t *testing.T) {
	runBackpressure(t, nil)
}

// TestInboxBackpressureUnderJitter reruns the property with the schedule
// perturber's partial drains on: a random FIFO prefix per PopAll must not
// weaken either invariant.
func TestInboxBackpressureUnderJitter(t *testing.T) {
	runBackpressure(t, types.NewRNG(0xBAC4))
}
