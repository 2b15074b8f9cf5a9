package bus

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"auragen/internal/trace"
	"auragen/internal/types"
)

// The lossy-wire tests are deterministic and goroutine-free: nothing drains
// the (unbounded) inboxes, so what each cluster received is read straight
// out of its receive buffers. Every case runs over the three batch shapes
// below; the armed fault always lands on the batch's first transmission,
// which is a crash notice in the mixed shape.

const faultClusters = 4 // data is routed to clusters 0..2; notices reach all four

var faultRoute = types.Route{Dst: 0, DstBackup: 1, SrcBackup: 2}

var faultShapes = []struct {
	name   string
	notice bool // lead with a KindCrashNotice
	data   int
}{
	{"batch1", false, 1},
	{"batch8", false, 8},
	{"notice+data", true, 3},
}

// faultRig returns a four-cluster bus and a fresh batch of the given shape.
// Every message originates at cluster 3.
func faultRig(notice bool, data int) (*Bus, *trace.Metrics, []*Inbox, []*types.Message) {
	m := &trace.Metrics{}
	b := New(m, nil)
	inboxes := make([]*Inbox, faultClusters)
	for c := range inboxes {
		inboxes[c] = b.Attach(types.ClusterID(c))
	}
	var batch []*types.Message
	if notice {
		batch = append(batch, &types.Message{Kind: types.KindCrashNotice, Origin: 3, Payload: []byte("notice")})
	}
	for i := 0; i < data; i++ {
		d := dataMsg(1, 2, faultRoute, fmt.Sprintf("d%d", i))
		d.Origin = 3
		batch = append(batch, d)
	}
	return b, m, inboxes, batch
}

// reaches reports whether a fault-free bus delivers m to cluster c.
func reaches(m *types.Message, c int) bool {
	return m.Kind == types.KindCrashNotice || c < 3
}

// received returns the IDs queued at in, in arrival order.
func received(in *Inbox) []uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	ids := make([]uint64, 0, len(in.q))
	for i := range in.q {
		ids = append(ids, in.q[i].ID)
	}
	return ids
}

// wantIDs is the arrival order a cluster should see for batch, with
// copies(i) copies of the i-th message (0 drops it).
func wantIDs(batch []*types.Message, c int, copies func(i int) int) []uint64 {
	ids := []uint64{}
	for i, m := range batch {
		for n := 0; reaches(m, c) && n < copies(i); n++ {
			ids = append(ids, m.ID)
		}
	}
	return ids
}

func checkReceived(t *testing.T, inboxes []*Inbox, batch []*types.Message, copies func(i int) int) {
	t.Helper()
	for c, in := range inboxes {
		if got, want := received(in), wantIDs(batch, c, copies); !reflect.DeepEqual(got, want) {
			t.Errorf("cluster %d received IDs %v, want %v", c, got, want)
		}
	}
}

func once(int) int { return 1 }

// TestNoFaultArmedLeavesWireNil: a bus nobody armed a fault on never builds
// the fault model, whatever else is called on it — the send path's single
// pointer test is all a fault-free system pays.
func TestNoFaultArmedLeavesWireNil(t *testing.T) {
	for _, shape := range faultShapes {
		t.Run(shape.name, func(t *testing.T) {
			b, _, inboxes, batch := faultRig(shape.notice, shape.data)
			send(t, b, batch...)
			checkReceived(t, inboxes, batch, once)
			// The facade calls these on healthy systems too (partition heal,
			// detector probes, a bus failure): none of them arms a fault.
			b.HealAllCuts()
			b.FlushDelayed()
			if !b.Reachable(0) {
				t.Error("cluster 0 unreachable on a healthy bus")
			}
			if err := b.FailBus(0); err != nil {
				t.Fatal(err)
			}
			send(t, b, dataMsg(1, 2, faultRoute, "failover"))
			if b.wire != nil {
				t.Fatal("fault model allocated on a bus that never armed a fault")
			}
		})
	}
}

// TestDuplicateDeliversTwoCopiesOneID: an armed duplicate delivers the
// transmission twice, back to back, under one minted ID, to every target;
// the rest of the batch is untouched.
func TestDuplicateDeliversTwoCopiesOneID(t *testing.T) {
	for _, shape := range faultShapes {
		t.Run(shape.name, func(t *testing.T) {
			b, m, inboxes, batch := faultRig(shape.notice, shape.data)
			b.ArmDuplicates(1)
			send(t, b, batch...)
			checkReceived(t, inboxes, batch, func(i int) int {
				if i == 0 {
					return 2
				}
				return 1
			})
			if got, want := m.BusTransmissions.Load(), uint64(len(batch)); got != want {
				t.Errorf("transmissions = %d, want %d (a duplicate is one transmission)", got, want)
			}
			// The armed count is spent: the next batch is delivered once.
			for _, in := range inboxes {
				drain(in)
			}
			next := []*types.Message{dataMsg(1, 2, faultRoute, "after")}
			send(t, b, next...)
			checkReceived(t, inboxes, next, once)
		})
	}
}

// TestDelayedFrameArrivesLateWithItsMintedID: a held transmission keeps the
// ID it minted in transmit order, is withheld from every target until the
// bus has accepted `gap` further transmissions, then arrives behind them —
// carrying the bytes it was sent with, not whatever the sender's buffer
// holds by then.
func TestDelayedFrameArrivesLateWithItsMintedID(t *testing.T) {
	const gap = 10
	for _, shape := range faultShapes {
		t.Run(shape.name, func(t *testing.T) {
			b, _, inboxes, batch := faultRig(shape.notice, shape.data)
			b.ArmDelay(1, gap)
			send(t, b, batch...)
			held := batch[0]
			if held.ID != 1 {
				t.Fatalf("held transmission minted ID %d, want 1 (transmit order)", held.ID)
			}
			wantPayload := string(held.Payload)
			for i := range held.Payload {
				held.Payload[i] = '!' // the sender reuses its buffer
			}
			sentAll := append([]*types.Message(nil), batch...)
			for last := batch[len(batch)-1].ID; last < held.ID+gap; {
				checkReceived(t, inboxes, sentAll, func(i int) int {
					if i == 0 {
						return 0 // still held
					}
					return 1
				})
				f := dataMsg(1, 2, faultRoute, "later")
				send(t, b, f)
				sentAll = append(sentAll, f)
				last = f.ID
			}
			// Released behind the transmission that reached the release point.
			arrival := append(sentAll[1:len(sentAll):len(sentAll)], held)
			checkReceived(t, inboxes, arrival, once)
			for c, in := range inboxes {
				if !reaches(held, c) {
					continue
				}
				ms := drain(in)
				if got := ms[len(ms)-1]; got.ID != held.ID || string(got.Payload) != wantPayload {
					t.Errorf("cluster %d: released frame is msg#%d %q, want msg#%d %q", c, got.ID, got.Payload, held.ID, wantPayload)
				}
			}
		})
	}
}

// TestHeldFrameReleasedByHealAndFlush: with the release point out of reach,
// a held frame stays held until the network heals or the watchdog flushes.
func TestHeldFrameReleasedByHealAndFlush(t *testing.T) {
	releases := []struct {
		name string
		fn   func(*Bus)
	}{
		{"HealAllCuts", (*Bus).HealAllCuts},
		{"FlushDelayed", (*Bus).FlushDelayed},
	}
	for _, shape := range faultShapes {
		for _, rel := range releases {
			t.Run(shape.name+"/"+rel.name, func(t *testing.T) {
				b, m, inboxes, batch := faultRig(shape.notice, shape.data)
				holds := 0
				b.SetHoldWatchdog(func() { holds++ })
				b.ArmDelay(1, 1000)
				send(t, b, batch...)
				if holds != 1 {
					t.Fatalf("hold watchdog ran %d times, want 1", holds)
				}
				checkReceived(t, inboxes, batch[1:], once)
				rel.fn(b)
				checkReceived(t, inboxes, append(batch[1:len(batch):len(batch)], batch[0]), once)
				deliveries := 0
				for c := range inboxes {
					deliveries += len(wantIDs(batch, c, once))
				}
				if got := m.BusDeliveries.Load(); got != uint64(deliveries) {
					t.Errorf("deliveries = %d, want %d", got, deliveries)
				}
				rel.fn(b) // nothing left to release
				if got := m.BusDeliveries.Load(); got != uint64(deliveries) {
					t.Errorf("a second release delivered again: deliveries = %d, want %d", got, deliveries)
				}
			})
		}
	}
}

// TestRejectedCorruptFrameRetriedInPlace: a corrupted attempt the decoder
// rejects is retried inside the same ordering section — counted, no ID
// burned, the batch delivered whole and in order.
func TestRejectedCorruptFrameRetriedInPlace(t *testing.T) {
	for _, shape := range faultShapes {
		t.Run(shape.name, func(t *testing.T) {
			b, m, inboxes, batch := faultRig(shape.notice, shape.data)
			b.SetCorrupter(func(*types.Message) *types.Message { return nil })
			b.ArmCorrupt(1)
			send(t, b, batch...)
			for i, msg := range batch {
				if msg.ID != uint64(i+1) {
					t.Fatalf("message %d minted ID %d, want %d (a rejected attempt mints nothing)", i, msg.ID, i+1)
				}
			}
			checkReceived(t, inboxes, batch, once)
			if drops, retries := m.CorruptFrameDrops.Load(), m.BusRetries.Load(); drops != 1 || retries != 1 {
				t.Errorf("corrupt_frame_drops=%d bus_retries=%d, want 1 and 1", drops, retries)
			}
		})
	}
}

// TestCorruptBeyondRetryBudgetTruncates: a frame rejected on every attempt
// fails the transmission like any other multiple failure — the batch is cut
// there, nothing after it is transmitted.
func TestCorruptBeyondRetryBudgetTruncates(t *testing.T) {
	for _, shape := range faultShapes {
		t.Run(shape.name, func(t *testing.T) {
			b, m, inboxes, batch := faultRig(shape.notice, shape.data)
			b.ArmCorrupt(MaxTransmitAttempts) // no corrupter installed: every armed frame dies
			sent, err := b.BroadcastBatch(batch)
			if sent != 0 || !errors.Is(err, types.ErrTooManyFailures) {
				t.Fatalf("sent=%d err=%v, want 0 and ErrTooManyFailures", sent, err)
			}
			checkReceived(t, inboxes, nil, once)
			if drops, retries := m.CorruptFrameDrops.Load(), m.BusRetries.Load(); drops != MaxTransmitAttempts || retries != MaxTransmitAttempts-1 {
				t.Errorf("corrupt_frame_drops=%d bus_retries=%d, want %d and %d", drops, retries, MaxTransmitAttempts, MaxTransmitAttempts-1)
			}
			send(t, b, batch...) // the armed count is spent
			checkReceived(t, inboxes, batch, once)
		})
	}
}

// TestCorruptSurvivorIsWhatEveryTargetReceives: in the case the checksum
// cannot see the damage, the decoded frame — never the original — is
// delivered, with no retry.
func TestCorruptSurvivorIsWhatEveryTargetReceives(t *testing.T) {
	for _, shape := range faultShapes {
		t.Run(shape.name, func(t *testing.T) {
			b, m, inboxes, batch := faultRig(shape.notice, shape.data)
			b.SetCorrupter(func(orig *types.Message) *types.Message {
				damaged := orig.Clone()
				damaged.Payload = []byte("damaged")
				return damaged
			})
			b.ArmCorrupt(1)
			send(t, b, batch...)
			checkReceived(t, inboxes, batch, once)
			for c, in := range inboxes {
				if ms := drain(in); reaches(batch[0], c) && string(ms[0].Payload) != "damaged" {
					t.Errorf("cluster %d received %q, want the surviving damaged frame", c, ms[0].Payload)
				}
			}
			if drops, retries := m.CorruptFrameDrops.Load(), m.BusRetries.Load(); drops != 0 || retries != 0 {
				t.Errorf("corrupt_frame_drops=%d bus_retries=%d, want 0 and 0", drops, retries)
			}
		})
	}
}

// TestInboundCutFailsOverThenDrops: an inbound cut on one physical bus is
// absorbed per target by the other; on both buses the cluster is isolated —
// its deliveries are silently dropped and counted while co-targets still
// receive, and the detector's reachability probe agrees at every step.
func TestInboundCutFailsOverThenDrops(t *testing.T) {
	const victim = 1
	for _, shape := range faultShapes {
		t.Run(shape.name, func(t *testing.T) {
			b, m, inboxes, batch := faultRig(shape.notice, shape.data)
			toVictim := uint64(len(wantIDs(batch, victim, once)))

			if err := b.Cut(0, victim, true, false); err != nil {
				t.Fatal(err)
			}
			if !b.Reachable(victim) {
				t.Error("victim unreachable with one bus still clear")
			}
			send(t, b, batch...)
			checkReceived(t, inboxes, batch, once)
			if got := m.BusFailovers.Load(); got != toVictim {
				t.Errorf("failovers = %d, want %d (one per delivery to the victim)", got, toVictim)
			}

			if err := b.Cut(1, victim, true, false); err != nil {
				t.Fatal(err)
			}
			if b.Reachable(victim) || !b.Reachable(0) {
				t.Error("Reachable disagrees with a full inbound cut of the victim alone")
			}
			for _, in := range inboxes {
				drain(in)
			}
			send(t, b, batch...)
			for c, in := range inboxes {
				want := wantIDs(batch, c, once)
				if c == victim {
					want = []uint64{}
				}
				if got := received(in); !reflect.DeepEqual(got, want) {
					t.Errorf("cluster %d received IDs %v, want %v", c, got, want)
				}
			}
			if got := m.PartitionDrops.Load(); got != toVictim {
				t.Errorf("partition_drops = %d, want %d", got, toVictim)
			}
			// The victim was cut inbound only: its own traffic still flows.
			fromVictim := dataMsg(1, 2, types.Route{Dst: 0}, "stale primary")
			fromVictim.Origin = victim
			send(t, b, fromVictim)
			if got := received(inboxes[0]); got[len(got)-1] != fromVictim.ID {
				t.Error("inbound cut also severed the victim's outbound traffic")
			}

			b.HealAllCuts()
			if !b.Reachable(victim) {
				t.Error("victim unreachable after heal")
			}
			for _, in := range inboxes {
				drain(in)
			}
			send(t, b, batch...)
			checkReceived(t, inboxes, batch, once)
		})
	}
}

// TestOutboundCutSilencesTheOrigin: cutting a cluster's outbound links on
// every healthy bus loses all of its transmissions, at every target, while
// the sender is told nothing and other origins are unaffected.
func TestOutboundCutSilencesTheOrigin(t *testing.T) {
	for _, shape := range faultShapes {
		t.Run(shape.name, func(t *testing.T) {
			b, m, inboxes, batch := faultRig(shape.notice, shape.data)
			if err := b.FailBus(1); err != nil {
				t.Fatal(err)
			}
			if err := b.Cut(0, 3, false, true); err != nil { // bus 1 is down: no failover left
				t.Fatal(err)
			}
			send(t, b, batch...)
			checkReceived(t, inboxes, nil, once)
			lost := 0
			for c := range inboxes {
				lost += len(wantIDs(batch, c, once))
			}
			if got := m.PartitionDrops.Load(); got != uint64(lost) {
				t.Errorf("partition_drops = %d, want %d", got, lost)
			}
			other := dataMsg(1, 2, faultRoute, "other origin")
			other.Origin = 0
			send(t, b, other)
			checkReceived(t, inboxes, []*types.Message{other}, once)
		})
	}
}
