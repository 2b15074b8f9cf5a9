package kernel

import (
	"slices"
	"sync"
	"testing"

	"auragen/internal/bus"
	"auragen/internal/directory"
	"auragen/internal/guest"
	"auragen/internal/routing"
	"auragen/internal/trace"
	"auragen/internal/types"
)

// bareKernel returns a kernel attached to a standalone bus, never started:
// no executive goroutine runs, so a test drives rxDuplicate and dispatch
// itself, one call at a time. The wiring is what core.NewBareBus does (core
// imports this package, so the tests cannot).
func bareKernel(id types.ClusterID) *Kernel {
	metrics := new(trace.Metrics)
	return New(Config{
		ID:       id,
		Bus:      bus.New(metrics, nil),
		Dir:      directory.New(),
		Registry: guest.NewRegistry(),
		Metrics:  metrics,
	})
}

// dispatch routes one arriving message, taking k.mu itself: what
// dispatchBatch does for a batch of one that is no duplicate.
func (k *Kernel) dispatch(in *types.Message) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.dispatchLocked(in)
}

func TestRxDuplicateWindow(t *testing.T) {
	t.Run("the last window of IDs is remembered", func(t *testing.T) {
		k := bareKernel(2)
		const last = 3*rxDedupWindow + 17
		for id := uint64(1); id <= last; id++ {
			if k.rxDuplicate(id) {
				t.Fatalf("first delivery of ID %d reported duplicate", id)
			}
		}
		for id := uint64(last - rxDedupWindow + 1); id <= last; id++ {
			if !k.rxDuplicate(id) {
				t.Fatalf("re-offered ID %d (of the last %d) not reported duplicate", id, rxDedupWindow)
			}
			if !k.rxDuplicate(id) {
				t.Fatalf("ID %d offered a third time not reported duplicate", id)
			}
		}
	})
	t.Run("IDs one window apart never alias", func(t *testing.T) {
		k := bareKernel(2)
		for _, id := range []uint64{5, 5 + rxDedupWindow, 5 + 2*rxDedupWindow, 5} {
			if k.rxDuplicate(id) {
				t.Fatalf("ID %d reported duplicate; only an equal ID may be", id)
			}
		}
	})
	t.Run("the window's edge", func(t *testing.T) {
		// What the wire can do to two copies of one transmission, against
		// the one thing that would make the second copy slip through.
		for _, tc := range []struct {
			name    string
			between []uint64 // IDs delivered between the two copies of ID 1000
			caught  bool
		}{
			{"copies back to back", nil, true},
			{"a full window less one of other IDs between", idRange(1001, rxDedupWindow-1), true},
			{"a held copy released behind newer traffic", idRange(1001, 40), true},
			{"an older held frame released between the copies", []uint64{1000 - 30}, true},
			{"the ID exactly one window later between", []uint64{1000 + rxDedupWindow}, false},
			{"the ID exactly one window earlier between", []uint64{1000 - rxDedupWindow}, false},
			{"two windows later between", []uint64{1000 + 2*rxDedupWindow}, false},
		} {
			k := bareKernel(2)
			if k.rxDuplicate(1000) {
				t.Fatalf("%s: first copy reported duplicate", tc.name)
			}
			for _, id := range tc.between {
				if k.rxDuplicate(id) {
					t.Fatalf("%s: fresh ID %d reported duplicate", tc.name, id)
				}
			}
			if got := k.rxDuplicate(1000); got != tc.caught {
				t.Errorf("%s: second copy reported duplicate = %v, want %v", tc.name, got, tc.caught)
			}
		}
	})
	t.Run("ID 0 is never a duplicate", func(t *testing.T) {
		k := bareKernel(2)
		for i := 0; i < 3; i++ {
			if k.rxDuplicate(0) {
				t.Fatal("unminted ID 0 reported duplicate")
			}
		}
		k.rxDuplicate(rxDedupWindow) // shares slot 0
		if k.rxDuplicate(0) {
			t.Fatal("ID 0 reported duplicate after its slot was used")
		}
		if !k.rxDuplicate(rxDedupWindow) {
			t.Fatal("ID 0 evicted the ID in its slot")
		}
	})
	t.Run("a delayed ID is accepted exactly once", func(t *testing.T) {
		k := bareKernel(2)
		for id := uint64(1); id <= 100; id++ {
			if id != 40 {
				k.rxDuplicate(id)
			}
		}
		if k.rxDuplicate(40) {
			t.Fatal("delayed ID 40 rejected on its first arrival")
		}
		if !k.rxDuplicate(40) {
			t.Fatal("second copy of delayed ID 40 accepted")
		}
	})
}

// idRange returns n consecutive IDs starting at first.
func idRange(first uint64, n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = first + uint64(i)
	}
	return ids
}

// The fixture is one data message from pid 101 (cluster 1, backup on
// cluster 3) to pid 102 (cluster 2, backup on cluster 4); each test gives the
// receiving cluster's kernel the routing entry its role uses.
const (
	fixCh  types.ChannelID = 7
	fixSrc types.PID       = 101
	fixDst types.PID       = 102
)

func fixtureMessage(route types.Route) types.Message {
	return types.Message{
		ID: 9, Kind: types.KindData, Channel: fixCh, Src: fixSrc, Dst: fixDst,
		Route: route, Origin: 1, Inc: 1, Payload: []byte("sixty-four bytes of payload, give or take a few, as in echo_ft."),
	}
}

func addEntry(k *Kernel, owner, peer types.PID, role routing.Role) *routing.Entry {
	e := &routing.Entry{Channel: fixCh, Owner: owner, Peer: peer, Role: role}
	k.table.Add(e)
	return e
}

func TestDispatchRoles(t *testing.T) {
	route := types.Route{Dst: 2, DstBackup: 4, SrcBackup: 3}
	shared := fixtureMessage(route)
	pristine := shared
	pristine.Payload = append([]byte(nil), shared.Payload...)
	unchanged := func(t *testing.T) {
		t.Helper()
		if shared.Seq != 0 || shared.Channel != fixCh || string(shared.Payload) != string(pristine.Payload) {
			t.Fatalf("dispatch wrote to the message value shared with sibling clusters: %+v", shared)
		}
	}

	t.Run("primary destination queues it stamped", func(t *testing.T) {
		k := bareKernel(2)
		e := addEntry(k, fixDst, fixSrc, routing.Primary)
		k.dispatch(&shared)
		k.dispatch(&shared)
		q := e.Queued()
		if len(q) != 2 || q[0].Seq != 1 || q[1].Seq != 2 {
			t.Fatalf("primary queue = %v, want two messages with Seq 1, 2", q)
		}
		for i := range q {
			if q[i].ID != shared.ID || q[i].Src != fixSrc || &q[i].Payload[0] != &shared.Payload[0] {
				t.Fatalf("queued message %d = %+v, want the delivered value with its shared payload", i, q[i])
			}
		}
		if got := k.metrics.PrimaryDeliveries.Load(); got != 2 {
			t.Fatalf("PrimaryDeliveries = %d", got)
		}
		unchanged(t)
	})
	t.Run("destination's backup saves it", func(t *testing.T) {
		k := bareKernel(4)
		e := addEntry(k, fixDst, fixSrc, routing.Backup)
		k.dispatch(&shared)
		if q := e.Queued(); len(q) != 1 || q[0].Seq != 1 || q[0].ID != shared.ID || &q[0].Payload[0] != &shared.Payload[0] {
			t.Fatalf("saved queue = %v", q)
		}
		if got := k.metrics.BackupSaves.Load(); got != 1 {
			t.Fatalf("BackupSaves = %d", got)
		}
		unchanged(t)
	})
	t.Run("sender's backup counts and discards it", func(t *testing.T) {
		k := bareKernel(3)
		e := addEntry(k, fixSrc, fixDst, routing.Backup)
		k.dispatch(&shared)
		if e.Unsent() != 1 || e.QueueLen() != 0 {
			t.Fatalf("Unsent = %d, queued %d; want 1, 0", e.Unsent(), e.QueueLen())
		}
		if got := k.metrics.SenderBackupCounts.Load(); got != 1 {
			t.Fatalf("SenderBackupCounts = %d", got)
		}
		unchanged(t)
	})
	t.Run("one cluster as destination and its backup keeps independent copies", func(t *testing.T) {
		both := fixtureMessage(types.Route{Dst: 2, DstBackup: 2, SrcBackup: 3})
		k := bareKernel(2)
		pe := addEntry(k, fixDst, fixSrc, routing.Primary)
		be := addEntry(k, fixDst, fixSrc, routing.Backup)
		k.dispatch(&both)
		pq, bq := pe.Queued(), be.Queued()
		if len(pq) != 1 || len(bq) != 1 || pq[0].Seq != 1 || bq[0].Seq != 1 {
			t.Fatalf("primary queue %v, saved queue %v; want one message each, Seq 1", pq, bq)
		}
		if &pq[0].Payload[0] == &bq[0].Payload[0] {
			t.Fatal("the saved copy aliases the primary's")
		}
		if &bq[0].Payload[0] == &both.Payload[0] || string(bq[0].Payload) != string(both.Payload) {
			t.Fatal("the saved copy must own an equal payload")
		}
	})
}

// recordingServer is a server that records the requests it services and,
// once promoted, replays, answering each with one reply.
type recordingServer struct {
	pid      types.PID
	serviced []types.ChannelID
	replayed []uint64 // message IDs
}

func (s *recordingServer) PID() types.PID { return s.pid }
func (s *recordingServer) Receive(_ *ServerCtx, m *types.Message) {
	s.serviced = append(s.serviced, m.Channel)
}
func (s *recordingServer) SyncBlob() []byte { return nil }
func (s *recordingServer) ApplySync([]byte) {}
func (s *recordingServer) Promote(ctx *ServerCtx, saved []*types.Message) {
	for _, m := range saved {
		s.replayed = append(s.replayed, m.ID)
		ctx.Reply(m.Channel, m.Src, types.KindData, nil)
	}
}

// TestPromotedTwinReplaysInArrivalOrder: a server twin saves requests in one
// backup entry per channel. Promotion hands the server all of them lowest
// arrival Seq first — the order across channels in which the failed primary
// serviced them — and each entry's count of replies since sync becomes its
// budget of re-sends to drop.
func TestPromotedTwinReplaysInArrivalOrder(t *testing.T) {
	k := bareKernel(4)
	srv := &recordingServer{pid: fixDst}
	k.RegisterServer(srv, routing.Backup, 2)
	for i, ch := range []types.ChannelID{7, 8, 8, 7, 8} {
		m := fixtureMessage(types.Route{Dst: 2, DstBackup: 4, SrcBackup: 3})
		m.ID, m.Channel = uint64(10+i), ch
		k.dispatch(&m)
	}
	// One reply on channel 8 escaped the failed primary.
	escaped := types.Message{ID: 20, Kind: types.KindData, Channel: 8, Src: fixDst, Dst: fixSrc,
		Route: types.Route{Dst: 1, DstBackup: 3, SrcBackup: 4}, Origin: 2, Inc: 1}
	k.dispatch(&escaped)
	k.mu.Lock()
	k.promoteServerLocked(k.servers[fixDst])
	var sent []types.ChannelID
	for _, m := range k.outgoing.Live() {
		sent = append(sent, m.Channel)
	}
	k.mu.Unlock()
	if want := []uint64{10, 11, 12, 13, 14}; !slices.Equal(srv.replayed, want) {
		t.Fatalf("replayed %v, want arrival order %v", srv.replayed, want)
	}
	if want := []types.ChannelID{7, 8, 7, 8}; !slices.Equal(sent, want) {
		t.Fatalf("replies sent on %v, want %v: the first on channel 8 escaped", sent, want)
	}
	if n := k.metrics.SuppressedSends.Load(); n != 1 {
		t.Fatalf("SuppressedSends = %d, want 1", n)
	}
}

// TestDispatchAheadOfPromotion: the directory records a crash before the
// crash notice is on the bus, so a sender can route to a backup as the
// destination's primary before this cluster has promoted it. The message is
// saved, as a backup copy is, rather than dropped for want of a primary
// entry; an open reply so routed creates the backup entry of its channel.
func TestDispatchAheadOfPromotion(t *testing.T) {
	ahead := types.Route{Dst: 4, DstBackup: types.NoCluster, SrcBackup: types.NoCluster}

	t.Run("a user process's backup saves it", func(t *testing.T) {
		k := bareKernel(4)
		k.backups[fixDst] = &BackupPCB{pid: fixDst, primaryCluster: 2}
		e := addEntry(k, fixDst, fixSrc, routing.Backup)
		m := fixtureMessage(ahead)
		k.dispatch(&m)
		if q := e.Queued(); len(q) != 1 || q[0].ID != m.ID {
			t.Fatalf("saved queue = %v, want the message", q)
		}
		if d, s := k.metrics.PrimaryDeliveries.Load(), k.metrics.BackupSaves.Load(); d != 0 || s != 1 {
			t.Fatalf("PrimaryDeliveries = %d, BackupSaves = %d; want 0, 1", d, s)
		}
	})
	t.Run("an open reply creates the backup entry", func(t *testing.T) {
		k := bareKernel(4)
		k.backups[fixDst] = &BackupPCB{pid: fixDst, primaryCluster: 2}
		addEntry(k, fixDst, fixSrc, routing.Backup)
		const opened types.ChannelID = 9
		m := fixtureMessage(ahead)
		m.Kind = types.KindOpenReply
		m.Payload = Encode(&OpenReply{Channel: opened, Peer: fixSrc, PeerCluster: 1, PeerBackupCluster: 3})
		k.dispatch(&m)
		if _, ok := k.table.Lookup(opened, fixDst, routing.Primary); ok {
			t.Fatal("open reply created a primary entry for a process that is only a backup here")
		}
		if _, ok := k.table.Lookup(opened, fixDst, routing.Backup); !ok {
			t.Fatal("open reply created no backup entry")
		}
		if e, _ := k.table.Lookup(fixCh, fixDst, routing.Backup); e.QueueLen() != 1 {
			t.Fatalf("the open reply was not saved on the opening channel (queued %d)", e.QueueLen())
		}
	})
	t.Run("a server twin saves it", func(t *testing.T) {
		k := bareKernel(4)
		srv := &recordingServer{pid: fixDst}
		k.RegisterServer(srv, routing.Backup, 2)
		m := fixtureMessage(ahead)
		k.dispatch(&m)
		e, ok := k.table.Lookup(fixCh, fixDst, routing.Backup)
		if !ok || len(srv.serviced) != 0 {
			t.Fatalf("backup entry made %v, serviced %d; want true, 0", ok, len(srv.serviced))
		}
		if q := e.Queued(); len(q) != 1 || q[0].ID != m.ID {
			t.Fatalf("saved queue = %v, want the message", q)
		}
		if e.Peer != fixSrc || e.PeerCluster != m.Origin {
			t.Fatalf("entry peer %v on %v, want the sender %v on %v", e.Peer, e.PeerCluster, fixSrc, m.Origin)
		}
	})
	t.Run("a process with a primary here still receives it", func(t *testing.T) {
		k := bareKernel(4)
		k.procs[fixDst] = &PCB{cond: sync.NewCond(&k.mu)}
		k.backups[fixDst] = &BackupPCB{pid: fixDst, primaryCluster: 2}
		pe := addEntry(k, fixDst, fixSrc, routing.Primary)
		be := addEntry(k, fixDst, fixSrc, routing.Backup)
		m := fixtureMessage(ahead)
		k.dispatch(&m)
		if pe.QueueLen() != 1 || be.QueueLen() != 0 {
			t.Fatalf("primary queued %d, backup saved %d; want 1, 0", pe.QueueLen(), be.QueueLen())
		}
	})
}

// TestDispatchAllocatesOnlyWhatItKeeps: a message this cluster does not
// retain costs no heap allocation, and one it queues costs none either once
// the queue's array has grown — its one copy is into a slot of that array.
func TestDispatchAllocatesOnlyWhatItKeeps(t *testing.T) {
	t.Run("sender's backup only", func(t *testing.T) {
		k := bareKernel(3)
		addEntry(k, fixSrc, fixDst, routing.Backup)
		m := fixtureMessage(types.Route{Dst: 2, DstBackup: 4, SrcBackup: 3})
		if n := testing.AllocsPerRun(200, func() { k.dispatch(&m) }); n != 0 {
			t.Fatalf("count-and-discard allocated %v times per message", n)
		}
	})
	t.Run("fenced", func(t *testing.T) {
		k := bareKernel(2)
		e := addEntry(k, fixDst, fixSrc, routing.Primary)
		k.incView[1] = 5 // cluster 1 is known to be in its fifth life
		m := fixtureMessage(types.Route{Dst: 2, DstBackup: 4, SrcBackup: 3})
		if n := testing.AllocsPerRun(200, func() { k.dispatch(&m) }); n != 0 {
			t.Fatalf("a fenced message allocated %v times", n)
		}
		if e.QueueLen() != 0 || k.metrics.FencedRejects.Load() == 0 {
			t.Fatalf("stale-incarnation message was not fenced: queued %d", e.QueueLen())
		}
	})
	t.Run("a kept message costs its one copy", func(t *testing.T) {
		k := bareKernel(2)
		e := addEntry(k, fixDst, fixSrc, routing.Primary)
		m := fixtureMessage(types.Route{Dst: 2, DstBackup: 4, SrcBackup: 3})
		n := testing.AllocsPerRun(200, func() {
			k.dispatch(&m)
			e.Read()
		})
		if n != 0 {
			t.Fatalf("queue-for-reading allocated %v times per message, want 0", n)
		}
	})
}

// BenchmarkDispatchThreeRoles delivers one 64-byte data message to the three
// clusters of its route — queue, save, count — and reads it back off the
// primary's queue, as one echo_ft leg does.
func BenchmarkDispatchThreeRoles(b *testing.B) {
	route := types.Route{Dst: 2, DstBackup: 4, SrcBackup: 3}
	dst, dstBackup, srcBackup := bareKernel(2), bareKernel(4), bareKernel(3)
	pe := addEntry(dst, fixDst, fixSrc, routing.Primary)
	be := addEntry(dstBackup, fixDst, fixSrc, routing.Backup)
	addEntry(srcBackup, fixSrc, fixDst, routing.Backup)
	m := fixtureMessage(route)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ID = uint64(i + 1)
		for _, k := range [...]*Kernel{dst, dstBackup, srcBackup} {
			if !k.rxDuplicate(m.ID) {
				k.dispatch(&m)
			}
		}
		pe.Read()
		be.Applied(1, 0)
	}
}

func BenchmarkRxDuplicate(b *testing.B) {
	k := bareKernel(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if k.rxDuplicate(uint64(i + 1)) {
			b.Fatal("fresh ID reported duplicate")
		}
	}
}

// TestSuppressBudget promotes a backup whose sender's-backup entries counted
// escaped writes on two channels, then re-executes writes on both. Each
// entry's count becomes its re-send budget; every write spends one unit of
// its own channel's budget until that is gone, and only then transmits; the
// process's total falls with them, and reaching zero notifies the directory,
// once. The test holds k.mu throughout, so the promoted process's goroutine
// stays parked in its page fetch until the kernel is halted at the end.
func TestSuppressBudget(t *testing.T) {
	metrics := new(trace.Metrics)
	dir := directory.New()
	dir.SetService(directory.PIDPageServer, directory.ServiceLoc{Primary: 0, Backup: types.NoCluster})
	reg := guest.NewRegistry()
	reg.Register("stub", func() guest.Guest { return stubGuest{} })
	k := New(Config{ID: 3, Bus: bus.New(metrics, nil), Dir: dir, Registry: reg, Metrics: metrics})

	const chA, chB types.ChannelID = 7, 8
	fds := map[types.FD]types.ChannelID{2: chA, 3: chB}
	for ch, escaped := range map[types.ChannelID]int{chA: 3, chB: 2} {
		k.table.Add(&routing.Entry{Channel: ch, Owner: fixSrc, Peer: fixDst, Role: routing.Backup, PeerCluster: 2})
		for i := 0; i < escaped; i++ {
			m := fixtureMessage(types.Route{Dst: 2, DstBackup: 4, SrcBackup: 3})
			m.Channel = ch
			k.dispatch(&m) // the sender's-backup copy of a write that escaped
		}
	}
	b := &BackupPCB{pid: fixSrc, program: "stub", mode: types.Halfback, primaryCluster: 1,
		fds: fds, sigIgnore: map[types.Signal]bool{}, synced: true}
	k.backups[fixSrc] = b

	k.mu.Lock()
	k.promoteLocked(b, 0)
	p := k.procs[fixSrc]
	entry := func(ch types.ChannelID) *routing.Entry {
		e, ok := k.table.Lookup(ch, fixSrc, routing.Primary)
		if !ok {
			t.Fatalf("no primary entry for %v after promotion", ch)
		}
		return e
	}
	if p == nil {
		t.Fatal("promotion made no process")
	}
	if a, b := entry(chA).Unsent(), entry(chB).Unsent(); a != 3 || b != 2 || p.suppressTotal != 5 {
		t.Fatalf("after promotion: budgets %d, %d, total %d; want 3, 2, 5", a, b, p.suppressTotal)
	}

	sent := func() (n int) {
		for _, m := range k.outgoing.Live() {
			if m.Kind == types.KindData {
				n++
			}
		}
		return n
	}
	for i, step := range []struct {
		fd               types.FD
		unsentA, unsentB uint32
		suppressed       uint64
		sent             int
	}{
		{2, 2, 2, 1, 0},
		{3, 2, 1, 2, 0},
		{2, 1, 1, 3, 0},
		{3, 1, 0, 4, 0},
		{3, 1, 0, 4, 1}, // chB's budget is spent: this write is new
		{2, 0, 0, 5, 1}, // the total reaches 0
		{2, 0, 0, 5, 2},
	} {
		changed := dir.Changed()
		if err := k.writeLocked(p, step.fd, types.KindData, []byte("re-executed")); err != nil {
			t.Fatal(err)
		}
		total := step.unsentA + step.unsentB
		if a, b := entry(chA).Unsent(), entry(chB).Unsent(); a != step.unsentA || b != step.unsentB || p.suppressTotal != total {
			t.Fatalf("write %d: budgets %d, %d, total %d; want %d, %d, %d", i, a, b, p.suppressTotal, step.unsentA, step.unsentB, total)
		}
		if got := metrics.SuppressedSends.Load(); got != step.suppressed || sent() != step.sent {
			t.Fatalf("write %d: %d suppressed, %d queued to send; want %d, %d", i, got, sent(), step.suppressed, step.sent)
		}
		notified := false
		select {
		case <-changed:
			notified = true
		default:
		}
		if want := i == 5; notified != want {
			t.Fatalf("write %d: directory notified = %v, want %v", i, notified, want)
		}
	}
	k.haltLocked()
	k.mu.Unlock()
	<-p.done
}
