package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
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

// These tests drive the executive's transmit half without a goroutine, in
// the manner of executive_test.go: a never-started kernel on a bare bus, its
// syscalls and entry points called one at a time, and what left the cluster
// read off the bus's own event log (one EvTransmit per transmission, in
// bus-minted ID order) and batch counters.

// stubGuest is a process body with no state; the tests make its syscalls for
// it.
type stubGuest struct{}

func (stubGuest) Run(guest.API) error        { return nil }
func (stubGuest) FlushState()                {}
func (stubGuest) MarshalRegs() []byte        { return nil }
func (stubGuest) UnmarshalRegs([]byte) error { return nil }

// sendLocked queues a copy of m, which the tests build whole where the
// kernel fills the slot queueLocked returns.
func (k *Kernel) sendLocked(m *types.Message) { *k.queueLocked() = *m }

// txRig is cluster 1 of a four-cluster bus. Clusters 0 (page server), 2 (the
// peer) and 3 (the process's backup) are attached ports nobody drains. One
// process lives on the kernel, with a data channel on descriptor fd to a
// peer on cluster 2.
type txRig struct {
	k       *Kernel
	bus     *bus.Bus
	log     *trace.EventLog
	metrics *trace.Metrics
	p       *PCB
	pr      *Proc
	fd      types.FD
	entry   *routing.Entry
}

func newTxRig() *txRig {
	r := &txRig{log: trace.NewEventLog(1 << 12), metrics: new(trace.Metrics), fd: 2}
	r.bus = bus.New(r.metrics, r.log)
	for _, c := range []types.ClusterID{0, 2, 3} {
		r.bus.Attach(c)
	}
	dir := directory.New()
	dir.SetService(directory.PIDPageServer, directory.ServiceLoc{Primary: 0, Backup: types.NoCluster})
	reg := guest.NewRegistry()
	reg.Register("stub", func() guest.Guest { return stubGuest{} })
	r.k = New(Config{ID: 1, Bus: r.bus, Dir: dir, Registry: reg, Metrics: r.metrics})

	k := r.k
	k.mu.Lock()
	defer k.mu.Unlock()
	pid := dir.AllocPID()
	r.p, _ = k.createProcessLocked(pid, "stub", nil, types.Halfback, pid, types.NoPID, 3)
	r.entry = &routing.Entry{
		Channel: dir.AllocChannel(), Owner: pid, Peer: fixDst, Role: routing.Primary,
		PeerCluster: 2, PeerBackupCluster: types.NoCluster, OwnerBackupCluster: 3,
	}
	k.table.Add(r.entry)
	r.p.fds[r.fd] = r.entry.Channel
	r.p.fdOrder = nil
	r.pr = &Proc{k: k, p: r.p}
	return r
}

func (r *txRig) write(t *testing.T, payload string) {
	t.Helper()
	if err := r.pr.Write(r.fd, []byte(payload)); err != nil {
		t.Fatal(err)
	}
}

// transmit runs the transmit half as an entry point that does not hold k.mu
// would.
func (r *txRig) transmit() bool {
	r.k.mu.Lock()
	defer r.k.mu.Unlock()
	return r.k.transmitLocked()
}

// sent returns the transmit event of every transmission so far, in bus
// order.
func (r *txRig) sent() []trace.Event {
	var evs []trace.Event
	for _, e := range r.log.Events() {
		if e.Kind == trace.EvTransmit {
			evs = append(evs, e)
		}
	}
	return evs
}

// expect checks the kinds transmitted so far, the number of bus offers they
// took, and what is still queued.
func (r *txRig) expect(t *testing.T, batches uint64, backlog int, kinds ...types.Kind) {
	t.Helper()
	var got []types.Kind
	for _, e := range r.sent() {
		got = append(got, e.MsgKind)
	}
	if !slices.Equal(got, kinds) {
		t.Fatalf("transmitted %v, want %v", got, kinds)
	}
	if n := r.metrics.BusBatches.Load(); n != batches {
		t.Fatalf("%d bus offers, want %d", n, batches)
	}
	if n := r.k.OutgoingBacklog(); n != backlog {
		t.Fatalf("outgoing backlog %d, want %d", n, backlog)
	}
}

func repeatKind(k types.Kind, n int) []types.Kind {
	out := make([]types.Kind, n)
	for i := range out {
		out[i] = k
	}
	return out
}

// TestWhenOutputLeaves is the table behind guest.API.Write's promise: output
// leaves no later than the process's next blocking call, sync point, full
// batch or exit — and no earlier than the first of them.
func TestWhenOutputLeaves(t *testing.T) {
	t.Run("Write and Tick leave it queued", func(t *testing.T) {
		r := newTxRig()
		r.write(t, "a")
		r.pr.Tick(1)
		r.write(t, "b")
		r.expect(t, 0, 2)
	})
	t.Run("the Write that fills a batch sends the batch", func(t *testing.T) {
		r := newTxRig()
		for i := 0; i < DefaultTxBatch-1; i++ {
			r.write(t, "x")
		}
		r.expect(t, 0, DefaultTxBatch-1)
		r.write(t, "x")
		r.expect(t, 1, 0, repeatKind(types.KindData, DefaultTxBatch)...)
	})
	t.Run("a sync point with no capture due sends what is queued", func(t *testing.T) {
		r := newTxRig()
		r.write(t, "a")
		r.write(t, "b")
		if err := r.pr.SyncPoint(); err != nil {
			t.Fatal(err)
		}
		r.expect(t, 1, 0, types.KindData, types.KindData)
		if n := r.metrics.Syncs.Load(); n != 0 {
			t.Fatalf("%d captures, want none", n)
		}
	})
	t.Run("a capture leaves in one batch behind the data queued before it", func(t *testing.T) {
		r := newTxRig()
		r.write(t, "a")
		r.pr.Space().WriteAt(0, []byte("dirty"))
		r.pr.Tick(DefaultSyncTicks)
		if err := r.pr.SyncPoint(); err != nil {
			t.Fatal(err)
		}
		r.expect(t, 1, 0, types.KindData, types.KindPageOut, types.KindSync)
	})
	t.Run("a read transmits before it parks and looks again afterwards", func(t *testing.T) {
		r := newTxRig()
		r.write(t, "request")
		// The reply arrives while the reader is on the bus with the request
		// and k.mu is released. Had Read parked without transmitting, or
		// parked without re-evaluating, this test would hang.
		r.bus.SetFaultHook(func(int, *types.Message, int) bool {
			r.k.mu.Lock()
			defer r.k.mu.Unlock()
			r.entry.Enqueue(&types.Message{Kind: types.KindData, Payload: []byte("reply")})
			return false
		})
		got, err := r.pr.Read(r.fd)
		if err != nil || string(got) != "reply" {
			t.Fatalf("Read = %q, %v", got, err)
		}
		r.expect(t, 1, 0, types.KindData)
	})
	t.Run("exit sends the last output and the notice behind it", func(t *testing.T) {
		r := newTxRig()
		r.write(t, "last words")
		r.k.exitProcess(r.p)
		r.expect(t, 1, 0, types.KindData, types.KindExitNotice)
	})
	t.Run("an entry point that is no syscall transmits on its way out", func(t *testing.T) {
		r := newTxRig()
		r.write(t, "a")
		r.k.Signal(r.p.pid, types.SigUser)
		r.expect(t, 1, 0, types.KindData, types.KindSignal)
	})
	t.Run("the receive loop transmits what a drained batch queued", func(t *testing.T) {
		r := newTxRig()
		bu := &BackupUp{PID: fixDst, BackupCluster: 3, Origin: 2, NeedAck: true}
		r.k.dispatchBatch([]types.Message{{ID: 1, Kind: types.KindBackupUp, Payload: Encode(bu)}})
		r.expect(t, 1, 0, types.KindBackupAck)
	})
}

// TestSingleTransmitter: a second caller that arrives while one goroutine is
// on the bus returns at once, and its output goes out behind the holder's, in
// queue order, in the holder's next batch.
func TestSingleTransmitter(t *testing.T) {
	r := newTxRig()
	r.write(t, "first")
	arrived := false
	r.bus.SetFaultHook(func(int, *types.Message, int) bool {
		if arrived {
			return false
		}
		arrived = true
		// The holder is inside BroadcastBatch, outside k.mu.
		r.write(t, "second")
		r.k.mu.Lock()
		defer r.k.mu.Unlock()
		if !r.k.transmitting {
			t.Error("the transmitting flag is not set during an offer")
		} else if r.k.transmitLocked() {
			t.Error("a second transmitter released k.mu while the flag was held")
		}
		return false
	})
	if !r.transmit() {
		t.Fatal("transmitLocked reports it never released k.mu")
	}
	r.expect(t, 2, 0, types.KindData, types.KindData)
	if r.k.transmitting {
		t.Fatal("the transmitting flag outlived the drain")
	}
	tx := r.sent()
	if tx[0].Arg != trace.HashPayload([]byte("first")) || tx[1].Arg != trace.HashPayload([]byte("second")) ||
		tx[0].MsgID >= tx[1].MsgID {
		t.Fatalf("bus order is not queue order: %v", tx)
	}
}

// endingGuest is a guest whose run ends at once with err.
type endingGuest struct {
	stubGuest
	err error
}

func (g endingGuest) Run(guest.API) error { return g.err }

// TestCrashedProcessEndsQuietly: a process that crashed alone (§10) runs on
// at its backup cluster, so however its dead instance's run ends — an exit,
// or a syscall failing on the routing entries that went with it — it sends
// no exit notice, keeps its directory entry and records no guest error.
func TestCrashedProcessEndsQuietly(t *testing.T) {
	for _, end := range []error{nil, fmt.Errorf("kernel: %w", types.ErrChannelClosed)} {
		r := newTxRig()
		r.p.g = endingGuest{err: end}
		if err := r.k.CrashProcess(r.p.pid); err != nil {
			t.Fatal(err)
		}
		r.k.wg.Add(1)
		r.k.runProcess(r.p)
		r.expect(t, 1, 0, types.KindCrashNotice)
		if _, ok := r.k.dir.Proc(r.p.pid); !ok {
			t.Fatalf("run ending in %v removed the crashed process from the directory", end)
		}
		if errs := r.k.GuestErrors(); len(errs) != 0 {
			t.Fatalf("run ending in %v recorded guest errors %q", end, errs)
		}
	}
}

// TestSpawnReturnsOnceItsBirthNoticeLeft: Spawn returns only after the
// birth notice is on the bus. If the cluster crashes while the notice waits
// behind another goroutine's transmission, the notice is lost with the
// outgoing queue and no backup cluster will ever hear of the process, so the
// spawn fails and the process leaves the directory.
func TestSpawnReturnsOnceItsBirthNoticeLeft(t *testing.T) {
	t.Run("sent", func(t *testing.T) {
		r := newTxRig()
		defer r.k.Wait()
		defer r.k.Stop()
		if _, err := r.k.Spawn("stub", nil, SpawnOpts{BackupCluster: 3}); err != nil {
			t.Fatal(err)
		}
		if tx := r.sent(); len(tx) == 0 || tx[0].MsgKind != types.KindBirthNotice {
			t.Fatalf("Spawn returned before its birth notice left: transmitted %v", tx)
		}
	})
	t.Run("lost", func(t *testing.T) {
		r := newTxRig()
		before := r.k.dir.Procs()
		r.k.mu.Lock()
		r.k.transmitting = true // another goroutine is offering a batch
		r.k.mu.Unlock()
		spawned := make(chan error)
		go func() {
			_, err := r.k.Spawn("stub", nil, SpawnOpts{BackupCluster: 3})
			spawned <- err
		}()
		for r.k.OutgoingBacklog() == 0 {
			runtime.Gosched()
		}
		r.k.Crash()
		r.k.mu.Lock()
		r.k.transmitting = false
		r.k.mu.Unlock()
		if err := <-spawned; !errors.Is(err, types.ErrCrashed) {
			t.Fatalf("Spawn = %v, want ErrCrashed", err)
		}
		if tx := r.sent(); len(tx) != 0 {
			t.Fatalf("transmitted %v from a crashed cluster", tx)
		}
		if after := r.k.dir.Procs(); !slices.Equal(after, before) {
			t.Fatalf("directory lists %v after the failed spawn, want %v", after, before)
		}
	})
}

// TestNothingLeavesAHeldOrDeadKernel: once hold, crash, stop or degrade has
// been observed under k.mu nothing more reaches the bus, and OutgoingBacklog
// reads what it read when a transmit loop did the draining.
func TestNothingLeavesAHeldOrDeadKernel(t *testing.T) {
	t.Run("hold", func(t *testing.T) {
		r := newTxRig()
		r.k.HoldTransmit(true)
		r.write(t, "a")
		r.write(t, "b")
		if err := r.pr.SyncPoint(); err != nil {
			t.Fatal(err)
		}
		r.expect(t, 0, 2)
		r.k.HoldTransmit(false)
		r.expect(t, 1, 0, types.KindData, types.KindData)
	})
	t.Run("crash", func(t *testing.T) {
		r := newTxRig()
		r.write(t, "a")
		r.k.Crash()
		r.transmit()
		r.write(t, "b") // dropped: the cluster is dead
		r.expect(t, 0, 0)
	})
	t.Run("stop", func(t *testing.T) {
		r := newTxRig()
		r.write(t, "a")
		r.k.Stop()
		r.transmit()
		r.expect(t, 0, 1)
	})
	t.Run("degrade", func(t *testing.T) {
		r := newTxRig()
		for i := 0; i < bus.NumBuses; i++ {
			if err := r.bus.FailBus(i); err != nil {
				t.Fatal(err)
			}
		}
		r.write(t, "a")
		r.write(t, "b")
		r.transmit() // exhausts the retry budget
		if !r.k.Degraded() {
			t.Fatal("both buses down past the retry budget did not degrade the kernel")
		}
		if err := r.bus.RepairBus(0); err != nil {
			t.Fatal(err)
		}
		r.write(t, "c")
		r.transmit()
		r.expect(t, txMaxAttempts, 0) // every offer failed; none since
		if _, err := r.pr.Read(r.fd); !errors.Is(err, types.ErrTooManyFailures) {
			t.Fatalf("Read on a degraded kernel = %v", err)
		}
	})
}

// TestCrashBetweenTakeAndOffer: a batch taken off the queue before the
// cluster crashed still goes out — nothing on the transmit path looks at the
// kernel again — stamped with the cluster and incarnation that took it, which
// is what lets a receiver that has already dispatched the crash notice fence
// it (TestStragglerBatchBehindItsCrashNoticeIsFenced).
func TestCrashBetweenTakeAndOffer(t *testing.T) {
	r := newTxRig()
	peer := r.bus.Attach(2) // replaces the port nobody drains
	r.write(t, "a")
	r.k.mu.Lock()
	took := r.k.takeBatchLocked()
	r.k.mu.Unlock()
	if !took {
		t.Fatal("no batch to take")
	}
	r.k.Crash()
	r.k.offerBatch()
	r.expect(t, 1, 0, types.KindData)
	ms, _ := peer.PopAll(nil)
	if len(ms) != 1 || ms[0].Origin != 1 || ms[0].Inc == 0 || ms[0].Inc != r.k.Incarnation() {
		t.Fatalf("peer received %v, want one data message stamped cluster1 / %v", ms, r.k.Incarnation())
	}
}

// TestCaptureLivesUntilTransmit: a sync's captured pages stay frozen while
// the page-out waits on the outgoing queue — a write meanwhile goes to a
// clone and the bus carries the sync-point bytes — and are released when the
// page-out has been encoded. A page-out that dies with its cluster is never
// released.
func TestCaptureLivesUntilTransmit(t *testing.T) {
	const pageSize = 1024
	capture := func(t *testing.T) (*txRig, *bus.Inbox) {
		r := newTxRig()
		pagerInbox := r.bus.Attach(0) // replaces the port nobody drains
		r.pr.Space().WriteAt(0, []byte("page 0 at the sync point"))
		r.pr.Space().WriteAt(pageSize, []byte("page 1 at the sync point"))
		r.k.HoldTransmit(true)
		r.pr.Tick(DefaultSyncTicks)
		if err := r.pr.SyncPoint(); err != nil {
			t.Fatal(err)
		}
		r.expect(t, 0, 2)
		if n := r.pr.Space().FrozenCount(); n != 2 {
			t.Fatalf("FrozenCount = %d with the page-out queued, want 2", n)
		}
		return r, pagerInbox
	}
	t.Run("released once encoded", func(t *testing.T) {
		r, pagerInbox := capture(t)
		r.pr.Space().WriteAt(0, []byte("page 0 written after it"))
		if n := r.pr.Space().FrozenCount(); n != 1 {
			t.Fatalf("FrozenCount = %d after one captured page was rewritten, want 1", n)
		}
		r.k.HoldTransmit(false)
		r.expect(t, 1, 0, types.KindPageOut, types.KindSync)
		arrived, _ := pagerInbox.PopAll(nil)
		po, err := DecodePageOut(arrived[0].Payload)
		if err != nil || len(po.Pages) != 2 {
			t.Fatalf("page-out on the bus: %+v, %v", po, err)
		}
		for i, pg := range po.Pages {
			want := fmt.Sprintf("page %d at the sync point", i)
			if len(pg.Data) != pageSize || string(pg.Data[:len(want)]) != want {
				t.Fatalf("page %d on the bus begins %q, want %q", i, pg.Data[:len(want)], want)
			}
		}
		if n := r.pr.Space().FrozenCount(); n != 0 {
			t.Fatalf("FrozenCount = %d after the page-out was transmitted, want 0", n)
		}
		next := byte(0)
		if n := testing.AllocsPerRun(10, func() {
			next++
			r.pr.Space().WriteAt(pageSize, []byte{next})
		}); n != 0 {
			t.Fatalf("a write to a released page allocated %v times", n)
		}
	})
	t.Run("never released if the batch dies", func(t *testing.T) {
		r, _ := capture(t)
		r.k.Crash()
		r.k.HoldTransmit(false)
		r.expect(t, 0, 0)
		if n := r.pr.Space().FrozenCount(); n != 2 {
			t.Fatalf("FrozenCount = %d after the cluster crashed with the page-out queued, want 2", n)
		}
	})
}

// TestTransmitAllocations pins the steady-state cost of one one-message
// transmit: nothing for an eager payload, which the bus hands to its
// destination as it is, and exactly the copy out of the transmit writer for
// a lazy one.
func TestTransmitAllocations(t *testing.T) {
	metrics := new(trace.Metrics)
	b := bus.New(metrics, nil)
	peer := b.Attach(2)
	k := New(Config{ID: 1, Bus: b, Dir: directory.New(), Registry: guest.NewRegistry(), Metrics: metrics})
	m := &types.Message{
		Kind:    types.KindData,
		Route:   types.Route{Dst: 2, DstBackup: types.NoCluster, SrcBackup: types.NoCluster},
		Payload: make([]byte, 64),
	}
	var buf []types.Message
	one := func() {
		k.mu.Lock()
		k.sendLocked(m)
		k.transmitLocked()
		k.mu.Unlock()
		buf, _ = peer.PopAll(buf)
	}
	for i := 0; i < 100; i++ {
		one() // warm the queue, batch and receive-buffer capacities
	}
	if n := testing.AllocsPerRun(200, one); n != 0 {
		t.Fatalf("a one-message transmit allocated %v times, want 0", n)
	}

	t.Run("the transmit writer is reused", func(t *testing.T) {
		dm := &DecisionMsg{PID: fixSrc, Seq: 1, Reads: 2}
		lazy := func() {
			m.Payload, m.Lazy = nil, dm
			one()
		}
		for i := 0; i < 100; i++ {
			lazy()
		}
		if n := testing.AllocsPerRun(200, lazy); n != 1 {
			t.Fatalf("a lazy one-message transmit allocated %v times, want 1 (its payload's copy-out)", n)
		}
		if got, _ := Decode[DecisionMsg](buf[0].Payload); got == nil || *got != *dm {
			t.Fatalf("the destination decoded %+v, want %+v", got, dm)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < 10000; i++ {
			lazy()
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 64<<10 {
			t.Fatalf("heap grew %d bytes over 10000 lazy transmits", grown)
		}
	})

	t.Run("an oversized writer is dropped", func(t *testing.T) {
		sm := &SyncMsg{PID: fixSrc, Program: "big", Regs: bytes.Repeat([]byte{0xA5}, maxTxWriterCap+1)}
		m.Payload, m.Lazy = nil, sm
		one()
		got, err := Decode[SyncMsg](buf[0].Payload)
		if err != nil || got.PID != sm.PID || !bytes.Equal(got.Regs, sm.Regs) {
			t.Fatalf("the destination could not decode the %d-byte sync (err %v)", len(buf[0].Payload), err)
		}
		if c := cap(k.txw.Bytes()); c > maxTxWriterCap {
			t.Fatalf("the transmit writer kept a %d-byte buffer, want at most %d", c, maxTxWriterCap)
		}
	})
}

// BenchmarkWriteTransmit times one 64-byte Write and its transmit on a bare
// bus with no event log: the message built in its outgoing slot, the batch
// taken and offered, and its two deliveries (the destination and the
// sender's backup) drained. The one allocation is the payload's copy.
func BenchmarkWriteTransmit(b *testing.B) {
	bb := bus.New(new(trace.Metrics), nil)
	dst, srcBackup := bb.Attach(2), bb.Attach(3)
	reg := guest.NewRegistry()
	reg.Register("stub", func() guest.Guest { return stubGuest{} })
	k := New(Config{ID: 1, Bus: bb, Dir: directory.New(), Registry: reg, Metrics: new(trace.Metrics)})
	const fd types.FD = 2
	k.mu.Lock()
	p, _ := k.createProcessLocked(fixSrc, "stub", nil, types.Halfback, fixSrc, types.NoPID, 3)
	k.table.Add(&routing.Entry{
		Channel: fixCh, Owner: fixSrc, Peer: fixDst, Role: routing.Primary,
		PeerCluster: 2, PeerBackupCluster: types.NoCluster, OwnerBackupCluster: 3,
	})
	p.fds[fd] = fixCh
	p.fdOrder = nil
	k.mu.Unlock()
	pr := &Proc{k: k, p: p}
	payload := make([]byte, 64)
	var bufs [2][]types.Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pr.Write(fd, payload); err != nil {
			b.Fatal(err)
		}
		k.mu.Lock()
		k.transmitLocked()
		k.mu.Unlock()
		bufs[0], _ = dst.PopAll(bufs[0])
		bufs[1], _ = srcBackup.PopAll(bufs[1])
	}
}

// TestTransmitWriterHasOneOwner has two goroutines queue lazy payloads on
// one kernel and transmit, round after round: whichever holds the
// transmitting flag encodes both, into the one transmit writer, and every
// payload must reach the destination as its own sender's message, in that
// sender's order.
func TestTransmitWriterHasOneOwner(t *testing.T) {
	const rounds = 500
	b := bus.New(new(trace.Metrics), nil)
	peer := b.Attach(2)
	k := New(Config{ID: 1, Bus: b, Dir: directory.New(), Registry: guest.NewRegistry(), Metrics: new(trace.Metrics)})
	var wg sync.WaitGroup
	for g := types.PID(1); g <= 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(1); i <= rounds; i++ {
				k.mu.Lock()
				k.sendLocked(&types.Message{
					Kind:  types.KindData,
					Src:   g,
					Route: types.Route{Dst: 2, DstBackup: types.NoCluster, SrcBackup: types.NoCluster},
					Lazy:  &DecisionMsg{PID: g, Seq: i, Reads: i * uint64(g)},
				})
				k.transmitLocked()
				k.mu.Unlock()
			}
		}()
	}
	wg.Wait()

	got, _ := peer.PopAll(nil)
	if len(got) != 2*rounds {
		t.Fatalf("the destination received %d messages, want %d", len(got), 2*rounds)
	}
	next := map[types.PID]uint64{1: 1, 2: 1}
	for _, m := range got {
		dm, err := Decode[DecisionMsg](m.Payload)
		if err != nil {
			t.Fatalf("message %d from pid %d: %v", m.ID, m.Src, err)
		}
		want := DecisionMsg{PID: m.Src, Seq: next[m.Src], Reads: next[m.Src] * uint64(m.Src)}
		if *dm != want {
			t.Fatalf("message %d from pid %d decoded to %+v, want %+v", m.ID, m.Src, *dm, want)
		}
		next[m.Src]++
	}
}

// TestOneMessageWriteToRead follows one data message the whole way on four
// never-started kernels: Write at the sender's cluster, the transmit, each
// receiving executive's drain and dispatch — queue at the destination, save
// at its backup, count at the sender's backup — and Read at the
// destination. In steady state that costs exactly one heap object: the
// copy of the guest's bytes Write makes, the message's payload. Write builds
// the message in its outgoing slot, every target shares that payload, and
// the queues hold message values in arrays they reuse.
func TestOneMessageWriteToRead(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under -race")
	}
	metrics := new(trace.Metrics)
	b := bus.New(metrics, nil)
	dir := directory.New()
	reg := guest.NewRegistry()
	reg.Register("stub", func() guest.Guest { return stubGuest{} })
	newKernel := func(id types.ClusterID) *Kernel {
		return New(Config{ID: id, Bus: b, Dir: dir, Registry: reg, Metrics: metrics})
	}
	src, dst, dstBackup, srcBackup := newKernel(1), newKernel(2), newKernel(4), newKernel(3)
	const fd types.FD = 2
	proc := func(k *Kernel, pid, peer types.PID, peerCluster, peerBackup, backup types.ClusterID) *Proc {
		k.mu.Lock()
		defer k.mu.Unlock()
		p, _ := k.createProcessLocked(pid, "stub", nil, types.Halfback, pid, types.NoPID, backup)
		k.table.Add(&routing.Entry{
			Channel: fixCh, Owner: pid, Peer: peer, Role: routing.Primary,
			PeerCluster: peerCluster, PeerBackupCluster: peerBackup, OwnerBackupCluster: backup,
		})
		p.fds[fd] = fixCh
		p.fdOrder = nil
		return &Proc{k: k, p: p}
	}
	writer := proc(src, fixSrc, fixDst, 2, 4, 3)
	reader := proc(dst, fixDst, fixSrc, 1, 3, 4)
	saved := addEntry(dstBackup, fixDst, fixSrc, routing.Backup)
	counted := addEntry(srcBackup, fixSrc, fixDst, routing.Backup)

	payload := fixtureMessage(types.Route{}).Payload
	bufs := make([][]types.Message, 3)
	one := func() {
		if err := writer.Write(fd, payload); err != nil {
			t.Fatal(err)
		}
		src.mu.Lock()
		src.transmitLocked()
		src.mu.Unlock()
		for i, k := range [...]*Kernel{dst, dstBackup, srcBackup} {
			ms, _ := k.inbox.PopAll(bufs[i])
			k.dispatchBatch(ms)
			bufs[i] = ms
		}
		got, err := reader.Read(fd)
		if err != nil || string(got) != string(payload) {
			t.Fatalf("Read = %q, %v", got, err)
		}
		saved.Applied(1, 0) // what the reader's next sync does at its backup
	}
	for i := 0; i < 100; i++ {
		one() // grow the queues, receive buffers and batch to their working size
	}
	if n := testing.AllocsPerRun(200, one); n != 1 {
		t.Fatalf("one message from Write to Read allocated %v objects, want 1 (its payload)", n)
	}
	if counted.Unsent() != 301 || metrics.PrimaryDeliveries.Load() != 301 || metrics.BackupSaves.Load() != 301 {
		t.Fatalf("roles played: %d counts, %d deliveries, %d saves; want 301 each",
			counted.Unsent(), metrics.PrimaryDeliveries.Load(), metrics.BackupSaves.Load())
	}
}

// TestSpawnShellTravelsTheBus: a spawned process's backup shell is created
// where the backup cluster dispatches the birth notice the primary puts on
// the bus ahead of anything the process sends, so a crash notice for the
// primary's cluster that follows it in bus order always finds the shell to
// promote.
func TestSpawnShellTravelsTheBus(t *testing.T) {
	metrics := new(trace.Metrics)
	b := bus.New(metrics, nil)
	dir := directory.New()
	reg := guest.NewRegistry()
	reg.Register("stub", func() guest.Guest { return stubGuest{} })
	primary := New(Config{ID: 1, Bus: b, Dir: dir, Registry: reg, Metrics: metrics})
	backup := New(Config{ID: 0, Bus: b, Dir: dir, Registry: reg, Metrics: metrics})
	p, err := primary.Spawn("stub", nil, SpawnOpts{BackupCluster: 0})
	if err != nil {
		t.Fatal(err)
	}
	if backup.backups[p.PID()] != nil {
		t.Fatal("the backup shell exists before its birth notice was dispatched")
	}
	arrived, _ := backup.inbox.PopAll(nil)
	if len(arrived) == 0 || arrived[0].Kind != types.KindBirthNotice || arrived[0].Dst != p.PID() {
		t.Fatalf("the backup cluster's first arrival is %v, want %v's birth notice", arrived, p.PID())
	}
	backup.dispatch(&arrived[0])
	if bp := backup.backups[p.PID()]; bp == nil || bp.primaryCluster != 1 {
		t.Fatalf("backup shell after the birth notice = %+v", bp)
	}
	primary.Stop()
}

// TestSpawnWaitsOutATransmitHold: Spawn returns once its birth notice has
// left the cluster. Under a transmit hold that is when the hold is released,
// and the notice is then in the backup cluster's inbox. A crash during the
// hold loses the notice with the outgoing queue, so the spawn fails with
// types.ErrCrashed and its directory entry goes; a crash after the notice
// left fails nothing.
func TestSpawnWaitsOutATransmitHold(t *testing.T) {
	type rig struct {
		b               *bus.Bus
		dir             *directory.Directory
		primary, backup *Kernel
		pid             types.PID
		done            chan error
	}
	// spawn starts a Spawn on cluster 1, backed up on cluster 0, under a
	// hold, and returns once the birth notice is queued and Spawn has had
	// every chance to return early.
	spawn := func(t *testing.T) *rig {
		r := &rig{b: bus.New(new(trace.Metrics), nil), dir: directory.New(), done: make(chan error, 1)}
		reg := guest.NewRegistry()
		reg.Register("stub", func() guest.Guest { return stubGuest{} })
		r.primary = New(Config{ID: 1, Bus: r.b, Dir: r.dir, Registry: reg, Metrics: new(trace.Metrics)})
		r.backup = New(Config{ID: 0, Bus: r.b, Dir: r.dir, Registry: reg, Metrics: new(trace.Metrics)})
		t.Cleanup(func() { r.primary.Stop(); r.backup.Stop() })
		r.primary.HoldTransmit(true)
		go func() {
			_, err := r.primary.Spawn("stub", nil, SpawnOpts{BackupCluster: 0})
			r.done <- err
		}()
		for r.primary.OutgoingBacklog() == 0 {
			runtime.Gosched()
		}
		r.primary.mu.Lock()
		notice := r.primary.outgoing.Live()[0]
		r.primary.mu.Unlock()
		if notice.Kind != types.KindBirthNotice {
			t.Fatalf("queued %v, want the birth notice", notice.Kind)
		}
		r.pid = notice.Dst
		for i := 0; i < 100; i++ {
			runtime.Gosched()
			select {
			case err := <-r.done:
				t.Fatalf("Spawn returned (%v) while the hold kept its birth notice queued", err)
			default:
			}
		}
		if _, ok := r.dir.Proc(r.pid); !ok {
			t.Fatalf("no directory entry for %v while its spawn waits", r.pid)
		}
		return r
	}
	// noticeArrived checks that the backup cluster's first arrival is the
	// birth notice.
	noticeArrived := func(t *testing.T, r *rig) {
		t.Helper()
		arrived, _ := r.backup.inbox.PopAll(nil)
		if len(arrived) == 0 || arrived[0].Kind != types.KindBirthNotice || arrived[0].Dst != r.pid {
			t.Fatalf("the backup cluster's first arrival is %v, want %v's birth notice", arrived, r.pid)
		}
	}

	t.Run("returns once the hold is released", func(t *testing.T) {
		r := spawn(t)
		r.primary.HoldTransmit(false)
		if err := <-r.done; err != nil {
			t.Fatalf("Spawn after the hold was released: %v", err)
		}
		noticeArrived(t, r)
	})
	t.Run("a crash during the hold fails it", func(t *testing.T) {
		r := spawn(t)
		r.primary.Crash()
		if err := <-r.done; !errors.Is(err, types.ErrCrashed) {
			t.Fatalf("Spawn across a crash under the hold = %v, want ErrCrashed", err)
		}
		if loc, ok := r.dir.Proc(r.pid); ok {
			t.Fatalf("the failed spawn left a directory entry %+v", loc)
		}
		if n := r.backup.inbox.Backlog(); n != 0 {
			t.Fatalf("%d messages reached the backup cluster, want none: the notice was lost", n)
		}
	})
	t.Run("a crash after the notice left does not", func(t *testing.T) {
		r := spawn(t)
		// The cluster crashes while the batch holding the notice holds the
		// bus: after the notice was taken, before the transmitter is back.
		crashed := make(chan struct{})
		r.b.SetFaultHook(func(int, *types.Message, int) bool {
			if !r.primary.Crashed() {
				go func() {
					r.primary.Crash()
					close(crashed)
				}()
				for !r.primary.Crashed() {
					runtime.Gosched()
				}
			}
			return false
		})
		r.primary.HoldTransmit(false)
		<-crashed
		if err := <-r.done; err != nil {
			t.Fatalf("Spawn whose notice left before the crash: %v", err)
		}
		if _, ok := r.dir.Proc(r.pid); !ok {
			t.Fatalf("no directory entry for %v, whose notice left", r.pid)
		}
		noticeArrived(t, r)
	})
}

// TestStragglerBatchBehindItsCrashNoticeIsFenced: a cluster crashes while
// its executive holds a batch it has taken off the queue but not yet put on
// the bus — here the crash runs from inside the bus's critical section, the
// latest point there is. Nothing on the transmit path looks at the kernel
// again, so the batch goes out, stamped with the sender's cluster and
// incarnation. Where bus order puts it decides its fate at every receiver:
// ahead of the crash notice it is the output of a cluster that died just
// after transmitting, and is accepted; behind the notice (a transmitter
// delayed past it, a wire that delays) it is fenced, because dispatching the
// notice advanced the receiver's view of the cluster's incarnation.
func TestStragglerBatchBehindItsCrashNoticeIsFenced(t *testing.T) {
	metrics := new(trace.Metrics)
	b := bus.New(metrics, nil)
	dir := directory.New()
	newKernel := func(id types.ClusterID) *Kernel {
		return New(Config{ID: id, Bus: b, Dir: dir, Registry: guest.NewRegistry(), Metrics: metrics})
	}
	sender, receiver := newKernel(1), newKernel(2)
	queue := addEntry(receiver, fixDst, fixSrc, routing.Primary)

	route := types.Route{Dst: 2, DstBackup: types.NoCluster, SrcBackup: types.NoCluster}
	sender.mu.Lock()
	for _, payload := range []string{"one", "two"} {
		sender.sendLocked(&types.Message{
			Kind: types.KindData, Channel: fixCh, Src: fixSrc, Dst: fixDst, Route: route, Payload: []byte(payload),
		})
	}
	sender.takeBatchLocked()
	sender.mu.Unlock()

	// The crash lands once the executive is past its last look at the
	// kernel: Crash runs its critical section while the batch holds the bus,
	// and its Detach waits for the batch to finish.
	crashed := make(chan struct{})
	b.SetFaultHook(func(int, *types.Message, int) bool {
		if !sender.Crashed() {
			go func() {
				sender.Crash()
				close(crashed)
			}()
			for !sender.Crashed() {
				runtime.Gosched()
			}
		}
		return false
	})
	sender.offerBatch()
	<-crashed
	b.SetFaultHook(nil)

	// What core.handleDetectedCrash does once Kernel.Crash has returned.
	dir.ApplyCrash(1)
	notice := &CrashNotice{Crashed: 1, Inc: dir.Incarnation(1)}
	if _, err := b.BroadcastBatch([]*types.Message{{Kind: types.KindCrashNotice, Payload: Encode(notice)}}); err != nil {
		t.Fatal(err)
	}

	arrived, _ := receiver.inbox.PopAll(nil)
	var kinds []types.Kind
	for _, m := range arrived {
		kinds = append(kinds, m.Kind)
	}
	if !slices.Equal(kinds, []types.Kind{types.KindData, types.KindData, types.KindCrashNotice}) {
		t.Fatalf("receiver's inbox holds %v, want the two stragglers ahead of the notice", kinds)
	}
	straggler := arrived[0]
	if straggler.Origin != 1 || straggler.Inc == 0 || straggler.Inc != sender.Incarnation() {
		t.Fatalf("straggler stamped Origin %v Inc %d, want cluster1 / %v", straggler.Origin, straggler.Inc, sender.Incarnation())
	}
	receiver.dispatchBatch(arrived)
	if got := queue.QueueLen(); got != 2 {
		t.Fatalf("%d stragglers queued for reading, want both: they precede the notice in bus order", got)
	}
	if view := receiver.incView[1]; view != notice.Inc {
		t.Fatalf("receiver's view of cluster 1 is incarnation %d after the notice, want %d", view, notice.Inc)
	}

	// The same frame again, now behind the notice.
	straggler.ID = 0
	receiver.dispatchBatch([]types.Message{straggler})
	if fenced := metrics.FencedRejects.Load(); fenced != 1 || queue.QueueLen() != 2 {
		t.Fatalf("a dead cluster's frame behind its crash notice: fenced %d, queued %d; want 1 and 2",
			fenced, queue.QueueLen())
	}
}

// TestOutboundCutKeysOnTheTransmitter: a partition that severs a cluster's
// outbound links silences that cluster's kernel and no other, because the
// wire reads the transmitter from the stamp offerBatch puts on every message.
func TestOutboundCutKeysOnTheTransmitter(t *testing.T) {
	for _, tc := range []struct {
		cut     types.ClusterID
		dropped bool
	}{{cut: 2, dropped: true}, {cut: 0, dropped: false}} {
		t.Run(tc.cut.String(), func(t *testing.T) {
			metrics := new(trace.Metrics)
			b := bus.New(metrics, nil)
			b.Attach(0)
			peer := b.Attach(1)
			k := New(Config{ID: 2, Bus: b, Dir: directory.New(), Registry: guest.NewRegistry(), Metrics: metrics})
			for i := 0; i < bus.NumBuses; i++ {
				if err := b.Cut(i, tc.cut, false, true); err != nil {
					t.Fatal(err)
				}
			}
			k.mu.Lock()
			k.sendLocked(&types.Message{
				Kind: types.KindData, Channel: fixCh, Src: fixSrc, Dst: fixDst, Payload: []byte("from cluster 2"),
				Route: types.Route{Dst: 1, DstBackup: types.NoCluster, SrcBackup: types.NoCluster},
			})
			k.transmitLocked()
			k.mu.Unlock()
			received, drops := peer.Backlog(), metrics.PartitionDrops.Load()
			if tc.dropped && (received != 0 || drops != 1) || !tc.dropped && (received != 1 || drops != 0) {
				t.Fatalf("outbound cut on %v: cluster 1 received %d of kernel 2's messages, %d partition drops",
					tc.cut, received, drops)
			}
		})
	}
}

// TestEstablishmentSyncForADeadBackupIsDropped: the new backup's cluster
// crashed between the establishment cutover and the process's establishment
// sync. The sync point must come back (it used to spin through the gate,
// releasing k.mu on the way; it no longer releases it) and a later
// establishment starts clean.
func TestEstablishmentSyncForADeadBackupIsDropped(t *testing.T) {
	r := newTxRig()
	r.k.mu.Lock()
	r.p.backupCluster = types.NoCluster
	r.p.establishSyncPending = true
	r.k.mu.Unlock()
	if err := r.pr.SyncPoint(); err != nil {
		t.Fatal(err)
	}
	if r.p.establishSyncPending {
		t.Fatal("the establishment sync is still pending for a backup that no longer exists")
	}
	r.expect(t, 0, 0)
}
