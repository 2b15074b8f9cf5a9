// Package kernel implements the Auros operating-system kernel of one
// cluster (§7.2): the message system integrated with process management.
//
// Following the paper's split, the kernel performs only cluster-local
// functions — scheduling processes (goroutines), local routing tables,
// message handling — while globally consistent services live in server
// processes (page server, file server, process server, tty server). The
// executive processor is modeled by one goroutine and one function. The
// goroutine is the receive loop, which dispatches arriving messages to
// primary destinations, backup save queues, and sender-backup write counts
// (§7.4.2). The function is transmitPending, which drains the cluster's
// outgoing queue onto the intercluster bus in FIFO order; it has no goroutine
// of its own but runs, one caller at a time, on whichever goroutine queued
// the output — a process when it is about to block, the receive loop after a
// drained batch (see transmitLocked for the exact points).
//
// Kernels are not synchronized and are not backed up; only an independent
// copy runs in each cluster (§7.2). All state a backup process needs is
// carried by messages: saved queues, sync messages, birth notices, and page
// accounts.
package kernel

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"auragen/internal/bus"
	"auragen/internal/directory"
	"auragen/internal/guest"
	"auragen/internal/memory"
	"auragen/internal/replication"
	"auragen/internal/routing"
	"auragen/internal/trace"
	"auragen/internal/types"
	"auragen/internal/wire"
)

// Default sync triggers (§7.8). Both are per-process tunable via SpawnOpts.
const (
	// DefaultSyncReads forces a sync after this many reads since the last
	// sync.
	DefaultSyncReads uint32 = 32
	// DefaultSyncTicks forces a sync after this much virtual execution
	// time since the last sync.
	DefaultSyncTicks uint64 = 1024
)

// Transmit retry discipline: the executive re-offers a message to the bus
// this many times, pausing between attempts, before concluding the cluster
// is cut off (both physical buses dead — a multiple failure, §6) and
// entering degraded mode. The pause gives a transient outage or a repair
// (bus.RepairBus) time to clear; a healthy run never retries.
const (
	txMaxAttempts = 5
	txBackoff     = 2 * time.Millisecond
)

// DefaultTxBatch is how many queued outbound messages the executive
// coalesces into one bus offer. One batch acquires the bus ordering critical
// section once, so the per-message cost of the §5.1 no-interleaving
// guarantee is amortized across the batch.
const DefaultTxBatch = 64

// maxTxWriterCap bounds the buffer the transmit writer keeps between
// payloads: one that grew past it (a large page-out or image) is dropped.
const maxTxWriterCap = 1 << 18 // 256 KiB

// DefaultPageFetchTimeout bounds how long a promoted backup waits for its
// page account during roll-forward before the recovery is abandoned (the
// account's hosts died too — a multiple failure).
const DefaultPageFetchTimeout = 10 * time.Second

// rxDedupWindow is the size of the receive loop's duplicate window: a
// direct-mapped array indexed by id & (rxDedupWindow-1), each slot holding
// the whole ID last delivered there. A repeat is recognised iff its slot
// still holds it, so there is no false positive, and a duplicate is missed
// only if another ID congruent mod rxDedupWindow reached this cluster
// between the two copies. The wire cannot produce that: it stages both
// copies of an armed duplicate back to back under the bus lock
// (lossyWire.copiesLocked → Bus.stageLocked), and an armed delay withholds
// a frame for tens of transmissions, not hundreds. That argument sets the
// size: the array is zeroed at every kernel boot, and a repair boots one.
const rxDedupWindow = 256

// The slot index is a mask, so the window must be a power of two.
var _ [0]struct{} = [rxDedupWindow & (rxDedupWindow - 1)]struct{}{}

// Config assembles a kernel's dependencies.
type Config struct {
	ID       types.ClusterID
	Bus      *bus.Bus
	Dir      *directory.Directory
	Registry *guest.Registry
	Metrics  *trace.Metrics
	Log      *trace.EventLog // may be nil
	PageSize int             // 0 means memory.DefaultPageSize

	// Clock supplies the kernel's local time (recovery latency accounting,
	// the server-visible Now). nil selects the wall clock; tests and the
	// simulator inject a types.LogicalClock for reproducible runs.
	Clock types.Clock

	// SyncReads/SyncTicks are the cluster-wide default sync triggers;
	// zero selects the package defaults.
	SyncReads uint32
	SyncTicks uint64

	// Replication selects the replication policy (capture cadence and
	// shape, signal pinning, promotion plan); the zero value is the
	// paper's three-way scheme. Every kernel in a system must run the
	// same kind.
	Replication replication.Kind

	// PageFetchTimeout bounds the roll-forward page-account fetch; zero
	// selects DefaultPageFetchTimeout. Fault-injection campaigns shorten
	// it so abandoned recoveries surface quickly.
	PageFetchTimeout time.Duration

	// DrainJitter, when non-nil, randomizes how many queued messages each
	// bus offer coalesces (1..n instead of always n), and RxJitter does
	// the same for inbox draining (see bus.Inbox SetDrainJitter) — the
	// schedule perturber's hooks for exploring batching/interleaving
	// schedules without violating FIFO order. Both RNGs become owned by
	// the kernel (DrainJitter is drawn under its mutex, RxJitter under the
	// inbox's); split a parent RNG per kernel (see
	// core.Options.ScheduleSeed). Nil (the default) keeps the
	// deterministic full-batch behavior.
	DrainJitter *types.RNG
	RxJitter    *types.RNG
}

// Kernel is one cluster's operating system kernel.
type Kernel struct {
	id      types.ClusterID
	bus     *bus.Bus
	dir     *directory.Directory
	reg     *guest.Registry
	metrics *trace.Metrics
	log     *trace.EventLog
	clock   types.Clock

	pageSize  int
	syncReads uint32
	syncTicks uint64
	policy    replication.Policy

	inbox *bus.Inbox

	// inc is this kernel's cluster incarnation, fixed at construction (a
	// kernel never changes lives: repair boots a replacement kernel with
	// the bumped incarnation). offerBatch stamps it into every outgoing
	// message.
	inc types.Incarnation

	// Receiver-side duplicate suppression, owned exclusively by the
	// receive-loop goroutine: the bus-minted message IDs most recently
	// delivered here, direct-mapped (see rxDedupWindow). Legitimate delivery
	// hands each transmission to a cluster exactly once, so a repeat ID is
	// always the wire lying (FaultBusDuplicate); a window rather than a
	// high-water mark because delayed transmissions legitimately arrive out
	// of ID order.
	rxSeen [rxDedupWindow]uint64

	mu sync.Mutex

	// incView is the kernel's local knowledge of every cluster's current
	// incarnation (guarded by mu; absent entries mean "nothing learned
	// yet"). Messages stamped below the view are fenced; crash notices
	// carry the bump that advances it.
	incView map[types.ClusterID]types.Incarnation

	outgoing routing.Queue[*types.Message]
	// transmitting is the single-transmitter flag (guarded by mu): set
	// while one goroutine is between taking a batch off outgoing and the
	// bus accepting it, which it does outside mu. Anyone else who finds it
	// set leaves their output queued — the holder looks at the queue again,
	// under mu, before it clears the flag — so bus order is queue order.
	transmitting bool
	// txBatch is the batch being offered, and txw the writer its lazy
	// payloads are encoded into. Both belong to the holder of the
	// transmitting flag and are reused from one batch to the next.
	txBatch []*types.Message
	txw     wire.Writer
	// txHold stops transmission without stopping enqueues (HoldTransmit).
	// Atomic, so a hold can be set where k.mu cannot be taken.
	txHold atomic.Bool
	// drainJitter perturbs the per-offer coalesce count (Config.DrainJitter).
	// Drawn under mu.
	drainJitter *types.RNG
	// held parks outgoing messages whose fullback destination lost its
	// backup, until a BackupUp notice arrives (§7.10.1 step 4).
	held map[types.PID][]*types.Message

	crashed bool
	stopped bool
	// degraded marks the cluster cut off from the intercluster bus after
	// a bus offer exhausted its retries — a multiple failure the §6
	// contract does not cover. Blocked syscalls return
	// types.ErrTooManyFailures so process goroutines unwind instead of
	// deadlocking.
	degraded bool
	// dieCh closes when the kernel crashes, stops, or degrades; channel
	// waits (page restore) select on it to unwind promptly.
	dieCh     chan struct{}
	dieClosed bool

	pageFetchTimeout time.Duration

	table   *routing.Table
	procs   map[types.PID]*PCB
	backups map[types.PID]*BackupPCB
	// births holds unconsumed birth records by parent pid, in fork order
	// (§7.7, §7.10.2).
	births map[types.PID][]*BirthNotice
	// nondetLogs accumulates, per backed-up sender, the piggybacked
	// results of its nondeterministic events since its last sync (§10).
	nondetLogs map[types.PID][]uint64
	servers    map[types.PID]*ServerHost
	pager      PagerSink

	arrival types.Seq
	// marked is the highest core mark (KindMark) dispatched here, and
	// atMark what to run when a given mark is dispatched (AtMark).
	marked atomic.Uint64
	atMark map[uint64]func()
	// changed records that the batch being dispatched carried control
	// traffic; dispatchBatch then tells core's waits (directory Notify).
	changed bool

	// guestErrs retains the most recent guest failures for post-mortems
	// (software faults are outside the paper's fault model, but tests need
	// to see them).
	guestErrs []string

	wg sync.WaitGroup
}

// PagerSink is the page server instance attached to a pager cluster. Both
// the primary and its mirror receive the same ordered stream of page-outs,
// sync commits, and frees (see internal/pager for the design note).
type PagerSink interface {
	// HandlePageOut adds po's pages to the primary account of po.PID. The
	// page data aliases the arriving message's payload and is valid only
	// for the duration of the call: an implementation copies what it keeps.
	HandlePageOut(po *PageOut)
	HandleSyncCommit(pid types.PID, epoch types.Epoch)
	HandleFree(pids []types.PID)
	// HandlePageRequest returns the backup page account of pid.
	HandlePageRequest(pid types.PID) []memory.Page
	// HandleCrash tells the pager a cluster failed so it can roll
	// uncommitted primary accounts back to the backup accounts of
	// processes that lived there.
	HandleCrash(crashed types.ClusterID)
	// HandleCrashPID rolls back one process's account (an isolatable
	// single-process failure, §10).
	HandleCrashPID(pid types.PID)
}

// New constructs a kernel and attaches it to the bus. Call Start to begin
// executive processing.
func New(cfg Config) *Kernel {
	if cfg.PageSize <= 0 {
		cfg.PageSize = memory.DefaultPageSize
	}
	if cfg.SyncReads == 0 {
		cfg.SyncReads = DefaultSyncReads
	}
	if cfg.SyncTicks == 0 {
		cfg.SyncTicks = DefaultSyncTicks
	}
	if cfg.Metrics == nil {
		panic("kernel: nil Config.Metrics; use a shared sink (see core.NewObservability)")
	}
	if cfg.Clock == nil {
		cfg.Clock = types.WallClock{}
	}
	if cfg.PageFetchTimeout <= 0 {
		cfg.PageFetchTimeout = DefaultPageFetchTimeout
	}
	k := &Kernel{
		id:         cfg.ID,
		bus:        cfg.Bus,
		dir:        cfg.Dir,
		reg:        cfg.Registry,
		metrics:    cfg.Metrics,
		log:        cfg.Log,
		clock:      cfg.Clock,
		pageSize:   cfg.PageSize,
		syncReads:  cfg.SyncReads,
		syncTicks:  cfg.SyncTicks,
		policy:     cfg.Replication.Policy(),
		inc:        cfg.Dir.Incarnation(cfg.ID),
		incView:    make(map[types.ClusterID]types.Incarnation),
		held:       make(map[types.PID][]*types.Message),
		table:      routing.NewTable(),
		procs:      make(map[types.PID]*PCB),
		backups:    make(map[types.PID]*BackupPCB),
		births:     make(map[types.PID][]*BirthNotice),
		nondetLogs: make(map[types.PID][]uint64),
		servers:    make(map[types.PID]*ServerHost),
		atMark:     make(map[uint64]func()),
		dieCh:      make(chan struct{}),

		drainJitter: cfg.DrainJitter,

		pageFetchTimeout: cfg.PageFetchTimeout,
	}
	k.inbox = cfg.Bus.Attach(cfg.ID)
	k.inbox.SetDrainJitter(cfg.RxJitter)
	return k
}

// ID returns the cluster id.
func (k *Kernel) ID() types.ClusterID { return k.id }

// Incarnation returns the cluster incarnation this kernel was born into.
func (k *Kernel) Incarnation() types.Incarnation { return k.inc }

// Metrics returns the shared metrics sink.
func (k *Kernel) Metrics() *trace.Metrics { return k.metrics }

// Directory returns the shared directory.
func (k *Kernel) Directory() *directory.Directory { return k.dir }

// SetPager attaches a page-server instance to this cluster.
func (k *Kernel) SetPager(p PagerSink) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.pager = p
}

// SetPagerAt attaches p when this kernel dispatches core's mark n, so p
// applies only what the bus orders after the mark: the page-server replica
// a repair clones from the survivor at that same mark (core.Repair).
func (k *Kernel) SetPagerAt(p PagerSink, n uint64) {
	k.AtMark(n, func() { k.pager = p })
}

// AtMark runs fn under the kernel lock when this kernel dispatches core's
// mark n: at the mark's place in the bus order, when everything ordered
// before it has been dispatched here and nothing after it has.
func (k *Kernel) AtMark(n uint64, fn func()) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.atMark[n] = fn
}

// Start launches the executive processor's receive loop.
func (k *Kernel) Start() {
	k.wg.Add(1)
	go k.rxLoop()
}

// Crash simulates a hardware failure taking the whole cluster down: all
// processing stops abruptly and volatile state (outgoing queue, routing
// tables, process memory) is lost with the cluster. Blocked syscalls return
// types.ErrCrashed so process goroutines unwind.
func (k *Kernel) Crash() {
	k.mu.Lock()
	k.haltLocked()
	k.mu.Unlock()
	// Detach closes the inbox, ending the receive loop.
	k.bus.Detach(k.id)
}

// haltLocked is the halt both ways out of service share, the hardware
// failure (Crash) and the step-down (stepDownLocked): the cluster is marked
// crashed, its outgoing queue is lost, and every process is marked crashed
// and woken so its blocked syscall returns types.ErrCrashed. The caller
// holds k.mu and detaches from the bus afterwards.
func (k *Kernel) haltLocked() {
	k.crashed = true
	k.outgoing = routing.Queue[*types.Message]{}
	for _, p := range k.procs {
		p.crashed = true
		p.cond.Broadcast()
	}
	k.closeDieLocked()
}

// closeDieLocked closes dieCh exactly once. The caller holds k.mu.
func (k *Kernel) closeDieLocked() {
	if !k.dieClosed {
		k.dieClosed = true
		close(k.dieCh)
	}
}

// Stop shuts the kernel down cleanly (test teardown). Unlike Crash it does
// not simulate a failure, but process goroutines are interrupted the same
// way.
func (k *Kernel) Stop() {
	k.mu.Lock()
	k.stopped = true
	for _, p := range k.procs {
		p.crashed = true
		p.cond.Broadcast()
	}
	k.closeDieLocked()
	k.mu.Unlock()
	k.bus.Detach(k.id)
}

// Wait blocks until the receive loop and every process goroutine have exited
// (after Crash or Stop).
func (k *Kernel) Wait() { k.wg.Wait() }

// Crashed reports whether the cluster has failed.
func (k *Kernel) Crashed() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.crashed
}

// Degraded reports whether the cluster was cut off from the bus by a
// multiple failure (both physical buses lost past the retry budget).
func (k *Kernel) Degraded() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.degraded
}

// enterDegraded is the executive's response to an unrecoverable bus
// failure: freeze the outgoing queue, wake every blocked process goroutine
// (their syscalls return types.ErrTooManyFailures), and leave receive-side
// state intact for post-mortem inspection. Unlike Crash, the cluster
// hardware is fine — it just cannot talk to anyone.
func (k *Kernel) enterDegraded(cause error) {
	k.mu.Lock()
	if k.degraded || k.crashed || k.stopped {
		k.mu.Unlock()
		return
	}
	k.degraded = true
	k.outgoing = routing.Queue[*types.Message]{}
	for _, p := range k.procs {
		p.cond.Broadcast()
	}
	k.closeDieLocked()
	k.mu.Unlock()
	k.dir.Notify()
	k.log.Add(trace.EvNote, fmt.Sprintf("%s: degraded, bus unreachable after %d attempts: %v",
		k.id, txMaxAttempts, cause))
}

// GuestErrors returns the recent guest error strings (newest last).
func (k *Kernel) GuestErrors() []string {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]string, len(k.guestErrs))
	copy(out, k.guestErrs)
	return out
}

// recordGuestErrLocked appends to the bounded guest-error ring.
func (k *Kernel) recordGuestErrLocked(msg string) {
	k.guestErrs = append(k.guestErrs, msg)
	if len(k.guestErrs) > 32 {
		k.guestErrs = k.guestErrs[len(k.guestErrs)-32:]
	}
}

// Proc returns the live PCB for pid, if present.
func (k *Kernel) Proc(pid types.PID) (*PCB, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	p, ok := k.procs[pid]
	return p, ok
}

// Backup returns the backup record for pid, if present.
func (k *Kernel) Backup(pid types.PID) (*BackupPCB, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	b, ok := k.backups[pid]
	return b, ok
}

// ProcEpoch returns the current sync epoch of a live primary, under the
// kernel lock (PCB fields are guarded by it; the PCB returned by Proc must
// not be read while the kernel runs).
func (k *Kernel) ProcEpoch(pid types.PID) (types.Epoch, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	p, ok := k.procs[pid]
	if !ok {
		return 0, false
	}
	return p.epoch, true
}

// BackupStatus returns a backup record's epoch and viability under the
// kernel lock. A backup is viable for promotion once it is synced (or never
// needed a sync: a shell created at birth replays from the beginning).
func (k *Kernel) BackupStatus(pid types.PID) (epoch types.Epoch, viable bool, ok bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	b, ok := k.backups[pid]
	if !ok {
		return 0, false, false
	}
	return b.epoch, !b.requiresSync || b.synced, true
}

// Marked returns the highest core mark (KindMark) this kernel has
// dispatched: everything the bus ordered before that mark has been
// dispatched here.
func (k *Kernel) Marked() uint64 { return k.marked.Load() }

// sendLocked places a message on the cluster's outgoing queue, and only
// that: when it leaves is transmitLocked's business. The caller holds k.mu.
// Messages leave the cluster in the order they are placed here (§7.8's
// safety argument for sync messages depends on this FIFO order).
func (k *Kernel) sendLocked(m *types.Message) {
	if k.crashed || k.stopped || k.degraded {
		return
	}
	k.outgoing.Push(&m)
}

// HoldTransmit stops (hold=true) or resumes (hold=false) transmission.
// Enqueues continue, so a held kernel accumulates an outgoing backlog that
// nobody offers to the bus; tests use the hold to open the batch-enqueue →
// batch-transmit window deterministically (e.g. to land a crash inside it).
// A hold takes no lock, so a fault injector may set it inside an event-log
// observer: nothing the cluster queues after that event leaves it, as if it
// failed there, until the crash that follows discards the backlog.
// Releasing the hold transmits the backlog before returning.
func (k *Kernel) HoldTransmit(hold bool) {
	if k.txHold.Store(hold); hold {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.transmitLocked()
}

// OutgoingBacklog returns the number of messages queued but not yet
// offered to the bus.
func (k *Kernel) OutgoingBacklog() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.outgoing.Len()
}

// transmitLocked is the executive processor's transmit half. It drains the
// outgoing queue onto the bus in FIFO order, coalescing up to DefaultTxBatch
// queued messages into one bus offer, and reports whether it let go of k.mu
// to do so: the caller holds k.mu on entry and on return, but not across an
// offer, so a true result means whatever the caller knew about kernel state
// must be looked at again.
//
// There is no transmit goroutine. The goroutine that queued the output runs
// this itself, at the moments a separate executive processor would have got
// to the queue anyway:
//
//   - a process goroutine is about to block in the kernel (blockLocked, the
//     page fetch of a promoted backup);
//   - a process leaves SyncPoint — a capture's page-out and sync message go
//     with whatever it wrote before them — or exits;
//   - Write has filled a batch (the queue reached DefaultTxBatch);
//   - the receive loop has dispatched a drained batch (server replies,
//     forwards, promotion traffic);
//   - any other exported entry that queues output is on its way out (Spawn,
//     EstablishBackup, CrashProcess, Signal, ServerInject,
//     HoldTransmit(false)).
//
// So a process's output leaves no later than its next blocking call, sync
// point, full batch or exit; Write and Tick alone return with it still
// queued. Transmitting at every kernel exit instead would split a request
// from the sync that follows it and, on one processor, let two primaries
// hand the processor back and forth while their backups' executives starve
// (DESIGN.md §10.1).
//
// One goroutine transmits at a time (the transmitting flag); another that
// arrives meanwhile returns at once and its output goes out in the holder's
// next batch. A held, crashed, stopped or degraded kernel transmits nothing.
func (k *Kernel) transmitLocked() bool {
	if k.transmitting {
		return false
	}
	released := false
	for k.takeBatchLocked() {
		k.transmitting = true
		k.mu.Unlock()
		k.offerBatch()
		k.mu.Lock()
		released = true
	}
	k.transmitting = false
	return released
}

// blockLocked is how a process goroutine blocks in the kernel: it transmits
// what is queued — its own output first of all, or the reply it is about to
// wait for could never come — and only if there was nothing to transmit
// does it wait on its condition variable. Either way k.mu was released, so
// every caller sits in a loop that re-evaluates its predicate.
func (k *Kernel) blockLocked(p *PCB) {
	if !k.transmitLocked() {
		p.cond.Wait()
	}
}

// takeBatchLocked moves the next batch from the outgoing queue into
// k.txBatch and reports whether there was one to take. The caller holds
// k.mu and the transmitting flag (or is about to set it).
func (k *Kernel) takeBatchLocked() bool {
	n := min(k.outgoing.Len(), DefaultTxBatch)
	if n == 0 || k.txHold.Load() || k.crashed || k.stopped || k.degraded {
		return false
	}
	if k.drainJitter != nil && n > 1 {
		// Schedule perturbation: coalesce a random FIFO prefix so the
		// same workload exercises many batch boundaries. Order and
		// delivery are unchanged — only where batches split.
		n = 1 + k.drainJitter.Intn(n)
	}
	k.txBatch = append(k.txBatch[:0], k.outgoing.Live()[:n]...)
	k.outgoing.Drop(n)
	return true
}

// offerBatch puts k.txBatch on the bus. Every transmission of this cluster
// goes through here, under the transmitting flag and outside k.mu. Lazy
// payloads are resolved here — off the kernel lock — each encoded into
// k.txw and copied out of it, so the payload the bus hands to every
// destination is the message's own; what an encoder borrowed (a page-out's
// captured pages) is handed back as soon as it is encoded.
func (k *Kernel) offerBatch() {
	// Encoders touch only data the enqueuer handed off (captured pages,
	// retired sync state), so running them here is race-free.
	for _, m := range k.txBatch {
		// Stamp the sender's identity and incarnation: this is what lets
		// receivers fence the whole batch if this kernel turns out to be a
		// superseded primary, and what the wire's link cuts key on. A
		// forwarded message that still carries another cluster's stamp is
		// restamped: the transmitter is this cluster. k.inc is immutable
		// after New.
		m.Origin, m.Inc = k.id, k.inc
		if m.Lazy != nil {
			k.txw.Reset()
			m.Lazy.EncodePayload(&k.txw)
			if r, ok := m.Lazy.(types.PayloadRetirer); ok {
				r.RetirePayload()
			}
			m.Payload = append([]byte(nil), k.txw.Bytes()...)
			m.Lazy = nil
			if cap(k.txw.Bytes()) > maxTxWriterCap {
				k.txw = wire.Writer{} // one large image does not keep its buffer
			}
		}
	}

	err := k.transmitBatch(k.txBatch)
	clear(k.txBatch) // transmitted: do not pin the messages until the next batch
	if err != nil {
		// Both physical buses down past the retry budget: an untolerated
		// multiple failure. The cluster is cut off; degrade so blocked
		// processes unwind with types.ErrTooManyFailures instead of
		// stalling forever. A kernel that crashed or stopped meanwhile
		// stays as it is (enterDegraded looks).
		k.enterDegraded(err)
	}
}

// transmitBatch offers a batch to the bus, retrying the unsent suffix with
// backoff so a transient outage (or a bus repair racing the failure
// detector) does not escalate into a cluster-wide degradation. The bus
// truncates a batch at the first failed message — it never punches holes —
// so retrying batch[sent:] preserves FIFO order.
//
// A batch taken before its cluster crashed still goes out: the kernel is not
// looked at again. Bus order then puts the batch either ahead of the crash
// notice (a cluster that died just after transmitting) or behind it, where
// every receiver fences it by its superseded incarnation stamp.
func (k *Kernel) transmitBatch(batch []*types.Message) error {
	var err error
	for attempt := 0; attempt < txMaxAttempts; attempt++ {
		if attempt > 0 {
			//lint:ignore AURO001 bounded backoff between bus retries, not an input to execution: a healthy run never sleeps here
			time.Sleep(txBackoff)
		}
		var sent int
		sent, err = k.bus.BroadcastBatch(batch)
		batch = batch[sent:]
		if err == nil {
			return nil
		}
	}
	return err
}

// rxLoop is the executive processor's receive half.
func (k *Kernel) rxLoop() {
	defer k.wg.Done()
	growStack()
	var buf []types.Message
	for {
		// Drain whatever the bus has batched in with one inbox acquisition;
		// dispatch order within the drained slice is the arrival order.
		ms, ok := k.inbox.PopAll(buf)
		if !ok {
			return
		}
		k.dispatchBatch(ms)
		buf = ms
	}
}

// stackIndex is always 0; growStack reads through it so that its frame is
// not optimized away.
var stackIndex int

// growStack gives a fresh receive-loop or process goroutine a larger stack
// while that stack is still empty. A goroutine starts on a 2 KiB stack, and
// the first call chain that overflows it pays for copying every frame then
// on it; when that overflow falls inside a dispatch or a write under k.mu,
// boot-to-first-write is ≈10 % slower (BenchmarkBootToFirstWrite).
// Reserving one 4 KiB frame here makes the runtime move the goroutine to an
// 8 KiB stack at once, with nothing to copy.
//
//go:noinline
func growStack() byte {
	var reserve [4 << 10]byte
	return reserve[stackIndex]
}

// dispatchBatch dispatches one drained batch under a single acquisition of
// k.mu and then transmits what the batch queued (server replies, forwards,
// promotion traffic), so the receive loop never goes back to sleep on
// output of its own. A batch that carried control traffic wakes core's
// waits once, after k.mu is released; a data-only batch pays one branch.
// The kernel never writes to the buffer's messages and keeps only copies of
// them, which is what lets rxLoop recycle the buffer on its next PopAll.
func (k *Kernel) dispatchBatch(ms []types.Message) {
	k.mu.Lock()
	for i := range ms {
		if k.rxDuplicate(ms[i].ID) {
			// The wire delivered the same bus-minted transmission twice;
			// the at-least-once lie dies here, before any arrival state is
			// stamped.
			k.metrics.DupDeliveriesSuppressed.Add(1)
		} else {
			k.dispatchLocked(&ms[i])
		}
	}
	k.transmitLocked()
	if k.changed {
		k.changed = false
		defer k.dir.Notify() // after the unlock
	}
	k.mu.Unlock()
}

// rxDuplicate records id in the receive loop's dedup window and reports
// whether it was already delivered. Owned by the rxLoop goroutine.
func (k *Kernel) rxDuplicate(id uint64) bool {
	if id == 0 {
		return false
	}
	slot := &k.rxSeen[id&(rxDedupWindow-1)]
	if *slot == id {
		return true
	}
	*slot = id
	return false
}

// logMsg records a message-scoped routing event for this cluster. The
// disabled (nil log) path does no work, so dispatch can log unconditionally.
func (k *Kernel) logMsg(kind trace.EventKind, m *types.Message, pid types.PID, arg uint64) {
	if k.log == nil {
		return
	}
	k.log.Append(trace.Event{
		Kind:    kind,
		Cluster: k.id,
		MsgID:   m.ID,
		MsgKind: m.Kind,
		PID:     pid,
		Channel: m.Channel,
		Arg:     arg,
	})
}

// logEv records a process- or cluster-scoped event for this cluster; like
// logMsg it does no work without a log.
func (k *Kernel) logEv(kind trace.EventKind, pid types.PID, arg uint64, note string) {
	if k.log != nil {
		k.log.Append(trace.Event{Kind: kind, Cluster: k.id, PID: pid, Arg: arg, Note: note})
	}
}

// dispatchLocked routes one arriving message according to the §5.1
// protocol: the message protocol lets the executive determine whether it is
// for the primary destination, the destination's backup, or the sender's
// backup, and a single cluster may play several of those roles for one
// message. The caller holds k.mu.
func (k *Kernel) dispatchLocked(in *types.Message) {
	// A page request lets go of k.mu around its disk read; it is neither
	// fenced nor given an arrival number.
	if in.Kind == types.KindPageRequest {
		k.dispatchPageRequestLocked(in)
		return
	}

	// Arrival state is stamped on a private copy of the delivered value, so
	// the receive buffer the rxLoop recycles is never written; the payload
	// bytes and nondet words are the sender's, shared by every target, and
	// treated as read-only. The copy lives on this stack frame: a routing
	// queue that keeps the message copies it by value into a slot of its
	// own array, a server keeps a heap copy made with retain, and a role
	// that keeps nothing (count-and-discard, a fenced or decoded-and-dropped
	// kind) allocates nothing.
	cp := *in
	m := &cp
	if k.crashed || k.stopped {
		return
	}
	// Incarnation fence: traffic stamped by a superseded cluster life is
	// rejected before any arrival state is touched. A wrongly-declared
	// primary that kept transmitting behind an asymmetric partition becomes
	// inert here — its messages can never diverge promoted state. Unstamped
	// control traffic (Origin NoCluster / Inc 0) is never fenced.
	if m.Origin != types.NoCluster && m.Inc != 0 {
		if view, ok := k.incView[m.Origin]; ok && m.Inc < view {
			k.metrics.FencedRejects.Add(1)
			k.logMsg(trace.EvFence, m, m.Src, uint64(m.Inc))
			return
		} else if !ok || m.Inc > view {
			k.incView[m.Origin] = m.Inc
		}
	}
	k.arrival++
	m.Seq = k.arrival

	switch m.Kind {
	case types.KindData, types.KindOpenRequest, types.KindOpenReply, types.KindSignal:
		k.dispatchChannelMessage(m)
		return
	case types.KindSync:
		k.dispatchSync(m)
	case types.KindDecision:
		if m.Route.Dst == k.id {
			k.dispatchDecision(m)
		}
	case types.KindBirthNotice:
		if m.Route.Dst == k.id {
			k.applyBirthNoticeLocked(m)
		}
	case types.KindExitNotice:
		k.dispatchExitNotice(m)
	case types.KindPageOut:
		if k.pager != nil {
			if po, err := DecodePageOut(m.Payload); err == nil {
				k.pager.HandlePageOut(po)
			}
		}
	case types.KindPageReply:
		k.dispatchPageReply(m)
	case types.KindCrashNotice:
		if cn, err := Decode[CrashNotice](m.Payload); err == nil {
			if cn.Inc != 0 && cn.Inc > k.incView[cn.Crashed] {
				// Learn the bump the declaration carries, so stragglers
				// from the superseded life are fenced from here on.
				k.incView[cn.Crashed] = cn.Inc
			}
			switch {
			case cn.PID != types.NoPID:
				k.handleProcCrashLocked(cn.Crashed, cn.PID)
			case cn.Crashed == k.id && cn.Inc > k.inc:
				// The system declared THIS cluster dead while it was alive
				// (a detector false positive, typically behind a
				// partition): our incarnation is superseded and backups
				// have been promoted elsewhere. Fence ourselves — step
				// down instead of running as a divergent second primary.
				k.stepDownLocked(cn.Inc)
			default:
				k.handleCrashLocked(cn.Crashed)
			}
		}
	case types.KindBackupUp:
		if bu, err := Decode[BackupUp](m.Payload); err == nil {
			k.handleBackupUpLocked(bu)
		}
	case types.KindBackupCreate:
		if m.Route.Dst == k.id {
			k.applyBackupImageLocked(m)
		}
	case types.KindBackupAck:
		if m.Route.Dst == k.id {
			if ba, err := Decode[BackupAck](m.Payload); err == nil {
				k.handleBackupAckLocked(ba)
			}
		}
	case types.KindServerSync:
		k.dispatchServerSync(m)
	case types.KindPageRequest:
		// Handled above, before any arrival state is stamped.
	case types.KindMark:
		if mk, err := Decode[Mark](m.Payload); err == nil {
			k.marked.Store(max(k.marked.Load(), mk.N))
			if fn, ok := k.atMark[mk.N]; ok {
				delete(k.atMark, mk.N)
				fn()
			}
		}
	case types.KindInvalid, types.KindHeartbeat:
		// KindInvalid is never transmitted; heartbeats are answered by the
		// failure detector's probe path, not the executive processor.
	}
	// Control traffic is what core's waits watch (§7.10: a kernel's state
	// changes when it dispatches a bus-ordered message).
	k.changed = true
}

// retain returns the heap copy of an arriving message that a system server
// keeps; m itself is dispatchLocked's stack copy and dies with the call. own
// makes the copy deep (private payload and nondet words), for a cluster that
// keeps the message twice.
func retain(m *types.Message, own bool) *types.Message {
	if own {
		return m.Clone()
	}
	c := *m
	return &c
}

// enqueueOwned queues a copy of m at e whose payload and nondet words are
// its own, for a cluster that is both a message's destination and the
// destination's backup: the two copies it keeps are independent. Kept out
// of line so the copy's frame is not dispatchChannelMessage's.
//
//go:noinline
func enqueueOwned(e *routing.Entry, m *types.Message) {
	c := *m
	c.Payload = slices.Clone(m.Payload)
	c.Nondet = slices.Clone(m.Nondet)
	e.Enqueue(&c)
}

// dispatchChannelMessage handles the three §5.1 roles for channel-carried
// messages. m is not retained: every role that keeps it keeps a copy.
func (k *Kernel) dispatchChannelMessage(m *types.Message) {
	// Signals sent without a resolved channel id are bound to the target's
	// signal channel on arrival.
	if m.Kind == types.KindSignal && m.Channel == types.NoChannel {
		if p, ok := k.procs[m.Dst]; ok {
			m.Channel = p.signalCh
		} else if b, ok := k.backups[m.Dst]; ok {
			m.Channel = b.signalCh
		}
	}

	// A sender can route ahead of this cluster's bus order: the directory
	// records a crash before the crash notice is transmitted, so a route
	// built from it names the destination's backup here as its primary
	// while this cluster has yet to promote it. Such a message is saved
	// like any backup copy, and the promotion makes it input.
	ahead := m.Route.Dst == k.id && m.Route.DstBackup != k.id && k.backupOnlyLocked(m.Dst)

	// Role 1: primary destination — queue for reading, wake any waiter.
	if m.Route.Dst == k.id && !ahead {
		if host, ok := k.servers[m.Dst]; ok {
			if host.role == routing.Primary {
				k.metrics.PrimaryDeliveries.Add(1)
				k.logMsg(trace.EvDeliver, m, m.Dst, 0)
				// Count the request now so the next server sync tells the
				// twin to discard its saved copy (§7.9).
				host.requestsHandled[m.Channel]++
				host.servicedCum[m.Channel]++
				host.impl.Receive(k.serverCtx(host), retain(m, false))
			}
		} else {
			if m.Kind == types.KindOpenReply {
				k.adoptOpenReplyLocked(m, routing.Primary)
			}
			if e, ok := k.table.Lookup(m.Channel, m.Dst, routing.Primary); ok && !e.Closed {
				e.Enqueue(m)
				k.metrics.PrimaryDeliveries.Add(1)
				k.logMsg(trace.EvDeliver, m, m.Dst, 0)
				if p, ok := k.procs[m.Dst]; ok {
					p.cond.Broadcast()
				}
			}
		}
	}

	// Role 2: destination's backup — queue and save, wake nothing.
	//
	// If the backup has already been promoted (the destination's old
	// cluster crashed and this cluster took over), the message is an
	// in-flight straggler routed before its sender processed the crash
	// notice: deliver it to the promoted primary instead, and forward a
	// save-only copy to the new backup if one exists. Dropping it would
	// lose a message the failed destination never saw.
	if m.Route.DstBackup == k.id || ahead {
		// If the same cluster plays both roles the two copies it keeps are
		// independent, payload included.
		both := m.Route.Dst == k.id && !ahead
		if host, ok := k.servers[m.Dst]; ok {
			switch {
			case host.role == routing.Backup:
				host.saved = append(host.saved, retain(m, both))
				k.metrics.BackupSaves.Add(1)
				k.logMsg(trace.EvSave, m, m.Dst, 0)
			case !both:
				// Promoted twin: service the straggler as primary.
				k.metrics.PrimaryDeliveries.Add(1)
				k.logMsg(trace.EvDeliver, m, m.Dst, 0)
				host.requestsHandled[m.Channel]++
				host.servicedCum[m.Channel]++
				host.impl.Receive(k.serverCtx(host), retain(m, false))
			}
		} else {
			if m.Kind == types.KindOpenReply {
				k.adoptOpenReplyLocked(m, routing.Backup)
			}
			if e, ok := k.table.Lookup(m.Channel, m.Dst, routing.Backup); ok {
				if both {
					enqueueOwned(e, m)
				} else {
					e.Enqueue(m)
				}
				k.metrics.BackupSaves.Add(1)
				k.logMsg(trace.EvSave, m, m.Dst, 0)
			} else if p, ok := k.procs[m.Dst]; ok && !both {
				if pe, ok := k.table.Lookup(m.Channel, m.Dst, routing.Primary); ok && !pe.Closed {
					pe.Enqueue(m)
					k.metrics.PrimaryDeliveries.Add(1)
					k.logMsg(trace.EvDeliver, m, m.Dst, 0)
					p.cond.Broadcast()
					if p.backupCluster != types.NoCluster {
						fwd := m.Clone()
						fwd.Seq = 0
						fwd.Route = types.Route{
							Dst:       types.NoCluster,
							DstBackup: p.backupCluster,
							SrcBackup: types.NoCluster,
						}
						k.sendLocked(fwd)
					}
				}
			}
		}
	}

	// Role 3: sender's backup — count and discard.
	if m.Route.SrcBackup == k.id {
		e, ok := k.table.Lookup(m.Channel, m.Src, routing.Backup)
		if !ok {
			// Defensive: create the count-holding entry on demand (it
			// normally exists from the open reply or birth notice).
			e = &routing.Entry{
				Channel:            m.Channel,
				Owner:              m.Src,
				Peer:               m.Dst,
				Role:               routing.Backup,
				PeerCluster:        m.Route.Dst,
				PeerBackupCluster:  m.Route.DstBackup,
				OwnerBackupCluster: k.id,
			}
			k.table.Add(e)
		}
		e.Count()
		k.metrics.SenderBackupCounts.Add(1)
		k.logMsg(trace.EvCount, m, m.Src, 0)
		if len(m.Nondet) > 0 {
			k.nondetLogs[m.Src] = append(k.nondetLogs[m.Src], m.Nondet...)
		}
	}
}

// backupOnlyLocked reports whether pid runs here only as a backup: a
// server twin in the backup role, or a user process with a backup PCB and
// no primary.
func (k *Kernel) backupOnlyLocked(pid types.PID) bool {
	if host, ok := k.servers[pid]; ok {
		return host.role == routing.Backup
	}
	_, primary := k.procs[pid]
	return !primary && k.backups[pid] != nil
}

// adoptOpenReplyLocked creates the routing-table entry for the channel a
// successful open reply announces (§7.4.1: "The arrival of an open reply at
// a backup cluster causes the creation of the backup routing table entry";
// the primary cluster creates its entry the same way so that messages from
// the fast-moving peer have a queue before the opener returns from open).
func (k *Kernel) adoptOpenReplyLocked(m *types.Message, role routing.Role) {
	or, err := Decode[OpenReply](m.Payload)
	if err != nil || or.Err != "" || or.Channel == types.NoChannel {
		return
	}
	// The message's route reflects the opener's location when the open was
	// issued. If this cluster was the opener's backup but the opener has
	// since been promoted here (the open raced a crash), the entry must be
	// created with the owner's CURRENT role: a Backup entry would swallow
	// every subsequent peer message into a save queue no one drains, and
	// the promoted primary would block in read forever.
	if role == routing.Backup {
		if _, live := k.procs[m.Dst]; live {
			role = routing.Primary
		}
	}
	if _, ok := k.table.Lookup(or.Channel, m.Dst, role); ok {
		return // already present (recovery replay)
	}
	ownerBackup := types.NoCluster
	if loc, ok := k.dir.Proc(m.Dst); ok {
		ownerBackup = loc.BackupCluster
	}
	peerCluster, peerBackup := k.freshPeerLoc(or)
	k.table.Add(&routing.Entry{
		Channel:            or.Channel,
		Owner:              m.Dst,
		Peer:               or.Peer,
		Role:               role,
		PeerCluster:        peerCluster,
		PeerBackupCluster:  peerBackup,
		OwnerBackupCluster: ownerBackup,
		PeerIsServer:       or.PeerIsServer,
	})
}

// freshPeerLoc resolves the peer location for a routing entry created from
// an open reply. The reply's stamped fields reflect what the rendezvous
// broker knew when the peer registered or dialed — a listener that has
// since been promoted, or re-backed after a repair, leaves those fields
// pointing at its old clusters, and a route built from them deprives the
// current backup of its saved copy (§5.1). The shared directory is the
// process server's always-current knowledge (§7.6), so it wins whenever it
// knows the peer; the stamps remain as the fallback for peers it no longer
// tracks.
func (k *Kernel) freshPeerLoc(or *OpenReply) (peer, backup types.ClusterID) {
	if or.PeerIsServer {
		if loc, ok := k.dir.Service(or.Peer); ok {
			return loc.Primary, loc.Backup
		}
	} else if loc, ok := k.dir.Proc(or.Peer); ok {
		return loc.Cluster, loc.BackupCluster
	}
	return or.PeerCluster, or.PeerBackupCluster
}

// dispatchPageRequestLocked serves a recovery page fetch if this cluster
// hosts the page server primary. The caller holds k.mu, which is released
// around the page-account read: that is a synchronous read-back RPC against
// the page store, and holding k.mu across a cross-component blocking call is
// the deadlock shape aurolint's AURO004 forbids. The receive loop is single-
// threaded, so serving the request in place preserves arrival order.
func (k *Kernel) dispatchPageRequestLocked(m *types.Message) {
	pager := k.pager
	if m.Route.Dst != k.id || pager == nil || k.crashed || k.stopped {
		return
	}
	pr, err := Decode[PageRequest](m.Payload)
	if err != nil {
		return
	}
	k.mu.Unlock()
	pages := pager.HandlePageRequest(pr.PID)
	k.mu.Lock()
	reply := &PageReply{PID: pr.PID, Pages: pages}
	k.sendLocked(&types.Message{
		Kind:    types.KindPageReply,
		Dst:     pr.PID,
		Route:   types.Route{Dst: pr.ReplyTo, DstBackup: types.NoCluster, SrcBackup: types.NoCluster},
		Payload: Encode(reply),
	})
}

// dispatchPageReply hands a restored page account to the promoted process
// waiting on it.
func (k *Kernel) dispatchPageReply(m *types.Message) {
	if m.Route.Dst != k.id {
		return
	}
	pr, err := Decode[PageReply](m.Payload)
	if err != nil {
		return
	}
	p, ok := k.procs[pr.PID]
	if !ok || p.pageWait == nil {
		return
	}
	select {
	//lint:ignore AURO005 intra-cluster handoff to the waiting process goroutine, not interprocess traffic: the pages already crossed the bus as a KindPageReply
	case p.pageWait <- pr.Pages:
	default:
	}
}

// dispatchExitNotice reclaims backup state for an exited process, or marks
// it pending if the fork that created it could still be replayed (§7.7).
func (k *Kernel) dispatchExitNotice(m *types.Message) {
	en, err := Decode[ExitNotice](m.Payload)
	if err != nil {
		return
	}
	if m.Route.Dst == k.id {
		if en.NeverSynced {
			k.metrics.BackupsAvoided.Add(1)
		}
		if en.Parent != types.NoPID {
			if _, parentAlive := k.dir.Proc(en.Parent); parentAlive {
				// Parent may yet replay the fork; retain state until the
				// parent's next sync frees it.
				if b, ok := k.backups[en.PID]; ok {
					b.exitedPending = true
				}
				k.freePIDsLocked(en.FreePIDs)
				return
			}
		}
		k.freePIDsLocked(append([]types.PID{en.PID}, en.FreePIDs...))
	}
	if k.pager != nil && (m.Route.DstBackup == k.id || m.Route.SrcBackup == k.id) {
		if en.Parent == types.NoPID {
			k.pager.HandleFree(append([]types.PID{en.PID}, en.FreePIDs...))
		} else {
			k.pager.HandleFree(en.FreePIDs)
		}
	}
}

// freePIDsLocked drops backup records, birth records, and saved entries for
// the given pids.
func (k *Kernel) freePIDsLocked(pids []types.PID) {
	for _, pid := range pids {
		delete(k.backups, pid)
		delete(k.nondetLogs, pid)
		k.table.RemoveOwnedBy(pid, routing.Backup)
		for parent, list := range k.births {
			kept := list[:0]
			for _, bn := range list {
				if bn.Child != pid {
					kept = append(kept, bn)
				}
			}
			if len(kept) == 0 {
				delete(k.births, parent)
			} else {
				k.births[parent] = kept
			}
		}
	}
}

// dispatchServerSync applies a peripheral server's explicit sync at its
// backup twin (§7.9): update internal state, discard saved requests already
// serviced by the primary, and zero the writes-since-sync counts used for
// reply suppression.
func (k *Kernel) dispatchServerSync(m *types.Message) {
	if m.Route.Dst != k.id {
		return
	}
	ss, err := Decode[ServerSyncMsg](m.Payload)
	if err != nil {
		return
	}
	host, ok := k.servers[ss.PID]
	if !ok || host.role != routing.Backup {
		return
	}
	host.impl.ApplySync(ss.Blob)
	// Discard already-serviced saved requests, per channel, oldest first.
	for ch, n := range ss.Discards {
		kept := host.saved[:0]
		for _, sm := range host.saved {
			if n > 0 && sm.Channel == ch {
				n--
				host.discardedCum[ch]++
				k.metrics.MessagesDiscarded.Add(1)
				continue
			}
			kept = append(kept, sm)
		}
		host.saved = kept
	}
	// Zero this server's send counts (same rule as user sync, §5.2).
	for _, e := range k.table.OwnedBy(ss.PID, routing.Backup) {
		e.Applied(0, 0)
	}
}

// waitLocked blocks the calling process goroutine on its condition
// variable until pred returns true or the process/cluster dies. Returns
// an error when interrupted.
func (k *Kernel) waitLocked(p *PCB, pred func() bool) error {
	for {
		done := pred()
		if p.crashed || k.crashed {
			return types.ErrCrashed
		}
		if k.stopped {
			return types.ErrShutdown
		}
		if k.degraded {
			return types.ErrTooManyFailures
		}
		if done {
			return nil
		}
		k.blockLocked(p)
	}
}

// nowNanos is the kernel's local clock. It is environmental state (§7.5):
// only servers may expose it to user processes, via message. The reading
// comes from the injected types.Clock, so a seeded simulation replays the
// same timestamps.
func (k *Kernel) nowNanos() int64 { return k.clock.Now() }
