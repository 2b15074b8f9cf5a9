// Package trace is the observability substrate of the reproduction. It has
// two halves:
//
//   - Metrics: system-wide counters (bus transmissions, per-role deliveries,
//     pages copied, syncs, recovery latency) reported by every component into
//     one shared instance, safe for concurrent use.
//   - EventLog: a fixed-capacity ring buffer of structured, typed events —
//     one per bus transmission, per-cluster receive, three-way routing
//     decision, sync phase, crash notice, roll-forward replay step, and
//     suppression decrement — each carrying the monotonic message ID minted
//     by the bus, so the causal history of a crash/recovery run can be
//     reconstructed after the fact (RenderTimeline).
//
// A nil *EventLog is valid and records nothing; the disabled path performs
// no allocations, so hot paths may log unconditionally.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"auragen/internal/types"
)

// Metrics aggregates system-wide counters. The zero value is ready to use.
// A single Metrics instance is shared by every cluster of one system so
// that experiments see whole-system totals.
type Metrics struct {
	// BusTransmissions counts messages transmitted over the intercluster
	// bus (each multicast counts once, per §8.1: "transmitted just once").
	BusTransmissions atomic.Uint64
	// BusDeliveries counts per-cluster deliveries (a three-way message
	// adds up to three).
	BusDeliveries atomic.Uint64
	// BusBytes counts payload bytes transmitted (once per multicast).
	BusBytes atomic.Uint64
	// BusBatches counts batched bus acquisitions (BroadcastBatch calls):
	// the ordering critical section is taken once per batch, however many
	// messages ride it.
	BusBatches atomic.Uint64
	// BusBatchedMessages counts messages transmitted via BroadcastBatch;
	// BusBatchedMessages/BusBatches is the achieved mean batch size.
	BusBatchedMessages atomic.Uint64
	// InboxPeak is the high-watermark queue depth observed across every
	// cluster inbox. Inboxes are unbounded (pushes inside the bus critical
	// section must not block), so this gauge is the backpressure signal:
	// a consumer falling behind shows up here long before memory does.
	InboxPeak atomic.Uint64

	// PrimaryDeliveries counts messages enqueued for primary destinations.
	PrimaryDeliveries atomic.Uint64
	// BackupSaves counts messages saved for destination backups.
	BackupSaves atomic.Uint64
	// SenderBackupCounts counts messages discarded at the sender's backup
	// after incrementing the writes-since-sync count.
	SenderBackupCounts atomic.Uint64

	// Syncs counts completed user-process synchronizations.
	Syncs atomic.Uint64
	// SyncForced counts syncs forced by asynchronous signal delivery.
	SyncForced atomic.Uint64
	// PagesOut counts pages sent to the page server at sync.
	PagesOut atomic.Uint64
	// PageBytes counts page payload bytes sent to the page server.
	PageBytes atomic.Uint64
	// MessagesDiscarded counts saved backup messages discarded on sync.
	MessagesDiscarded atomic.Uint64

	// BackupsCreated counts backup process control blocks created.
	BackupsCreated atomic.Uint64
	// BirthNotices counts fork birth notices sent.
	BirthNotices atomic.Uint64
	// BackupsAvoided counts processes that exited before ever needing a
	// backup (the §7.7 deferred-creation win).
	BackupsAvoided atomic.Uint64

	// Recoveries counts backup processes made runnable after a crash.
	Recoveries atomic.Uint64
	// ReplayedMessages counts saved messages re-read during roll-forward.
	ReplayedMessages atomic.Uint64
	// SuppressedSends counts sends suppressed by writes-since-sync counts
	// during roll-forward (§5.4).
	SuppressedSends atomic.Uint64
	// PagesFetched counts pages restored from backup page accounts.
	PagesFetched atomic.Uint64

	// RecoveryNanos accumulates wall-clock recovery time (crash notice
	// processed to all backups runnable), summed over crashes.
	RecoveryNanos atomic.Int64
	// Crashes counts cluster crashes handled.
	Crashes atomic.Uint64

	// BusFailovers counts transmissions routed over the secondary physical
	// bus because the preferred bus was failed (§7.1 dual-bus redundancy).
	BusFailovers atomic.Uint64
	// BusRetries counts per-transmission retry attempts after a transient
	// transmission fault.
	BusRetries atomic.Uint64
	// BusFaultDrops counts transmissions dropped by an injected transient
	// fault (each drop is recovered by the retry path or surfaces as an
	// error to the sender).
	BusFaultDrops atomic.Uint64

	// PartitionDrops counts per-target deliveries silently discarded by a
	// partition link mask — unlike BusFaultDrops these are never retried;
	// a partition lies to the sender.
	PartitionDrops atomic.Uint64
	// CorruptFrameDrops counts transmissions whose frame failed fail-closed
	// decoding after an injected corruption and were dropped (the
	// Byzantine→omission conversion: a flipped byte becomes a lost
	// message, never a delivered lie).
	CorruptFrameDrops atomic.Uint64
	// DupDeliveriesSuppressed counts inbound copies discarded by receiver
	// dedup because their bus-minted message ID was already delivered to
	// that cluster.
	DupDeliveriesSuppressed atomic.Uint64
	// FencedRejects counts inbound messages rejected because they carried
	// a stale incarnation for their origin cluster.
	FencedRejects atomic.Uint64
	// StepDowns counts primaries demoted or killed by a superseded kernel
	// fencing itself after learning of a higher incarnation.
	StepDowns atomic.Uint64
}

// AddRecovery records one crash-to-runnable recovery duration (one per
// promoted process). Crashes is incremented separately by the failure
// detector, once per cluster failure.
func (m *Metrics) AddRecovery(d time.Duration) {
	m.RecoveryNanos.Add(int64(d))
}

// MaxInboxPeak raises the InboxPeak watermark to n if n exceeds it
// (lock-free monotone max).
func (m *Metrics) MaxInboxPeak(n uint64) {
	for {
		cur := m.InboxPeak.Load()
		if n <= cur || m.InboxPeak.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Snapshot is a point-in-time copy of every counter, keyed by name.
type Snapshot map[string]uint64

// Snapshot captures the current counter values.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		"bus_transmissions":         m.BusTransmissions.Load(),
		"bus_deliveries":            m.BusDeliveries.Load(),
		"bus_bytes":                 m.BusBytes.Load(),
		"bus_batches":               m.BusBatches.Load(),
		"bus_batched_messages":      m.BusBatchedMessages.Load(),
		"inbox_peak":                m.InboxPeak.Load(),
		"primary_deliveries":        m.PrimaryDeliveries.Load(),
		"backup_saves":              m.BackupSaves.Load(),
		"sender_backup_counts":      m.SenderBackupCounts.Load(),
		"syncs":                     m.Syncs.Load(),
		"sync_forced":               m.SyncForced.Load(),
		"pages_out":                 m.PagesOut.Load(),
		"page_bytes":                m.PageBytes.Load(),
		"messages_discarded":        m.MessagesDiscarded.Load(),
		"backups_created":           m.BackupsCreated.Load(),
		"birth_notices":             m.BirthNotices.Load(),
		"backups_avoided":           m.BackupsAvoided.Load(),
		"recoveries":                m.Recoveries.Load(),
		"replayed_messages":         m.ReplayedMessages.Load(),
		"suppressed_sends":          m.SuppressedSends.Load(),
		"pages_fetched":             m.PagesFetched.Load(),
		"recovery_nanos":            uint64(m.RecoveryNanos.Load()),
		"crashes":                   m.Crashes.Load(),
		"bus_failovers":             m.BusFailovers.Load(),
		"bus_retries":               m.BusRetries.Load(),
		"bus_fault_drops":           m.BusFaultDrops.Load(),
		"partition_drops":           m.PartitionDrops.Load(),
		"corrupt_frame_drops":       m.CorruptFrameDrops.Load(),
		"dup_deliveries_suppressed": m.DupDeliveriesSuppressed.Load(),
		"fenced_rejects":            m.FencedRejects.Load(),
		"step_downs":                m.StepDowns.Load(),
	}
}

// Delta returns after-minus-before for every counter.
func (s Snapshot) Delta(before Snapshot) Snapshot {
	out := make(Snapshot, len(s))
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// String renders the snapshot with stable key order, one counter per line.
func (s Snapshot) String() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%-22s %d\n", k, s[k])
	}
	return b.String()
}

// EventKind labels entries in an EventLog.
type EventKind uint8

const (
	// EvNone is the zero value; never recorded.
	EvNone EventKind = iota
	// EvTransmit records the bus accepting one multicast: the message ID is
	// minted here, once per transmission regardless of fan-out (§8.1). Arg
	// carries the FNV-1a hash of the payload, so replayed regenerations of
	// the same message can be paired with the original transmission.
	EvTransmit
	// EvReceive records the bus appending one copy to a cluster's inbound
	// queue. Per-cluster EvReceive order is the §5.1 total-order guarantee.
	EvReceive
	// EvDeliver records a message delivered to its primary destination
	// (routing role 1 of §5.1).
	EvDeliver
	// EvSave records a message saved for the destination's backup (role 2).
	EvSave
	// EvCount records a writes-since-sync count incremented at the sender's
	// backup, with the message discarded (role 3).
	EvCount
	// EvSync records a primary enqueueing its sync message (§7.8). Arg is
	// the new epoch.
	EvSync
	// EvSyncApply records the backup's kernel applying a sync message. Arg
	// is the applied epoch.
	EvSyncApply
	// EvCrash records a kernel processing a crash notice (or injecting a
	// single-process crash). Arg is the crashed cluster.
	EvCrash
	// EvRecover records a backup promoted to a runnable primary. Arg is the
	// epoch the backup restarts from.
	EvRecover
	// EvReplay records one saved message queued for re-reading during
	// roll-forward (§6): the promoted backup will consume it in original
	// arrival order.
	EvReplay
	// EvSuppress records a send suppressed during roll-forward by a
	// writes-since-sync count (§5.4). Arg carries the FNV-1a hash of the
	// payload that was not re-sent; it pairs with the EvTransmit of the
	// original send.
	EvSuppress
	// EvPageFetch records the page server serving a backup page account
	// during recovery (§7.10.2). Arg is the number of pages returned.
	EvPageFetch
	// EvRepair records a cluster's repair/re-integration lifecycle advancing
	// one phase (§7.3 re-backup; see core.Repair). Cluster is the cluster
	// under repair; Arg is the types.RepairPhase entered.
	EvRepair
	// EvFence records a kernel rejecting an inbound message stamped with a
	// stale incarnation for its origin cluster, or a kernel beginning to
	// fence itself after learning its own incarnation was superseded.
	// Cluster is the rejecting kernel; Arg is the stale incarnation seen.
	EvFence
	// EvStepDown records a superseded primary demoted or killed by its own
	// kernel's self-fencing path after a wrongful promotion elsewhere. PID
	// is the demoted primary; Arg is the superseding incarnation learned.
	EvStepDown
	// EvNote is a freeform annotation for rare conditions (bus failure,
	// guest software fault); the detail lives in Note.
	EvNote
)

// Matches reports whether e is of kind k. As a method value it is the
// trip predicate for "the Nth event of this kind": log.Trip(EvDeliver.Matches, n).
func (k EventKind) Matches(e Event) bool { return e.Kind == k }

func (k EventKind) String() string {
	switch k {
	case EvTransmit:
		return "transmit"
	case EvReceive:
		return "receive"
	case EvDeliver:
		return "deliver"
	case EvSave:
		return "save"
	case EvCount:
		return "count"
	case EvSync:
		return "sync"
	case EvSyncApply:
		return "sync-apply"
	case EvCrash:
		return "crash"
	case EvRecover:
		return "recover"
	case EvReplay:
		return "replay"
	case EvSuppress:
		return "suppress"
	case EvPageFetch:
		return "page-fetch"
	case EvRepair:
		return "repair"
	case EvFence:
		return "fence"
	case EvStepDown:
		return "step-down"
	case EvNote:
		return "note"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one entry in an EventLog. Hot-path events carry only scalar
// fields so that recording never allocates; Note is reserved for rare
// annotation events.
type Event struct {
	// Seq is the event's position in the log's total append order,
	// assigned by Append. It keeps counting across ring overflow, so gaps
	// at the front of Events() reveal how much history was dropped.
	Seq uint64
	// When is the wall-clock append time in UnixNano, assigned by Append
	// when zero.
	When int64
	Kind EventKind
	// Cluster is the reporting cluster: the receiving cluster for
	// EvReceive and kernel events, NoCluster for bus-level EvTransmit.
	Cluster types.ClusterID
	// MsgID is the bus-minted monotonic message ID (0: not message-scoped).
	// Every per-cluster copy of one transmission shares the same MsgID.
	MsgID uint64
	// MsgKind is the kind of the message the event concerns.
	MsgKind types.Kind
	// PID is the process the event concerns (destination for delivery and
	// save, sender for count and suppress, synced/promoted process for
	// sync/recover).
	PID types.PID
	// Channel is the channel the message rode, when applicable.
	Channel types.ChannelID
	// Arg is a kind-specific scalar; see the EventKind docs.
	Arg uint64
	// Note is a short human-readable annotation for EvNote and error paths.
	Note string
}

// DefaultEventLogCap is the ring capacity used when NewEventLog is given a
// non-positive capacity.
const DefaultEventLogCap = 8192

// EventLog is a fixed-capacity, lock-cheap ring buffer of structured
// events, used by tests, the timeline renderer, and the scenario runner
// for post-mortem inspection. On overflow the newest events are kept and a
// dropped-events counter advances. A nil *EventLog is valid and records
// nothing — the disabled path does no work and no allocations — so hot
// paths can log unconditionally.
type EventLog struct {
	mu   sync.Mutex
	ring []Event
	// next is the total number of events ever appended; next-len(ring)
	// (when positive) is the number dropped to overflow.
	next uint64
	// clock stamps events whose When is zero. WallClock by default;
	// SetClock substitutes a deterministic source so same-seed runs
	// produce byte-identical timelines.
	clock types.Clock
	// observer, when set, sees every appended event after Seq/When
	// assignment. It runs under the log's mutex, so appends stay totally
	// ordered through it; see SetObserver for the contract.
	observer func(Event)
	// trips are the armed tripwires, in arming order; see Trip.
	trips []*Trip
}

// NewEventLog returns a log whose ring retains the newest capacity events.
// capacity <= 0 selects DefaultEventLogCap.
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventLogCap
	}
	return &EventLog{ring: make([]Event, capacity), clock: types.WallClock{}}
}

// SetClock replaces the timestamp source for events appended with a zero
// When. Call before the system starts appending; safe on nil (no-op).
func (l *EventLog) SetClock(c types.Clock) {
	if l == nil || c == nil {
		return
	}
	l.mu.Lock()
	l.clock = c
	l.mu.Unlock()
}

// SetObserver installs fn to be called synchronously, under the log's
// mutex, for every subsequent Append: the stream tap that tests and the
// benchmark's tracer read the run through. Because fn runs inside Append,
// which components call while holding their own locks, fn must be fast,
// must never wait on anything that takes a lock, and must not call back
// into the log or into the system being observed. Pass nil to remove the
// observer. Safe on a nil receiver (no-op).
func (l *EventLog) SetObserver(fn func(Event)) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.observer = fn
	l.mu.Unlock()
}

// Append records one event, assigning its Seq (and When, if zero). Safe on
// a nil receiver; never allocates when no observer is installed.
func (l *EventLog) Append(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if e.When == 0 {
		e.When = l.clock.Now()
	}
	e.Seq = l.next
	l.ring[l.next%uint64(len(l.ring))] = e
	l.next++
	if l.observer != nil {
		l.observer(e)
	}
	if len(l.trips) > 0 {
		l.tripLocked(e)
	}
	l.mu.Unlock()
}

// Trip states.
const (
	tripArmed int32 = iota
	tripFired
	tripDisarmed
)

// Trip is a tripwire on an EventLog: the event stream is the fault
// injector's coordinate system, and a trip names one coordinate, "the Kth
// appended event that match accepts". At that Append the trip records the
// event, closes its fired channel, and holds the Append, under the log's
// mutex, until its owner takes the trip with Wait or disarms it. The hold
// is the hand-off: the owner's goroutine is awake before the run appends
// another event, so goroutines passing the processor among themselves
// cannot keep it waiting while the run moves past the moment the trip
// names. The owner must therefore take the trip without waiting on a lock
// or on the log.
type Trip struct {
	match func(Event) bool
	left  int          // matches still to count; guarded by the log's mutex
	state atomic.Int32 // tripArmed, then tripFired or tripDisarmed
	ev    Event        // the firing event, written before fired closes
	fired chan struct{}
	// done is closed once, by Wait or Disarm: it frees the held Append and
	// wakes a Wait whose trip was disarmed unfired.
	done     chan struct{}
	doneOnce sync.Once
}

// Trip arms a tripwire that fires at the kth appended event match accepts
// (k <= 0 counts as 1). match runs under the log's mutex, with the same
// restrictions as an observer. On a nil log the trip never fires.
func (l *EventLog) Trip(match func(Event) bool, k int) *Trip {
	t := &Trip{match: match, left: max(k, 1), fired: make(chan struct{}), done: make(chan struct{})}
	if l != nil {
		l.mu.Lock()
		l.trips = append(l.trips, t)
		l.mu.Unlock()
	}
	return t
}

// tripLocked counts e against every armed trip, fires the one whose count
// runs out and holds until its owner takes it, and drops spent trips.
func (l *EventLog) tripLocked(e Event) {
	armed := l.trips[:0]
	for _, t := range l.trips {
		if t.state.Load() != tripArmed {
			continue
		}
		if !t.match(e) {
			armed = append(armed, t)
			continue
		}
		if t.left--; t.left > 0 {
			armed = append(armed, t)
		} else if t.state.CompareAndSwap(tripArmed, tripFired) {
			t.ev = e
			close(t.fired)
			<-t.done
		}
	}
	clear(l.trips[len(armed):])
	l.trips = armed
}

// Wait blocks until the trip fires or is disarmed. If it fired, Wait takes
// it, releasing the held Append, and returns the firing event and true;
// a trip disarmed unfired returns false.
func (t *Trip) Wait() (Event, bool) {
	select {
	case <-t.fired:
	case <-t.done:
		if t.state.Load() != tripFired {
			return Event{}, false
		}
		<-t.fired
	}
	t.doneOnce.Do(func() { close(t.done) })
	return t.ev, true
}

// Disarm stops the trip and reports whether it had fired. A trip disarmed
// unfired never fires; one that fired is released if still held, and its
// Wait still returns the firing event.
func (t *Trip) Disarm() (fired bool) {
	fired = !t.state.CompareAndSwap(tripArmed, tripDisarmed)
	t.doneOnce.Do(func() { close(t.done) })
	return fired
}

// Add appends a bare annotation event (kind + note). Safe on nil.
func (l *EventLog) Add(kind EventKind, note string) {
	l.Append(Event{Kind: kind, Note: note})
}

// Events returns a copy of the retained events in append order (oldest
// retained first). Nil receiver returns nil.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	capacity := uint64(len(l.ring))
	if n > capacity {
		n = capacity
	}
	out := make([]Event, 0, n)
	for i := l.next - n; i < l.next; i++ {
		out = append(out, l.ring[i%capacity])
	}
	return out
}

// Len returns the number of retained events.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.next > uint64(len(l.ring)) {
		return len(l.ring)
	}
	return int(l.next)
}

// Cap returns the ring capacity.
func (l *EventLog) Cap() int {
	if l == nil {
		return 0
	}
	return len(l.ring)
}

// Dropped returns the number of events lost to ring overflow.
func (l *EventLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if capacity := uint64(len(l.ring)); l.next > capacity {
		return l.next - capacity
	}
	return 0
}

// Count returns the number of retained events of the given kind.
func (l *EventLog) Count(kind EventKind) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if capacity := uint64(len(l.ring)); n > capacity {
		n = capacity
	}
	c := 0
	for i := uint64(0); i < n; i++ {
		if l.ring[i].Kind == kind {
			c++
		}
	}
	return c
}

// HashPayload is FNV-1a 64 over b. EvTransmit and EvSuppress events carry
// it in Arg so a suppressed regeneration can be paired with the original
// transmission of the same content. Never allocates.
func HashPayload(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// RenderTimeline renders events (as returned by Events) as an ordered
// causal timeline, one line per event, with times relative to the first
// rendered event. Used by `aurosim -timeline` for crash post-mortems.
func RenderTimeline(events []Event) string {
	var b strings.Builder
	if len(events) == 0 {
		b.WriteString("(no events recorded)\n")
		return b.String()
	}
	base := events[0].When
	fmt.Fprintf(&b, "%8s %12s  %-14s %-10s  %s\n", "seq", "t(+ms)", "cluster", "event", "detail")
	for _, e := range events {
		fmt.Fprintf(&b, "%8d %12.3f  %-14s %-10s  %s\n",
			e.Seq, float64(e.When-base)/1e6, clusterLabel(e), e.Kind, e.Detail())
	}
	return b.String()
}

func clusterLabel(e Event) string {
	if e.Kind == EvTransmit || e.Cluster == types.NoCluster {
		return "bus"
	}
	return e.Cluster.String()
}

// Detail renders the kind-specific fields of an event in a compact
// human-readable form (the right-hand column of RenderTimeline).
func (e Event) Detail() string {
	var parts []string
	if e.MsgID != 0 {
		parts = append(parts, fmt.Sprintf("msg#%d", e.MsgID))
	}
	if e.MsgKind != types.KindInvalid {
		parts = append(parts, e.MsgKind.String())
	}
	if e.PID != types.NoPID {
		parts = append(parts, e.PID.String())
	}
	if e.Channel != types.NoChannel {
		parts = append(parts, e.Channel.String())
	}
	switch e.Kind {
	case EvTransmit, EvSuppress:
		if e.Arg != 0 {
			parts = append(parts, fmt.Sprintf("hash=%016x", e.Arg))
		}
	case EvSync, EvSyncApply, EvRecover:
		parts = append(parts, fmt.Sprintf("epoch=%d", e.Arg))
	case EvCrash:
		parts = append(parts, fmt.Sprintf("crashed=%s", types.ClusterID(e.Arg)))
	case EvPageFetch:
		parts = append(parts, fmt.Sprintf("pages=%d", e.Arg))
	case EvRepair:
		parts = append(parts, fmt.Sprintf("phase=%s", types.RepairPhase(e.Arg)))
	case EvFence, EvStepDown:
		parts = append(parts, fmt.Sprintf("inc=%d", e.Arg))
	default:
		// The remaining kinds carry no kind-specific argument.
	}
	if e.Note != "" {
		parts = append(parts, e.Note)
	}
	return strings.Join(parts, " ")
}
