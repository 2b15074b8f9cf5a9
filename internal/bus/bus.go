// Package bus simulates the Auragen dual high-speed intercluster bus
// (§7.1) and the two delivery guarantees the message system is built on
// (§5.1):
//
//  1. Atomicity — either every target cluster of a transmission receives
//     the message, or none does.
//  2. No interleaving — a cluster transmits or receives one message at a
//     time, so if two messages are sent, one reaches all of its
//     destinations before the other arrives at any of its destinations. A
//     primary and its backup therefore observe their common messages in
//     the same order.
//
// The hardware achieved this with a low-level listen-before-transmit
// protocol; here a single critical section appends the message to every
// live target cluster's inbound queue, which yields exactly the same
// ordering properties. Each transmission is counted once regardless of the
// number of destinations, matching §8.1 ("transmitted just once across the
// intercluster bus").
//
// There is one way onto the bus, BroadcastBatch (a lone message is a batch
// of one), and one way off it, Inbox.PopAll. The lossy-wire fault model —
// transient drops, link cuts, duplicated, corrupted and delayed frames —
// lives beside that path in lossy.go, behind a pointer that stays nil on a
// bus nobody ever armed a fault on.
//
// The bus is dual: either of the two physical buses suffices, and the loss
// of one is a tolerated single failure. Losing both is a multiple failure
// and BroadcastBatch reports types.ErrTooManyFailures.
package bus

import (
	"fmt"
	"sort"
	"sync"

	"auragen/internal/trace"
	"auragen/internal/types"
)

// NumBuses is the number of redundant physical buses (the Auragen 4000 has
// a dual bus).
const NumBuses = 2

// Bus connects 2..32 clusters. All methods are safe for concurrent use.
type Bus struct {
	metrics *trace.Metrics
	log     *trace.EventLog

	mu     sync.Mutex
	failed [NumBuses]bool
	// nextID mints the monotonic per-transmission message ID under mu, so
	// IDs are assigned in the bus's total transmission order.
	nextID uint64
	// ports holds the attached clusters sorted by cluster id: a linear scan
	// over a handful of clusters beats a map lookup per message per target.
	ports []*busPort
	// wire is the lossy-wire fault model (lossy.go). It stays nil until a
	// fault setter is first called, so a bus that never armed a fault reads
	// no fault state at all on its send path.
	wire *lossyWire
}

// busPort is one attached cluster. locked is scratch state of the batch in
// flight (guarded by b.mu): BroadcastBatch holds in.mu, taken at the first
// message it staged here, and owes the port a signal and an unlock.
type busPort struct {
	c      types.ClusterID
	in     *Inbox
	locked bool
}

// New returns an empty bus reporting into the given shared metrics sink.
// metrics must not be nil: a silently substituted private sink would split
// the system's counters across invisible instances (assemble one with
// core.NewObservability). log may be nil to disable event recording; the
// disabled path does no work.
func New(metrics *trace.Metrics, log *trace.EventLog) *Bus {
	if metrics == nil {
		panic("bus: nil *trace.Metrics; use a shared sink (see core.NewObservability)")
	}
	return &Bus{metrics: metrics, log: log}
}

// Attach registers a cluster and returns its inbound queue. Attaching an
// already-attached cluster replaces its inbox (used when a cluster returns
// to service after repair, §7.3 halfbacks).
func (b *Bus) Attach(c types.ClusterID) *Inbox {
	b.mu.Lock()
	defer b.mu.Unlock()
	in := newInbox()
	if p := b.portLocked(c); p != nil {
		p.in.close()
		p.in = in
		return in
	}
	b.ports = append(b.ports, &busPort{c: c, in: in})
	sort.Slice(b.ports, func(i, j int) bool { return b.ports[i].c < b.ports[j].c })
	return in
}

// portLocked returns the port for cluster c, or nil if c is not attached.
func (b *Bus) portLocked(c types.ClusterID) *busPort {
	for _, p := range b.ports {
		if p.c == c {
			return p
		}
	}
	return nil
}

// Detach removes a crashed cluster. Its inbox is closed; in-flight messages
// already appended are discarded with it, exactly as a powered-off cluster
// loses its receive buffers.
func (b *Bus) Detach(c types.ClusterID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, p := range b.ports {
		if p.c == c {
			p.in.close()
			b.ports = append(b.ports[:i], b.ports[i+1:]...)
			return
		}
	}
}

// FailBus marks one of the redundant physical buses failed (0-based).
// Returns an error if i is out of range.
func (b *Bus) FailBus(i int) error {
	if i < 0 || i >= NumBuses {
		return fmt.Errorf("bus: no bus %d", i)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed[i] = true
	return nil
}

// RepairBus returns a failed physical bus to service.
func (b *Bus) RepairBus(i int) error {
	if i < 0 || i >= NumBuses {
		return fmt.Errorf("bus: no bus %d", i)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed[i] = false
	return nil
}

// Reachable reports whether any healthy physical bus still carries
// traffic toward c. The failure detector's probes ride the same wire as
// everything else, so a cluster with every inbound path cut or failed
// stops answering probes — indistinguishable, from outside, from a crash.
// That is precisely the partition dilemma §7.10's polling cannot solve,
// and why declarations bump incarnations instead of assuming the silent
// cluster is really dead.
func (b *Bus) Reachable(c types.ClusterID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := 0; i < NumBuses; i++ {
		if !b.failed[i] && (b.wire == nil || !b.wire.cut[linkEnd{bus: i, c: c}]) {
			return true
		}
	}
	return false
}

// Live returns the attached clusters in ascending order.
func (b *Bus) Live() []types.ClusterID {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]types.ClusterID, len(b.ports))
	for i, p := range b.ports {
		out[i] = p.c
	}
	return out
}

// IsLive reports whether cluster c is attached.
func (b *Bus) IsLive(c types.ClusterID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.portLocked(c) != nil
}

// offerLocked runs the physical-transmission half of one message: pick a
// healthy bus, let a lossy wire lose and retry attempts (within the same
// critical section, preserving the total order), mint the message ID, and
// record the transmit event. The loss of one bus is a tolerated single
// failure: traffic fails over to the survivor (counted once per
// transmission) and the caller never notices. Losing both is a multiple
// failure. Returns the physical bus chosen.
func (b *Bus) offerLocked(m *types.Message, w *lossyWire) (int, error) {
	if m.Lazy != nil {
		// The executive resolves deferred payloads before the bus accepts
		// the message; the transmit event below hashes the bytes.
		panic("bus: message reached the bus with an unresolved lazy payload")
	}
	idx := 0
	for idx < NumBuses && b.failed[idx] {
		idx++
	}
	if idx == NumBuses {
		return -1, fmt.Errorf("bus: both physical buses down: %w", types.ErrTooManyFailures)
	}
	if idx > 0 {
		b.metrics.BusFailovers.Add(1)
	}
	if w != nil {
		if err := w.attemptLocked(idx, m); err != nil {
			return -1, err
		}
	}
	b.nextID++
	m.ID = b.nextID
	if b.log != nil {
		b.log.Append(trace.Event{
			Kind:    trace.EvTransmit,
			Cluster: types.NoCluster,
			MsgID:   m.ID,
			MsgKind: m.Kind,
			PID:     m.Src,
			Channel: m.Channel,
			Arg:     trace.HashPayload(m.Payload),
		})
	}
	return idx, nil
}

// globalKind reports whether a message kind is a membership-level event
// that every live cluster must observe at the same point in the total
// message order (§7.10.1), whatever its Route says — or core's mark, the
// barrier whose whole point is that position.
func globalKind(k types.Kind) bool {
	return k == types.KindBackupUp || k == types.KindCrashNotice || k == types.KindMark
}

// targetsLocked resolves one message's delivery targets to attached ports:
// every port for a membership-level kind, else the distinct live clusters
// of m.Route appended to dst. Crashed (detached) targets are skipped: a
// message to a dead cluster is simply not received there, while the
// remaining targets still receive it.
func (b *Bus) targetsLocked(m *types.Message, dst []*busPort) []*busPort {
	if globalKind(m.Kind) {
		return b.ports
	}
	var tbuf [3]types.ClusterID
	for _, c := range m.Route.AppendTargets(tbuf[:0]) {
		if p := b.portLocked(c); p != nil {
			dst = append(dst, p)
		}
	}
	return dst
}

// stageLocked is the bus's one delivery step: it appends `copies` copies of
// the accepted transmission m to port p's receive buffers and records each
// receive. Caller holds b.mu and p.in.mu. An attached port's inbox is never
// closed: Attach and Detach close an inbox only as they take it off its
// port, under b.mu.
func (b *Bus) stageLocked(p *busPort, m *types.Message, copies int) {
	in := p.in
	for i := 0; i < copies; i++ {
		in.q = append(in.q, *m)
		if b.log != nil {
			b.log.Append(trace.Event{
				Kind:    trace.EvReceive,
				Cluster: p.c,
				MsgID:   m.ID,
				MsgKind: m.Kind,
				PID:     m.Dst,
				Channel: m.Channel,
			})
		}
	}
	if len(in.q) > in.peak {
		in.peak = len(in.q)
	}
}

// BroadcastBatch is the only way onto the bus. It transmits msgs, in order,
// inside ONE critical section: the executive acquires the §5.1 ordering
// lock once per batch instead of once per message, which is where batched
// senders win their throughput. Per-message semantics are those of a lone
// transmission — every message gets its own transmission attempts, minted
// ID, transmit event, and per-target delivery to the live clusters of its
// Route (messages of a membership-level kind reach every live cluster, so
// that every kernel sees a crash notice at the same point in the total
// message order, §7.10.1). An inbox is acquired at the first message the
// batch delivers to it and held to the end of the batch; an inbox the batch
// never reaches is never touched. Inboxes are taken in whatever order the
// batch reaches them, which cannot deadlock: every multi-inbox acquisition
// happens under b.mu, so no two of them overlap, a consumer only ever takes
// its own inbox lock, and nothing waits while it holds one. Each delivered
// message value is written exactly once, directly into its target queues —
// no staging list, no second copy at flush.
//
// Message values are written straight into each target's receive buffers,
// and the payload and nondet slices are handed off, not copied: every
// target's value carries the sender's slices. Offering a message therefore
// gives up ownership of its payload and nondet words — the sender must
// never write to them again (the executive's payloads are fresh per
// message, and offerBatch copies a lazily encoded payload out of its
// transmit writer before the offer) — and receivers treat them as read-only.
// Per-target headers (Seq, ID, routing stamps) are independent: each target
// holds its own value, and the sender keeps its *Message headers, which
// nothing delivered aliases. §5.1 says copies are executive work, not bus
// work; here delivery allocates nothing per message.
//
// Returns the number of messages transmitted. On error, msgs[sent:] were
// not transmitted and not delivered anywhere (the batch analogue of
// atomicity: a fault truncates the batch, it never punches holes in it);
// messages before the fault are delivered normally.
func (b *Bus) BroadcastBatch(msgs []*types.Message) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	// The fault model is consulted through this one pointer, at the two
	// points where a wire can interfere: an attempt (inside offerLocked)
	// and the delivery of an accepted frame (below).
	w := b.wire
	sent := 0
	var failure error
	var txBytes, deliveries uint64
	// Consecutive messages in a batch usually share a Route (one sender,
	// one conversation, one backup set), so the route→ports resolution is
	// computed once and reused until the route changes.
	var routeBuf [3]*busPort
	var routed []*busPort
	var routedFor types.Route
	for _, m := range msgs {
		idx, err := b.offerLocked(m, w)
		if err != nil {
			failure = err
			break
		}
		sent++
		txBytes += uint64(len(m.Payload))
		ports := b.ports
		if !globalKind(m.Kind) {
			if routed == nil || m.Route != routedFor {
				routedFor = m.Route
				routed = b.targetsLocked(m, routeBuf[:0])
			}
			ports = routed
		}
		copies := 1
		if w != nil {
			if w.holdLocked(m, idx) {
				continue
			}
			copies = w.copiesLocked()
			ports = w.reachableLocked(idx, m.Origin, ports)
		}
		for _, p := range ports {
			if !p.locked {
				// The receive buffer stays acquired for the rest of the
				// batch. Nothing can close or replace an inbox while b.mu is
				// held, and staging never waits, so a consumer blocks on
				// this lock only while the batch appends.
				p.in.mu.Lock()
				p.locked = true
			}
			b.stageLocked(p, m, copies)
			deliveries += uint64(copies)
		}
	}
	b.metrics.BusBatches.Add(1)
	b.metrics.BusBatchedMessages.Add(uint64(sent))
	b.metrics.BusTransmissions.Add(uint64(sent))
	b.metrics.BusBytes.Add(txBytes)
	b.metrics.BusDeliveries.Add(deliveries)
	// Release the receive buffers the batch took, waking their consumers.
	// Still inside the bus critical section, so no observer can distinguish
	// this from per-message deliveries.
	for _, p := range b.ports {
		if p.locked {
			p.locked = false
			b.metrics.MaxInboxPeak(uint64(p.in.peak))
			p.in.cond.Signal()
			p.in.mu.Unlock()
		}
	}
	if w != nil {
		// Held frames whose release point this batch passed go out now that
		// no receive buffers are held (release takes one inbox lock at a
		// time).
		w.releaseLocked(false)
	}
	return sent, failure
}

// Inbox is a cluster's inbound message queue, drained by the cluster's
// executive processor through PopAll. Deliveries never block (the
// executive keeps pace in the real hardware; here the queue is unbounded
// and the executive goroutine drains it) and the depth high-watermark is
// exported through the shared inbox_peak metric — the backpressure signal
// a production deployment watches.
type Inbox struct {
	mu   sync.Mutex
	cond *sync.Cond // signaled when messages arrive or the inbox closes
	// q stores message VALUES, not pointers: queue slots are the cluster's
	// receive buffers, and PopAll recycles their backing arrays between
	// the bus and the consumer, so steady-state delivery allocates nothing
	// per message.
	q      []types.Message
	peak   int
	closed bool
	// jitter, when non-nil, makes PopAll hand back a random FIFO *prefix*
	// of the queue instead of the whole thing — the schedule perturber's
	// delivery-order hook. A prefix never reorders messages within the
	// inbox, so every partial-order guarantee (per-channel sequencing,
	// §5.1 atomic-broadcast ordering) is preserved; only the interleaving
	// of executive dispatch against bus arrivals changes. Off by default.
	jitter *types.RNG
}

func newInbox() *Inbox {
	in := &Inbox{}
	in.cond = sync.NewCond(&in.mu)
	return in
}

// SetDrainJitter installs (or, with nil, removes) the seeded RNG that
// perturbs PopAll into partial drains. The RNG is owned by the inbox
// afterwards: all draws happen under in.mu, so a shared parent RNG must
// be split before installation (see core.Options.ScheduleSeed).
func (in *Inbox) SetDrainJitter(rng *types.RNG) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.jitter = rng
}

// PopAll is the only way off the bus. It blocks until at least one message
// is available or the inbox is closed, then drains the entire queue in one
// lock acquisition by SWAPPING buffers: the queue's backing array is handed
// to the caller and the caller's previous buffer (buf; nil is fine) becomes
// the new queue, so steady-state draining moves no messages and allocates
// nothing. The caller must therefore be completely done with the previously
// returned slice before passing it back — the executive copies each message
// before handing it to process-level code (see Kernel.dispatchBatch). The
// second result is false once the inbox is closed.
func (in *Inbox) PopAll(buf []types.Message) ([]types.Message, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for len(in.q) == 0 && !in.closed {
		in.cond.Wait()
	}
	if len(in.q) == 0 {
		return buf[:0], false
	}
	if in.jitter != nil && len(in.q) > 1 {
		// Perturbed drain: hand over a random FIFO prefix and keep the
		// tail queued, so the consumer interleaves with later arrivals
		// differently on every (seeded) draw. The three-index slice caps
		// the prefix's capacity at k: when the caller recycles it as the
		// next buf, appends past k reallocate instead of clobbering the
		// still-queued tail sharing the backing array.
		if k := 1 + in.jitter.Intn(len(in.q)); k < len(in.q) {
			ms := in.q[:k:k]
			in.q = in.q[k:]
			in.cond.Signal() // tail still queued: keep the consumer awake
			return ms, true
		}
	}
	ms := in.q
	in.q = buf[:0]
	return ms, true
}

// Backlog returns the number of delivered messages still queued: what the
// consumer has not yet popped.
func (in *Inbox) Backlog() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.q)
}

// close marks the inbox closed, discards what it holds (a powered-off
// cluster loses its receive buffers) and wakes a blocked PopAll. Only
// Attach and Detach call it, under b.mu, as they take the inbox off its
// port.
func (in *Inbox) close() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.closed = true
	in.q = nil
	in.cond.Broadcast()
}
