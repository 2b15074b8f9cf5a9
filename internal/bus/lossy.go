package bus

import (
	"fmt"

	"auragen/internal/trace"
	"auragen/internal/types"
)

// MaxTransmitAttempts bounds how many times one transmission is attempted
// before the bus reports the fault to the sender. The first attempt plus
// retries all happen inside the same critical section, so retried
// transmissions keep their place in the §5.1 total order.
const MaxTransmitAttempts = 3

// FaultHook decides whether an injected transient fault drops one
// transmission attempt. It is consulted once per attempt with the physical
// bus chosen, the message about to be transmitted, and the 0-based attempt
// number; returning true drops that attempt. The hook runs inside the
// bus's critical section: it must be fast, must not block, and must not
// call back into the Bus (FailBus, BroadcastBatch, ...) or it will deadlock.
type FaultHook func(busIdx int, m *types.Message, attempt int) bool

// Corrupter models wire corruption: it takes the message about to be
// delivered and returns what survives the receiver's fail-closed frame
// decoding — nil when the corrupted frame was rejected (the overwhelmingly
// common case, since frames are checksummed), so the transmission becomes
// an omission rather than a delivered lie. Installed by the system facade,
// which owns the frame codec; it runs inside the bus critical section and
// must not call back into the Bus.
type Corrupter func(*types.Message) *types.Message

// lossyWire is the bus's whole fault model beyond the loss of a physical
// bus: what a real interconnect does to frames — drops an attempt, severs
// a cluster's links, delivers twice, damages, delays. Bus.wire points at
// one from the first fault setter call on; every field is guarded by the
// bus mutex. BroadcastBatch consults it at exactly two points: per attempt
// (attemptLocked) and per accepted frame (holdLocked, copiesLocked,
// reachableLocked), each fault family implemented once, here.
type lossyWire struct {
	bus *Bus

	hook FaultHook
	// cut holds the severed link ends of the active partition. Partitions
	// only ever cut whole ends (all of a cluster's inbound or outbound
	// links on one physical bus), never a single cluster pair.
	cut map[linkEnd]bool
	// One-shot armed counts, consumed by subsequent transmissions.
	dupArmed     int
	corruptArmed int
	corrupter    Corrupter
	delayArmed   int
	delayGap     uint64
	held         []heldTx
	holdWatchdog func()
}

// linkEnd names all of cluster c's links in one direction on one physical
// bus: every sender's path to c, or (outbound) c's path to every receiver.
type linkEnd struct {
	bus      int
	c        types.ClusterID
	outbound bool
}

// heldTx is one transmission held back by an armed delay fault: the message
// was transmitted (ID minted, in order) but its deliveries are withheld
// until the bus has minted ID `due` — the bus's reordering primitive. m is
// a private clone, header and payload, so what a held frame finally
// delivers is what was sent, whatever becomes of the sender's message
// meanwhile; targets are resolved at release time against the clusters
// live then.
type heldTx struct {
	m   *types.Message
	idx int // physical bus chosen at transmit time
	due uint64
}

// wireLocked returns the fault model, creating it on first use.
func (b *Bus) wireLocked() *lossyWire {
	if b.wire == nil {
		b.wire = &lossyWire{bus: b}
	}
	return b.wire
}

// SetFaultHook installs (or, with nil, removes) the transient-fault hook
// consulted on every transmission attempt. See FaultHook for the contract.
func (b *Bus) SetFaultHook(h FaultHook) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.wireLocked().hook = h
}

// Cut severs cluster c's links on physical bus i: inbound cuts every
// sender's path to c, outbound cuts c's path to every receiver. Deliveries
// over a cut link are silently discarded — the sender is never told,
// because a partitioned network lies (unlike FailBus, which every sender
// observes as a failover). A delivery is only lost when its link is cut on
// every healthy bus — with one bus cut and the other clear, traffic fails
// over per-target and the dual-bus redundancy absorbs the partition.
func (b *Bus) Cut(i int, c types.ClusterID, inbound, outbound bool) error {
	if i < 0 || i >= NumBuses {
		return fmt.Errorf("bus: no bus %d", i)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	w := b.wireLocked()
	if w.cut == nil {
		w.cut = make(map[linkEnd]bool)
	}
	if inbound {
		w.cut[linkEnd{bus: i, c: c}] = true
	}
	if outbound {
		w.cut[linkEnd{bus: i, c: c, outbound: true}] = true
	}
	return nil
}

// HealAllCuts restores every severed link and releases every transmission
// still held by an armed delay — the "network comes back" coordinate of a
// partition schedule.
func (b *Bus) HealAllCuts() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if w := b.wire; w != nil {
		w.cut = nil
		w.releaseLocked(true)
	}
}

// ArmDuplicates makes the next n transmissions deliver two copies (same
// bus-minted ID) to each target — the wire's at-least-once lie, which
// receiver-side dedup must suppress.
func (b *Bus) ArmDuplicates(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.wireLocked().dupArmed += n
}

// ArmCorrupt makes the next n transmissions pass through the installed
// Corrupter. With no corrupter installed the transmission is simply
// dropped, the degenerate model of a corrupted frame dying in validation.
func (b *Bus) ArmCorrupt(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.wireLocked().corruptArmed += n
}

// SetCorrupter installs (or, with nil, removes) the corruption model
// applied to transmissions armed by ArmCorrupt.
func (b *Bus) SetCorrupter(fn Corrupter) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.wireLocked().corrupter = fn
}

// ArmDelay holds back the next n transmissions, releasing each after gap
// further transmissions have been accepted: deliveries arrive late and out
// of ID order while the §5.1 mint order is preserved. The facade that arms
// the fault should also install a hold watchdog (SetHoldWatchdog) so a
// held critical-path frame cannot deadlock a quiesced system.
func (b *Bus) ArmDelay(n, gap int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	w := b.wireLocked()
	w.delayArmed += n
	if gap < 1 {
		gap = 1
	}
	w.delayGap = uint64(gap)
}

// SetHoldWatchdog installs the hook invoked each time a transmission is
// held by a delay fault. The bus itself is deterministic and keeps no
// timers; the policy layer uses the hook to schedule a real-time
// FlushDelayed so a held frame that starves (the reply its only active
// sender is blocked on) is eventually released. The hook runs under the
// bus mutex and must only schedule — never call back into the Bus
// synchronously.
func (b *Bus) SetHoldWatchdog(fn func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.wireLocked().holdWatchdog = fn
}

// FlushDelayed delivers every transmission still held by a delay fault.
func (b *Bus) FlushDelayed() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.wire != nil {
		b.wire.releaseLocked(true)
	}
}

// attemptLocked runs the link layer's attempt loop for one transmission on
// bus idx: an attempt lost to the transient-fault hook or to a rejected
// corrupt frame is retried in place, so the transmission keeps its slot in
// the total order and mints no ID until an attempt gets through. Exhausting
// the budget is reported to the sender as a multiple failure.
func (w *lossyWire) attemptLocked(idx int, m *types.Message) error {
	for attempt := 0; attempt < MaxTransmitAttempts; attempt++ {
		if w.hook != nil && w.hook(idx, m, attempt) {
			w.bus.metrics.BusFaultDrops.Add(1)
			w.lostLocked(m, attempt, fmt.Sprintf("bus%d: transient fault dropped attempt %d", idx, attempt))
			continue
		}
		// An armed corrupt fault damages this attempt's frame in flight.
		// The fail-closed wire decode (checksummed batches, no partial
		// prefixes) almost surely rejects the damage; the link layer sees
		// the rejection as a failed attempt and retries, exactly like a
		// transient drop. Only a flip the checksum cannot see — the
		// corrupter returning a decodable frame — goes through, and then
		// the decoded bytes are what every target receives.
		if w.corruptArmed > 0 {
			w.corruptArmed--
			var survived *types.Message
			if w.corrupter != nil {
				survived = w.corrupter(m)
			}
			if survived == nil {
				w.bus.metrics.CorruptFrameDrops.Add(1)
				w.lostLocked(m, attempt, fmt.Sprintf("bus%d: corrupted frame rejected by fail-closed decode, attempt %d dropped", idx, attempt))
				continue
			}
			*m = *survived
		}
		return nil
	}
	return fmt.Errorf("bus: transmission dropped %d times: %w",
		MaxTransmitAttempts, types.ErrTooManyFailures)
}

// lostLocked accounts one lost attempt: a retry if the budget allows one,
// and a note in the event log.
func (w *lossyWire) lostLocked(m *types.Message, attempt int, note string) {
	if attempt+1 < MaxTransmitAttempts {
		w.bus.metrics.BusRetries.Add(1)
	}
	if log := w.bus.log; log != nil {
		log.Append(trace.Event{
			Kind:    trace.EvNote,
			Cluster: types.NoCluster,
			MsgKind: m.Kind,
			PID:     m.Src,
			Note:    note,
		})
	}
}

// holdLocked consumes an armed delay for the just-accepted transmission m:
// true means the frame is now held and must not be delivered yet. The
// sender never learns — wire delays are silent by construction.
func (w *lossyWire) holdLocked(m *types.Message, idx int) bool {
	if w.delayArmed == 0 {
		return false
	}
	w.delayArmed--
	w.held = append(w.held, heldTx{m: m.Clone(), idx: idx, due: w.bus.nextID + w.delayGap})
	// Per-frame watchdog: the hold may happen long after ArmDelay (the
	// armed count is consumed by later transmissions), and the held frame
	// may be the very reply the system's only active sender is blocked on —
	// in which case no further traffic will ever reach the release point.
	// The hook only schedules; safe under b.mu.
	if w.holdWatchdog != nil {
		w.holdWatchdog()
	}
	return true
}

// copiesLocked consumes an armed duplicate: how many copies of the next
// delivered transmission each target receives.
func (w *lossyWire) copiesLocked() int {
	if w.dupArmed == 0 {
		return 1
	}
	w.dupArmed--
	return 2
}

// cutLocked reports whether the link from→to is severed on bus i.
func (w *lossyWire) cutLocked(i int, from, to types.ClusterID) bool {
	return w.cut[linkEnd{bus: i, c: to}] || w.cut[linkEnd{bus: i, c: from, outbound: true}]
}

// maskedLocked decides one target's fate under the active partition: false
// means deliver (possibly after a per-target failover from the chosen bus
// idx to the other healthy bus), true means the delivery is silently lost
// and counted.
func (w *lossyWire) maskedLocked(idx int, from, to types.ClusterID) bool {
	if !w.cutLocked(idx, from, to) {
		return false
	}
	for i := 0; i < NumBuses; i++ {
		if i != idx && !w.bus.failed[i] && !w.cutLocked(i, from, to) {
			w.bus.metrics.BusFailovers.Add(1)
			return false
		}
	}
	w.bus.metrics.PartitionDrops.Add(1)
	return true
}

// reachableLocked applies the active partition to one transmission's
// targets and returns those still delivered to. An unpartitioned wire
// returns ports as given.
func (w *lossyWire) reachableLocked(idx int, from types.ClusterID, ports []*busPort) []*busPort {
	if len(w.cut) == 0 {
		return ports
	}
	kept := make([]*busPort, 0, len(ports))
	for _, p := range ports {
		if !w.maskedLocked(idx, from, p.c) {
			kept = append(kept, p)
		}
	}
	return kept
}

// releaseLocked delivers every held transmission whose release point has
// passed — or, with all set, every held transmission — through the same
// stage step a fresh transmission uses. Caller holds b.mu and no inbox
// locks: release takes one at a time.
func (w *lossyWire) releaseLocked(all bool) {
	b := w.bus
	kept := w.held[:0]
	for _, d := range w.held {
		if !all && d.due > b.nextID {
			kept = append(kept, d)
			continue
		}
		for _, p := range w.reachableLocked(d.idx, d.m.Origin, b.targetsLocked(d.m, nil)) {
			p.in.mu.Lock()
			b.stageLocked(p, d.m, 1)
			b.metrics.BusDeliveries.Add(1)
			b.metrics.MaxInboxPeak(uint64(p.in.peak))
			p.in.cond.Signal()
			p.in.mu.Unlock()
		}
	}
	w.held = kept
}
