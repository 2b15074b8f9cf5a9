package core

import (
	"time"

	"auragen/internal/bus"
	"auragen/internal/kernel"
	"auragen/internal/types"
	"auragen/internal/wire"
)

// Partition and lossy-wire facades. The bus already models total loss of a
// physical bus (FailBus); these entry points model the meaner failures a
// real interconnect produces — links that drop traffic in one direction,
// frames that arrive twice, frames that arrive damaged, frames that arrive
// late — and the network partitions that create stale primaries. See
// bus.Cut and friends for the mechanism; this file is the policy layer the
// chaos campaigns drive.

// PartitionCluster cuts the links between cluster c and every other
// cluster. inbound cuts traffic toward c, outbound cuts traffic from c;
// buses selects which physical buses are cut (empty = both). Cutting only
// one physical bus is absorbed by dual-bus failover; cutting both isolates
// the cluster in the selected directions. An asymmetric cut (inbound only)
// leaves the cluster able to transmit — the shape that exercises
// incarnation fencing at every receiver, because the isolated cluster
// keeps talking with a stale incarnation after the system declares it
// dead.
func (s *System) PartitionCluster(c types.ClusterID, inbound, outbound bool, buses ...int) error {
	if len(buses) == 0 {
		for i := 0; i < NumBuses(); i++ {
			buses = append(buses, i)
		}
	}
	for _, i := range buses {
		if err := s.bus.Cut(i, c, inbound, outbound); err != nil {
			return err
		}
	}
	return nil
}

// NumBuses returns the number of physical intercluster buses.
func NumBuses() int { return bus.NumBuses }

// HealPartitions removes every link cut, releases any transmissions still
// held by an armed delay fault, and retires every cluster declared dead
// (retire). Healing is when split-brain resolution happens: a declared-dead
// cluster still running is a stale primary whose fencing notice the
// partition ate, and it steps down when it dispatches the notice retire
// re-sends; kernels that already handled the original notice handle the
// re-delivery idempotently. The error is retire's, such as "heal first"
// for a stale primary that a failed bus still keeps out of reach.
func (s *System) HealPartitions() error {
	s.bus.HealAllCuts()
	for _, c := range s.CrashedClusters() {
		if err := s.retire(c); err != nil {
			return err
		}
	}
	return nil
}

// Incarnation returns cluster c's current incarnation number from the
// directory's authoritative ledger.
func (s *System) Incarnation(c types.ClusterID) types.Incarnation {
	return s.dir.Incarnation(c)
}

// ArmBusDuplicates makes the next n bus transmissions deliver twice to
// every target (same bus-minted message ID both times). Receivers must
// suppress the second copy — the §5.1 exactly-once contract is theirs to
// keep, not the wire's.
func (s *System) ArmBusDuplicates(n int) { s.bus.ArmDuplicates(n) }

// delayFlushGrace bounds how long a delay-held transmission can starve: if
// the bus goes quiet before enough traffic passes to release a held frame —
// it may be the very reply its only active sender is blocked on — a
// watchdog flushes everything still held. The fault models late delivery,
// never loss, so liveness wins over the exact gap. The timer lives here
// rather than in the bus because the bus is deterministic; wall-clock
// policy belongs to the facade.
const delayFlushGrace = 50 * time.Millisecond

// ArmBusDelay holds each of the next n transmissions back by gap
// subsequent transmissions before delivering it out of order (partition
// heal releases held frames immediately). Receivers see old traffic after
// newer traffic — the reordering that incarnation fencing and duplicate
// suppression must both survive.
func (s *System) ArmBusDelay(n, gap int) {
	s.bus.SetHoldWatchdog(func() {
		time.AfterFunc(delayFlushGrace, s.bus.FlushDelayed)
	})
	s.bus.ArmDelay(n, gap)
}

// corruptSalt seeds the byte-flip stream for ArmBusCorrupt: mixed with
// ScheduleSeed when set, used alone otherwise, so corrupt sweeps are
// replayable.
const corruptSalt = uint64(0xC0E5D1A77E57F00D)

// ArmBusCorrupt makes the next n bus transmissions arrive damaged: the
// frame is serialized through the real wire codec, one byte is flipped,
// and the result is re-decoded. The decoder fails closed (checksummed
// batches, no partial prefixes), so a flipped frame almost surely dies in
// decode and counts as a drop (Metrics.CorruptFrameDrops); in the
// measure-zero case the flip survives decode, the decoded bytes are
// delivered — never the original pointer.
func (s *System) ArmBusCorrupt(n int) {
	s.corruptOnce.Do(func() {
		seed := s.opts.ScheduleSeed
		if seed == 0 {
			seed = corruptSalt
		}
		rng := types.NewRNG(seed ^ corruptSalt)
		// Called under the bus mutex only, so the RNG needs no lock.
		s.bus.SetCorrupter(func(m *types.Message) *types.Message {
			w := wire.NewWriter(0)
			kernel.EncodeMessageBatch(w, []*types.Message{m})
			frame := w.Bytes() // the corrupter's own: flipped in place
			if len(frame) == 0 {
				return nil
			}
			frame[int(rng.Next()%uint64(len(frame)))] ^= byte(1 + rng.Next()%255)
			ms, err := kernel.DecodeMessageBatch(frame)
			if err != nil || len(ms) != 1 {
				return nil // fail-closed decode caught the damage: drop
			}
			return ms[0]
		})
	})
	s.bus.ArmCorrupt(n)
}
