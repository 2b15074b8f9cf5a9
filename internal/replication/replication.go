// Package replication names the backup protocol's three policies. The
// kernel holds the one mechanism — atomic three-address bus delivery,
// saved-message queues, writes-since-sync counting, crash promotion with
// roll-forward, online backup establishment — and reads a Policy value for
// the three answers that differ between schemes: when a periodic state
// capture is due, whether a capture is the whole image or the dirty delta,
// and how a pending asynchronous signal's delivery point is pinned into the
// backup's history.
//
//	threeway  the paper's scheme (§5): dirty-delta sync points at the
//	          configured cadence, write suppression over the sync window,
//	          a pending signal pinned by a forced sync (§7.5.2).
//	llft      leader-follower after "The Low Latency Fault Tolerance
//	          System": no capture after establishment, so the saved queues
//	          and writes-since-sync counts are the replay log; each signal
//	          delivery is pinned by a streamed decision-log entry at an
//	          absolute input position, and promotion replays that plan.
//	msglog    pessimistic message logging: the saved queues are the log,
//	          captures are full images at a coarser cadence, and recovery
//	          restores the latest image and replays the logged inbound
//	          messages behind it; a pending signal forces a capture.
//
// Every capture, delta or full image, travels as an ordinary KindSync.
package replication

import (
	"fmt"
	"strings"
)

// Kind names a replication policy.
type Kind uint8

const (
	// ThreeWay is the paper's three-way-delivery scheme and the default.
	ThreeWay Kind = iota
	// LLFT is leader-follower replication with a streamed decision log.
	LLFT
	// MsgLog is pessimistic message logging with full-image captures.
	MsgLog
)

// Policy is the backup protocol's policy for one Kind. Every kernel in a
// system reads the same value.
type Policy struct {
	Kind Kind
	// CaptureScale multiplies a process's sync cadence (its SyncReads and
	// SyncTicks triggers) to give the periodic capture cadence. Zero means
	// captures happen only at backup establishment.
	CaptureScale uint64
	// FullImage makes every capture ship the whole address space instead
	// of the pages dirtied since the last capture.
	FullImage bool
	// Decisions pins a pending signal by streaming a decision-log entry to
	// the backup instead of forcing a capture, and makes promotion replay
	// the recorded entries as its signal plan.
	Decisions bool
}

var policies = [...]Policy{
	ThreeWay: {Kind: ThreeWay, CaptureScale: 1},
	LLFT:     {Kind: LLFT, Decisions: true},
	MsgLog:   {Kind: MsgLog, CaptureScale: 4, FullImage: true},
}

// Policy returns k's row of the policy table; an unknown kind gets the
// paper's scheme.
func (k Kind) Policy() Policy {
	if int(k) >= len(policies) {
		return policies[ThreeWay]
	}
	return policies[k]
}

func (k Kind) String() string {
	switch k {
	case ThreeWay:
		return "threeway"
	case LLFT:
		return "llft"
	case MsgLog:
		return "msglog"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind maps a flag value ("threeway", "llft", "msglog") to its Kind.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "threeway", "three-way":
		return ThreeWay, nil
	case "llft", "leader-follower":
		return LLFT, nil
	case "msglog", "message-logging":
		return MsgLog, nil
	default:
		return ThreeWay, fmt.Errorf("replication: unknown strategy %q (want threeway|llft|msglog)", s)
	}
}

// All returns every kind, in a fixed order — campaign matrices and
// conformance suites iterate it.
func All() []Kind {
	return []Kind{ThreeWay, LLFT, MsgLog}
}
