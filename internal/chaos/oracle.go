// The survival oracle: the machine-checked form of the §5/§6 contract a
// run must satisfy after fault injection.
package chaos

import (
	"errors"
	"fmt"
	"strings"

	"auragen/internal/replication"
	"auragen/internal/trace"
	"auragen/internal/types"
)

// Verdict is the oracle's judgment of one run.
type Verdict struct {
	OK         bool
	Violations []string
}

func (v Verdict) String() string {
	if v.OK {
		return "ok"
	}
	return strings.Join(v.Violations, "; ")
}

// CheckSurvival checks a run that suffered at most one tolerated fault
// against the fault-free reference:
//
//   - the run completed — no hang, no error (the fault was survivable, so
//     surviving the fault is the contract);
//   - the outcome equals the reference outcome. The outcome string encodes
//     the workload's full observable state (for BankScenario, every account
//     balance), so this is the exactly-once check: a lost pre-crash send
//     leaves a transfer unapplied, a duplicated replay applies one twice,
//     and either moves the vector off the reference;
//   - no kernel degraded — a single fault must be absorbed, never escalate
//     to multiple-failure mode;
//   - §5.4 suppression pairing: every suppressed regeneration (EvSuppress)
//     pairs with an original transmission (EvTransmit) — the suppressed send
//     really was already on the wire. Data messages pair by payload hash
//     (deterministic regeneration must reproduce the original bytes);
//     kernel protocol messages (open requests and the like) embed
//     freshly-minted location-dependent IDs, so they pair structurally:
//     per channel and kind, suppressions must not outnumber originals.
//     Skipped when the event ring overflowed.
func CheckSurvival(ref, run *RunResult) Verdict {
	v := checkSurvived(&ref.Record, &run.Record)
	return Verdict{OK: len(v) == 0, Violations: v}
}

// checkSurvived is CheckSurvival's list of violations, shared with
// CheckSequential.
func checkSurvived(ref, run *Record) []string {
	var v []string
	if run.Hung {
		v = append(v, "run hung (watchdog expired)")
	}
	if run.Err != nil && !run.Hung {
		v = append(v, fmt.Sprintf("scenario error: %v", run.Err))
	}
	if run.Err == nil && run.Outcome != ref.Outcome {
		v = append(v, fmt.Sprintf("outcome diverged: got %q want %q", run.Outcome, ref.Outcome))
	}
	if run.Degraded {
		v = append(v, "system degraded under single tolerated faults")
	}
	if run.LogDropped == 0 {
		v = append(v, checkStrategyInvariants(run.Replication, run.Events)...)
	}
	return v
}

// checkStrategyInvariants applies the replication-strategy-specific trace
// invariant — each strategy promises something different about how a
// promotion reconstructs the dead primary's run, so each gets its own
// oracle (the applicability matrix is DESIGN.md §13):
//
//   - threeway: §5.4 suppression pairing — every suppressed regeneration
//     pairs with an original transmission;
//   - llft: decision-prefix equivalence — the pinned signal positions a
//     promoted follower replays are exactly the decision log its leader
//     streamed, in order;
//   - msglog: logged-replay completeness — every message a promotion
//     replays is a suffix of the pessimistic log, per channel, in log
//     order.
func checkStrategyInvariants(kind replication.Kind, events []trace.Event) []string {
	switch kind {
	case replication.LLFT:
		return checkDecisionPrefix(events)
	case replication.MsgLog:
		return checkReplayCompleteness(events)
	default:
		return checkSuppressionPairing(events)
	}
}

// checkDecisionPrefix verifies the llft decision-log contract: every
// pinned delivery a promoted follower replays (EvReplay with
// MsgKind=KindDecision, Arg = input position) must consume the recorded
// decision log (EvSave with MsgKind=KindDecision) for that cluster and
// process in exactly recorded order. An establishment capture
// (EvSyncApply) subsumes the log recorded so far — the follower restarts
// from the captured image, so earlier decisions are never replayed. A
// tail of unreplayed decisions is legal (the promoted follower may exit
// before reaching the last pinned position); position divergence is not.
func checkDecisionPrefix(events []trace.Event) []string {
	type key struct {
		cluster types.ClusterID
		pid     types.PID
	}
	recorded := make(map[key][]uint64)
	expect := make(map[key][]uint64)
	var v []string
	for _, e := range events {
		k := key{e.Cluster, e.PID}
		switch {
		case e.Kind == trace.EvSave && e.MsgKind == types.KindDecision:
			recorded[k] = append(recorded[k], e.Arg)
		case e.Kind == trace.EvSyncApply:
			recorded[k] = nil
		case e.Kind == trace.EvRecover:
			expect[k] = recorded[k]
			recorded[k] = nil
		case e.Kind == trace.EvReplay && e.MsgKind == types.KindDecision:
			q := expect[k]
			if len(q) == 0 {
				v = append(v, fmt.Sprintf(
					"decision replayed at %d for %s (position %d) with no recorded decision outstanding",
					e.Cluster, e.PID, e.Arg))
				continue
			}
			if q[0] != e.Arg {
				v = append(v, fmt.Sprintf(
					"decision replay diverged at %d for %s: replayed position %d, recorded log head %d",
					e.Cluster, e.PID, e.Arg, q[0]))
			}
			expect[k] = q[1:]
		}
	}
	return v
}

// checkReplayCompleteness verifies the msglog logging contract: the
// messages a promotion replays (EvReplay) for a process at a cluster must
// form a suffix of the messages logged for it there (EvSave), per channel,
// in log order — everything replayed was logged, nothing was reordered or
// invented, and the replay window runs from wherever the last checkpoint's
// queue trimming left off through the last logged message.
func checkReplayCompleteness(events []trace.Event) []string {
	type key struct {
		cluster types.ClusterID
		pid     types.PID
		ch      types.ChannelID
	}
	type pkey struct {
		cluster types.ClusterID
		pid     types.PID
	}
	logged := make(map[key][]uint64)
	replayed := make(map[key][]uint64)
	chans := make(map[pkey][]types.ChannelID)
	var v []string
	for _, e := range events {
		switch e.Kind {
		case trace.EvSave:
			logged[key{e.Cluster, e.PID, e.Channel}] = append(
				logged[key{e.Cluster, e.PID, e.Channel}], e.MsgID)
		case trace.EvReplay:
			k := key{e.Cluster, e.PID, e.Channel}
			if len(replayed[k]) == 0 {
				p := pkey{e.Cluster, e.PID}
				chans[p] = append(chans[p], e.Channel)
			}
			replayed[k] = append(replayed[k], e.MsgID)
		case trace.EvRecover:
			// Promotion: judge each channel's replay run against the log.
			p := pkey{e.Cluster, e.PID}
			for _, ch := range chans[p] {
				k := key{e.Cluster, e.PID, ch}
				if !isIDSuffix(replayed[k], logged[k]) {
					v = append(v, fmt.Sprintf(
						"replay at %d for %s on %s is not a suffix of the message log (%d replayed, %d logged)",
						e.Cluster, e.PID, ch, len(replayed[k]), len(logged[k])))
				}
				replayed[k] = nil
			}
			chans[p] = nil
		default:
			// Only the save/replay/recover triple participates in the
			// replay-completeness ledger; every other event is neutral.
		}
	}
	return v
}

// isIDSuffix reports whether run is a contiguous suffix of log.
func isIDSuffix(run, log []uint64) bool {
	if len(run) > len(log) {
		return false
	}
	tail := log[len(log)-len(run):]
	for i := range run {
		if run[i] != tail[i] {
			return false
		}
	}
	return true
}

// checkSuppressionPairing verifies every EvSuppress pairs with an original
// EvTransmit: by payload hash for data messages, by per-(channel, kind)
// count for kernel protocol messages whose regenerated payloads embed
// freshly-minted IDs.
func checkSuppressionPairing(events []trace.Event) []string {
	type key struct {
		ch   types.ChannelID
		kind types.Kind
	}
	txHash := make(map[uint64]bool)
	txKey := make(map[key]int)
	for _, e := range events {
		if e.Kind == trace.EvTransmit {
			txHash[e.Arg] = true
			txKey[key{e.Channel, e.MsgKind}]++
		}
	}
	var v []string
	seen := make(map[key]int)
	for _, e := range events {
		if e.Kind != trace.EvSuppress {
			continue
		}
		if e.MsgKind == types.KindData {
			if !txHash[e.Arg] {
				v = append(v, fmt.Sprintf(
					"suppressed data send (seq %d, %s, hash %016x) has no matching original transmission",
					e.Seq, e.PID, e.Arg))
			}
			continue
		}
		k := key{e.Channel, e.MsgKind}
		seen[k]++
		if seen[k] > txKey[k] {
			v = append(v, fmt.Sprintf(
				"suppressed %s on %s (seq %d, %s): %d suppressions but only %d original transmissions",
				e.MsgKind, e.Channel, e.Seq, e.PID, seen[k], txKey[k]))
		}
	}
	return v
}

// CheckDegradation checks a run that suffered a multiple failure: the
// system must degrade gracefully — the scenario terminates (no hang, no
// panic) with an error wrapping types.ErrTooManyFailures, the honest
// admission that the single-fault contract was exceeded.
func CheckDegradation(run *RunResult) Verdict {
	var v []string
	if run.Hung {
		v = append(v, "run hung instead of degrading (watchdog expired)")
	} else if run.Err == nil {
		v = append(v, "scenario completed normally; expected ErrTooManyFailures")
	} else if !errors.Is(run.Err, types.ErrTooManyFailures) {
		v = append(v, fmt.Sprintf("wrong degradation error: %v (want ErrTooManyFailures)", run.Err))
	}
	return Verdict{OK: len(v) == 0, Violations: v}
}
