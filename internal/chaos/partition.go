// Partition campaigns and the split-brain oracle. A network partition is
// the one fault the paper's single-failure model cannot see: the cluster
// is healthy, its traffic is gone, and the failure detector's verdict is
// wrong. The campaign here manufactures exactly that — partition a live
// cluster, lie to the detector until it promotes the backups, heal — and
// the oracle checks that the incarnation protocol turned a split brain
// into a clean supersession: at most one accepted primary per process at
// every point in the healed trace, the exactly-once balance vector intact,
// the stale primary stepped down, and the system repaired back to full
// redundancy.
package chaos

import (
	"fmt"
	"time"

	"auragen/internal/core"
	"auragen/internal/replication"
	"auragen/internal/trace"
	"auragen/internal/types"
)

// PartitionTarget is the cluster the partition plans isolate: the bank
// scenario's server primary, so the wrongful promotion moves live state.
const PartitionTarget types.ClusterID = 2

// partitionHealGap is the event distance between the wrongful declaration
// and the scheduled heal — wide enough that the promotion's roll-forward
// runs inside the split-brain window.
const partitionHealGap = 40

// PartitionBankScenario is the bank workload wrapped with partition
// resolution: after the workload completes, remaining cuts are healed
// (fencing any stale primary the partition protected), every
// declared-dead cluster is repaired, and the run ends only when the
// system is back to full redundancy. The outcome string is the workload's
// unchanged balance line, so reference runs are identical to
// BankScenario's.
func PartitionBankScenario(name string) Scenario {
	s := BankScenario(name, 6, 24, 2)
	s.Name = name
	base := s.Run
	s.Run = func(sys *core.System) (string, error) {
		out, err := base(sys)
		if err != nil {
			return out, err
		}
		if err := sys.HealPartitions(); err != nil {
			return "", fmt.Errorf("chaos: heal: %w", err)
		}
		for _, c := range sys.CrashedClusters() {
			if err := sys.Repair(c); err != nil {
				return "", fmt.Errorf("chaos: post-heal repair of %v: %w", c, err)
			}
		}
		if err := sys.WaitRedundant(30 * time.Second); err != nil {
			return "", err
		}
		return out, nil
	}
	return s
}

// PartitionPlan schedules the split-brain shape: cut the target's links
// at the kth primary delivery and heal a window later. The partition
// injection itself drives the failure detector's polling rounds — probes
// ride the cut wire, so past the debounce the detector wrongly declares
// the partitioned-but-live cluster dead and promotes its backups. The
// heal tripwire is keyed on deliveries after the cut: traffic only
// resumes once the promotion unblocks the workload, so by the time it
// fires the split-brain window is open. On runs too short to reach it,
// PartitionBankScenario heals unconditionally before repair, so the
// schedule is safe at every coordinate.
func PartitionPlan(seed int64, shape PartitionShape, k int) Plan {
	when := OnKind(trace.EvDeliver)
	return Plan{Seed: seed, Injections: []Injection{
		{Fault: FaultPartition, When: when, K: k, Target: PartitionTarget, Shape: shape},
		{Fault: FaultPartitionHeal, When: when, K: k + partitionHealGap},
	}}
}

// CheckSplitBrain judges a partition run: the survival contract must hold
// (exactly-once outcome, no degradation, strategy invariant), and on top
// of it the supersession protocol must have resolved every wrongful
// promotion:
//
//   - no split brain: once the superseded cluster has learned of its
//     supersession (its EvFence/EvStepDown appears), it never again
//     delivers a message to the promoted process. Deliveries between the
//     promotion and the notice's arrival are the in-flight window no
//     asynchronous protocol can close — those are tolerated here exactly
//     because the survival contract above independently proves their
//     effects stayed exactly-once;
//   - fencing happened: a superseded cluster that demonstrably lived past
//     its supersession (it emitted events before its repair began) must
//     show its own step-down (EvStepDown) in the healed trace;
//   - convergence: every superseded cluster reaches RepairRedundant by
//     the end of the run.
func CheckSplitBrain(ref, run *RunResult) Verdict {
	base := CheckSurvival(ref, run)
	v := base.Violations
	if run.LogDropped > 0 {
		return Verdict{OK: len(v) == 0, Violations: v}
	}

	// Attribute each promotion to the cluster whose crash handling ran it:
	// an EvRecover at cluster A follows A's EvCrash whose Arg names the
	// superseded cluster.
	type supersession struct {
		old types.ClusterID
		pid types.PID
		seq uint64
	}
	lastCrashArg := make(map[types.ClusterID]uint64)
	var sups []supersession
	for _, e := range run.Events {
		switch e.Kind {
		case trace.EvCrash:
			lastCrashArg[e.Cluster] = e.Arg
		case trace.EvRecover:
			if arg, ok := lastCrashArg[e.Cluster]; ok {
				sups = append(sups, supersession{
					old: types.ClusterID(arg), pid: e.PID, seq: e.Seq,
				})
			}
		default:
			// Only crash/recover pairs attribute supersessions; every
			// other event kind is examined per-supersession below.
		}
	}

	for _, sup := range sups {
		// repairStart bounds the stale window: events at the superseded
		// cluster from its replacement kernel are a new life, not the
		// stale primary.
		repairStart := uint64(0)
		for _, e := range run.Events {
			if e.Seq > sup.seq && e.Kind == trace.EvRepair &&
				e.Cluster == sup.old && e.Arg == uint64(types.RepairBooting) {
				repairStart = e.Seq
				break
			}
		}
		// fenceSeq marks when the stale primary learned of its
		// supersession; deliveries before it are the tolerated in-flight
		// window, deliveries after it are a true split brain.
		fenceSeq := uint64(0)
		for _, e := range run.Events {
			if e.Cluster == sup.old && e.Seq > sup.seq &&
				(e.Kind == trace.EvFence || e.Kind == trace.EvStepDown) {
				fenceSeq = e.Seq
				break
			}
		}
		lived, steppedDown, redundant := false, false, false
		for _, e := range run.Events {
			if e.Cluster == sup.old && e.Seq > sup.seq &&
				(repairStart == 0 || e.Seq < repairStart) {
				lived = true
				if e.Kind == trace.EvStepDown {
					steppedDown = true
				}
				if e.Kind == trace.EvDeliver && e.PID == sup.pid &&
					fenceSeq != 0 && e.Seq > fenceSeq {
					v = append(v, fmt.Sprintf(
						"split brain: superseded %v delivered to %s after learning of its supersession (event %d)",
						sup.old, sup.pid, e.Seq))
				}
			}
			if e.Kind == trace.EvRepair && e.Cluster == sup.old &&
				e.Seq > sup.seq && e.Arg == uint64(types.RepairRedundant) {
				redundant = true
			}
		}
		if lived && !steppedDown {
			v = append(v, fmt.Sprintf(
				"stale primary %v emitted events after supersession but never stepped down", sup.old))
		}
		if !redundant {
			v = append(v, fmt.Sprintf(
				"superseded %v never reached %s", sup.old, types.RepairRedundant))
		}
	}
	return Verdict{OK: len(v) == 0, Violations: v}
}

// PartitionFailure records one sweep point the split-brain oracle
// rejected.
type PartitionFailure struct {
	Strategy replication.Kind
	Shape    PartitionShape
	K        int
	Outcome  string
	Err      error
	Verdict  Verdict
}

func (f PartitionFailure) String() string {
	return fmt.Sprintf("%s/%s@%d: %s (err=%v)", f.Strategy, f.Shape, f.K, f.Verdict, f.Err)
}

// PartitionSweepReport summarizes a partition sweep across shapes and
// replication strategies.
type PartitionSweepReport struct {
	Runs     int
	Fired    int
	Failures []PartitionFailure
	// StepDowns, FencedRejects, and PartitionDrops aggregate the
	// robustness counters across every injected run: a sweep in which no
	// stale primary ever stepped down did not create the split brains it
	// claims to have survived.
	StepDowns      uint64
	FencedRejects  uint64
	PartitionDrops uint64
}

// PartitionShapes lists every partition shape a sweep covers.
func PartitionShapes() []PartitionShape {
	return []PartitionShape{PartitionSymmetric, PartitionAsymmetric, PartitionSingleBus}
}

// RunPartitionSweep drives the partition→wrongful-promotion→heal schedule
// at each coordinate in ks, across every partition shape and every
// replication strategy, applying the split-brain oracle to each run.
func RunPartitionSweep(seed int64, ks []int) *PartitionSweepReport {
	rep := &PartitionSweepReport{}
	for _, strat := range []replication.Kind{
		replication.ThreeWay, replication.LLFT, replication.MsgLog,
	} {
		c := &Campaign{Scenario: PartitionBankScenario("partition-bank").WithReplication(strat)}
		ref := c.Reference(seed)
		if ref.Err != nil {
			rep.Failures = append(rep.Failures, PartitionFailure{
				Strategy: strat, K: 0, Err: ref.Err,
				Verdict: Verdict{Violations: []string{"reference run failed"}},
			})
			continue
		}
		for _, shape := range PartitionShapes() {
			for _, k := range ks {
				run := c.Run(PartitionPlan(seed, shape, k))
				rep.Runs++
				if len(run.Fired) > 0 && run.Fired[0] {
					rep.Fired++
				}
				rep.StepDowns += run.Metrics["step_downs"]
				rep.FencedRejects += run.Metrics["fenced_rejects"]
				rep.PartitionDrops += run.Metrics["partition_drops"]
				if v := CheckSplitBrain(ref, run); !v.OK {
					rep.Failures = append(rep.Failures, PartitionFailure{
						Strategy: strat, Shape: shape, K: k,
						Outcome: run.Outcome, Err: run.Err, Verdict: v,
					})
				}
			}
		}
	}
	return rep
}
