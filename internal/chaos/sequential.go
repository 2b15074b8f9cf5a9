// Sequential campaigns: the repair & re-integration half of the paper's
// availability story. A one-shot Campaign checks that a single fault is
// survived; a SeqCampaign checks that the system survives an *arbitrary
// sequence* of single failures — fault, failover, repair, redundancy
// restored, next fault — which is the actual operating regime §2 promises
// ("the system can be repaired without stopping"). Each step crashes a
// cluster mid-traffic, repairs it through core.Repair, and requires the
// redundancy-restored oracle (core.RedundancyGaps) to come back clean
// before the next fault is allowed to land. Steps may also aim a second
// crash at the repair itself (the EvRepair rebacking transition), which
// must either complete the repair or abort it cleanly — never corrupt
// suppression counts or strand partial state.
package chaos

import (
	"errors"
	"fmt"
	"time"

	"auragen/internal/core"
	"auragen/internal/trace"
	"auragen/internal/types"
	"auragen/internal/workload"
)

// DefaultRedundantTimeout bounds each step's wait for the
// redundancy-restored oracle to come back clean.
const DefaultRedundantTimeout = 30 * time.Second

// maxRepairRetries bounds re-repair attempts after clean aborts; a repair
// that keeps aborting without new faults is itself a violation.
const maxRepairRetries = 5

// SeqStep is one fault→repair round of a sequential plan.
type SeqStep struct {
	// Target is the cluster crashed during this step's traffic round.
	Target types.ClusterID
	// When/K select the crash tripwire, counted from the start of this
	// step's round (not of the run). The zero Predicate is normalized to
	// Any(); K <= 0 to 1. If the round's traffic ends before the wire
	// trips, the crash is applied right after it.
	When Predicate
	K    int
	// MidRepair, armed by MidRepairArmed, crashes that cluster the moment
	// the repair of Target enters the phase named by MidRepairPhase
	// (RepairIdle, the zero value, selects rebacking) — a failure during
	// re-integration. MidRepair == Target re-fails the cluster under
	// repair (the repair must abort cleanly and be retried); any other
	// cluster exercises repair continuing around a concurrent failure,
	// e.g. a crash landing while the target is still resilvering.
	// (A separate flag because the zero ClusterID is the legal cluster 0.)
	MidRepairArmed bool
	MidRepair      types.ClusterID
	MidRepairPhase types.RepairPhase
}

// midRepairPhase resolves the zero MidRepairPhase to the default.
func (st SeqStep) midRepairPhase() types.RepairPhase {
	if st.MidRepairPhase == types.RepairIdle {
		return types.RepairRebacking
	}
	return st.MidRepairPhase
}

// ResilverCrashStep is the sequential burst: crash target, then crash
// victim the moment target's repair enters resilvering — a second
// cluster lost while the first is still cloning its storage back. The
// repair machinery must either finish around the concurrent failure or
// abort cleanly and be retried; the step runner tolerates both.
//
// The victim must not host the promoted primary of a process whose
// backup died with target (for SeqBankScenario: the bank server is
// primary-2/backup-0, so after crashing 2 its only copy runs on 0, and
// a victim of 0 is a double failure of that process — the §6 contract
// then promises degradation, not survival, and the survival-shaped
// sequential oracle will rightly reject the run).
func ResilverCrashStep(target, victim types.ClusterID, k int) SeqStep {
	return SeqStep{
		Target: target, K: k,
		MidRepairArmed: true, MidRepair: victim,
		MidRepairPhase: types.RepairResilvering,
	}
}

func (st SeqStep) String() string {
	s := fmt.Sprintf("crash %s", st.Target)
	if st.MidRepairArmed {
		s += fmt.Sprintf("+%s@%s", st.MidRepair, st.midRepairPhase())
	}
	return s
}

// SeqPlan is a deterministic sequence of single failures.
type SeqPlan struct {
	Seed int64
	// JitterSeed, when non-zero, runs the whole sequence under the seeded
	// schedule perturber (see Plan.JitterSeed).
	JitterSeed uint64
	Steps      []SeqStep
}

// SeqScenario is a workload built for multi-round runs: Setup spawns the
// long-lived servers once, Round drives one round of deterministic traffic
// (the same plan every run, varying only by round index), Finish probes the
// final observable state into the canonical outcome string.
type SeqScenario struct {
	Boot
	Setup  func(sys *core.System) error
	Round  func(sys *core.System, i int) error
	Finish func(sys *core.System) (string, error)
}

// SeqStepResult records what one step observably did.
type SeqStepResult struct {
	Step SeqStep
	// Fired reports the crash tripwire tripping mid-traffic; false means
	// the round ended first and the crash was applied after it.
	Fired bool
	// MidRepairFired reports the mid-repair crash landing while the repair
	// was in flight.
	MidRepairFired bool
	// RepairAborts counts clean ErrRepairAborted outcomes before the
	// repair finally completed.
	RepairAborts int
	// CrashErr / RepairErr are fatal step errors (nil on a clean step).
	CrashErr  error
	RepairErr error
	// RedundantErr is the redundancy-restored oracle's verdict for this
	// step (nil means every gap closed within the timeout).
	RedundantErr error
	// EventsAtCrash / EventsAtRedundant are event-stream positions: their
	// difference is this step's window of vulnerability, in events.
	EventsAtCrash     int
	EventsAtRedundant int
}

// SeqResult is the record of one sequential run.
type SeqResult struct {
	Plan SeqPlan
	Record
	Steps []SeqStepResult
}

// SeqCampaign replays a sequential scenario under fault plans.
type SeqCampaign struct {
	Scenario SeqScenario
	// Timeout is the whole-run watchdog (default DefaultRunTimeout per
	// step plus setup).
	Timeout time.Duration
	// RedundantTimeout bounds each step's redundancy wait (default
	// DefaultRedundantTimeout).
	RedundantTimeout time.Duration
	// afterStep, when set, observes the live system right after each
	// completed step (soak fingerprinting). It runs on the drive
	// goroutine, between steps, with no tripwire armed.
	afterStep func(sys *core.System, i int, sr *SeqStepResult)
}

// Run boots a fresh system and drives the plan: every step crashes its
// target mid-round, repairs every cluster left down (retrying after clean
// aborts), and waits for the redundancy-restored oracle before the next
// step. Finish's outcome string lands in the result for comparison against
// Reference.
func (c *SeqCampaign) Run(plan SeqPlan) *SeqResult {
	return c.run(plan, true)
}

// Reference replays the same plan with fault injection disabled: the same
// rounds of traffic run, but no crash or repair happens. Outcomes of
// injected runs must equal the reference's.
func (c *SeqCampaign) Reference(plan SeqPlan) *SeqResult {
	return c.run(plan, false)
}

func (c *SeqCampaign) run(plan SeqPlan, inject bool) *SeqResult {
	res := &SeqResult{Plan: plan}
	sys := c.Scenario.boot(&res.Record, plan.Seed, plan.JitterSeed)
	if sys == nil {
		return res
	}
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = DefaultRunTimeout * time.Duration(1+len(plan.Steps))
	}
	var steps []SeqStepResult
	if res.watch(c.Scenario.Name, timeout, func() (out string, err error) {
		out, steps, err = c.drive(sys, plan, inject)
		return out, err
	}) {
		res.Steps = steps
	}
	res.collect(sys)
	return res
}

// drive runs setup, every step, and finish.
func (c *SeqCampaign) drive(sys *core.System, plan SeqPlan, inject bool) (string, []SeqStepResult, error) {
	if c.Scenario.Setup != nil {
		if err := c.Scenario.Setup(sys); err != nil {
			return "", nil, fmt.Errorf("chaos: setup: %w", err)
		}
	}
	var steps []SeqStepResult
	for i, step := range plan.Steps {
		if !inject {
			if err := c.Scenario.Round(sys, i); err != nil {
				return "", steps, fmt.Errorf("chaos: round %d: %w", i, err)
			}
			continue
		}
		sr := c.runStep(sys, i, step)
		steps = append(steps, sr)
		if c.afterStep != nil {
			c.afterStep(sys, i, &steps[len(steps)-1])
		}
		if sr.CrashErr != nil || sr.RepairErr != nil {
			err := sr.CrashErr
			if err == nil {
				err = sr.RepairErr
			}
			return "", steps, fmt.Errorf("chaos: step %d (%s): %w", i, step, err)
		}
	}
	if c.Scenario.Finish == nil {
		return "", steps, nil
	}
	out, err := c.Scenario.Finish(sys)
	return out, steps, err
}

// eventCount is the number of events sys has logged so far.
func eventCount(sys *core.System) int {
	return sys.EventLog().Len() + int(sys.EventLog().Dropped())
}

// runStep performs one fault→failover→repair→redundancy round. Each crash
// it aims is an event-log trip taken by injectAt; the trip is disarmed when
// the traffic (or repair) it was aimed at is over.
func (c *SeqCampaign) runStep(sys *core.System, i int, step SeqStep) SeqStepResult {
	sr := SeqStepResult{Step: step}

	// Crash the target mid-round; if the round outruns the trip, the crash
	// still belongs to this step and lands right after it.
	when := step.When
	if (when == Predicate{}) {
		when = Any()
	}
	trip := sys.EventLog().Trip(when.Matches, step.K)
	crashErr := injectAt(trip, func(trace.Event) error { return sys.Crash(step.Target) })
	roundErr := c.Scenario.Round(sys, i)
	sr.Fired = trip.Disarm()
	sr.CrashErr = <-crashErr
	if !sr.Fired {
		sr.CrashErr = sys.Crash(step.Target)
	}
	if roundErr != nil && sr.CrashErr == nil {
		// Round traffic must survive the single fault; surface its failure
		// through the crash-error slot so the oracle rejects the step.
		sr.CrashErr = fmt.Errorf("round %d traffic failed: %w", i, roundErr)
	}
	if sr.CrashErr != nil {
		return sr
	}
	sr.EventsAtCrash = eventCount(sys)

	// Repair, optionally with a second crash aimed at a repair phase.
	var midTrip *trace.Trip
	var midErr <-chan error
	if step.MidRepairArmed {
		midTrip = sys.EventLog().Trip(OnRepairPhase(step.Target, step.midRepairPhase()).Matches, 1)
		midErr = injectAt(midTrip, func(trace.Event) error { return sys.Crash(step.MidRepair) })
	}
	rerr := sys.Repair(step.Target)
	if midTrip != nil {
		sr.MidRepairFired = midTrip.Disarm()
		if merr := <-midErr; merr != nil {
			// The mid-repair crash racing the end of the repair may find
			// its victim already down or the configuration unable to lose
			// it; either way the step's fault schedule failed to apply.
			sr.CrashErr = fmt.Errorf("mid-repair crash of %v: %w", step.MidRepair, merr)
			return sr
		}
	}
	if errors.Is(rerr, core.ErrRepairAborted) {
		sr.RepairAborts++
		rerr = nil
	}
	if rerr != nil {
		sr.RepairErr = rerr
		return sr
	}

	// Repair whatever is still (or newly) down: the re-crashed target
	// after an abort, and/or the mid-repair victim.
	for tries := 0; ; tries++ {
		down := sys.CrashedClusters()
		if len(down) == 0 {
			break
		}
		if tries >= maxRepairRetries {
			sr.RepairErr = fmt.Errorf("clusters %v still down after %d repair attempts", down, tries)
			return sr
		}
		for _, cc := range down {
			switch err := sys.Repair(cc); {
			case err == nil:
			case errors.Is(err, core.ErrRepairAborted):
				sr.RepairAborts++
			default:
				sr.RepairErr = err
				return sr
			}
		}
	}

	timeout := c.RedundantTimeout
	if timeout <= 0 {
		timeout = DefaultRedundantTimeout
	}
	sr.RedundantErr = sys.WaitRedundant(timeout)
	if sr.RedundantErr == nil {
		sr.EventsAtRedundant = eventCount(sys)
	}
	return sr
}

// CheckSequential is the sequential oracle: CheckSurvival's checks over the
// whole run (no hang, error or degradation; the reference outcome, which is
// the exactly-once check across every failover and repair; the strategy's
// trace invariant, so a crash during re-integration must not corrupt
// suppression counts), and for every step an applied fault, a completed
// repair and a closed redundancy gap.
func CheckSequential(ref, run *SeqResult) Verdict {
	v := checkSurvived(&ref.Record, &run.Record)
	for i, st := range run.Steps {
		if st.CrashErr != nil {
			v = append(v, fmt.Sprintf("step %d (%s): fault failed to apply: %v", i, st.Step, st.CrashErr))
		}
		if st.RepairErr != nil {
			v = append(v, fmt.Sprintf("step %d (%s): repair failed: %v", i, st.Step, st.RepairErr))
		}
		if st.RedundantErr != nil {
			v = append(v, fmt.Sprintf("step %d (%s): redundancy not restored: %v", i, st.Step, st.RedundantErr))
		}
	}
	return Verdict{OK: len(v) == 0, Violations: v}
}

// SeqBankScenario is the sequential analogue of BankScenario: one bank
// server lives across every round, each round runs a deterministic transfer
// plan (varied only by round index), and the final probe reads back the
// full balance vector. The outcome is a pure function of the rounds run, so
// injected runs compare against a fault-free reference of the same plan.
func SeqBankScenario(name string, accounts, txnsPerRound int, syncReads uint32) SeqScenario {
	const initBalance = 100
	return SeqScenario{
		Boot: bankBoot(name, syncReads),
		Setup: func(sys *core.System) error {
			_, err := spawnOn(sys, "bank-server",
				fmt.Sprintf("chaos %d %d 0", accounts, initBalance), 2)
			return err
		},
		Round: func(sys *core.System, i int) error {
			plan := workload.TxnPlan{
				Accounts: accounts, Txns: txnsPerRound, Amount: 7,
				Seed: 0xA4A4 + uint64(i),
			}
			teller, err := spawnOn(sys, "teller",
				fmt.Sprintf("chaos -1 %s", plan.Encode()), 1)
			if err != nil {
				return err
			}
			return sys.WaitExit(teller, 60*time.Second)
		},
		Finish: func(sys *core.System) (string, error) {
			return probeBalances(sys, accounts)
		},
	}
}
