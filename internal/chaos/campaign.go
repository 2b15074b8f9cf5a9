// Campaign runner: boots one system per plan, arms trips on the event log,
// applies each fault once its trip fires, and collects the run's
// observable record for the oracle.
package chaos

import (
	"fmt"
	"sync/atomic"
	"time"

	"auragen/internal/core"
	"auragen/internal/replication"
	"auragen/internal/trace"
	"auragen/internal/types"
)

// DefaultEventLogLimit is the per-run event ring used when the scenario
// does not set one: large enough that sweep-sized runs never overflow, so
// the oracle's suppression pairing sees the whole history.
const DefaultEventLogLimit = 1 << 16

// DefaultRunTimeout is the per-run watchdog. A run that exceeds it is
// recorded as hung — itself an oracle violation, since the §6 contract
// demands degradation, never deadlock.
const DefaultRunTimeout = 2 * time.Minute

// Campaign replays one scenario under fault plans.
type Campaign struct {
	Scenario Scenario
	// Timeout overrides DefaultRunTimeout.
	Timeout time.Duration
}

// Record is the observable record every campaign run keeps, one-shot or
// sequential.
type Record struct {
	// Outcome is the scenario's canonical outcome string ("" on error).
	Outcome string
	// Err is the scenario error (nil on a clean run). Under tolerated
	// single faults it must be nil; under a multiple failure it must wrap
	// types.ErrTooManyFailures.
	Err error
	// Hung reports that the watchdog expired before the scenario returned.
	Hung bool
	// Events is the retained event stream; LogDropped counts ring
	// overflow (pairing checks are skipped when nonzero).
	Events     []trace.Event
	LogDropped uint64
	// Metrics is the end-of-run counter snapshot.
	Metrics trace.Snapshot
	// Degraded reports whether any kernel ended the run cut off from the
	// bus (multiple-failure mode).
	Degraded bool
	// Replication is the strategy the run's system ran; the oracle picks
	// the strategy-specific trace invariant from it.
	Replication replication.Kind
}

// watch runs drive on its own goroutine under the watchdog and records its
// outcome. It reports whether drive returned in time; on expiry the run is
// recorded as hung and drive is left running.
func (r *Record) watch(name string, timeout time.Duration, drive func() (string, error)) bool {
	type result struct {
		out string
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := drive()
		done <- result{out, err}
	}()
	select {
	case res := <-done:
		r.Outcome, r.Err = res.out, res.err
		return true
	case <-time.After(timeout):
		r.Hung = true
		r.Err = fmt.Errorf("chaos: scenario %q exceeded the %v watchdog", name, timeout)
		return false
	}
}

// collect copies the run's event stream, metrics and degradation out of
// sys, then stops it.
func (r *Record) collect(sys *core.System) {
	r.Events = sys.EventLog().Events()
	r.LogDropped = sys.EventLog().Dropped()
	r.Metrics = sys.Metrics().Snapshot()
	r.Degraded = sys.Degraded()
	sys.Stop()
}

// injectAt applies fault on its own goroutine once trip fires, through the
// core facade, as an external operator would. The channel yields the
// fault's error, or nil once the trip is disarmed unfired.
func injectAt(trip *trace.Trip, fault func(trace.Event) error) <-chan error {
	errc := make(chan error, 1)
	go func() {
		ev, ok := trip.Wait()
		if !ok {
			errc <- nil
			return
		}
		errc <- fault(ev)
	}()
	return errc
}

// RunResult is the record of one run under a plan.
type RunResult struct {
	Plan Plan
	Record
	// Fired[i] reports whether injection i's tripwire fired. An injection
	// whose K exceeds this run's matching events never fires; the run is
	// then effectively fault-free.
	Fired []bool
	// FaultErrs[i] is the error from applying injection i (nil when it
	// applied cleanly or never fired).
	FaultErrs []error
}

// MatchCount returns how many retained events match pred — the sweep range
// for a reference run.
func (r *RunResult) MatchCount(pred Predicate) int {
	n := 0
	for _, e := range r.Events {
		if pred.Matches(e) {
			n++
		}
	}
	return n
}

// Reference performs the fault-free run for a seed.
func (c *Campaign) Reference(seed int64) *RunResult {
	return c.Run(Plan{Seed: seed})
}

// Run boots a fresh system, arms one event-log trip per injection, and
// drives the scenario to completion under the watchdog. Each injection's
// fault is applied by injectAt once its trip fires; the trip holds the log
// until that goroutine has taken it. When the scenario returns, every trip
// is disarmed, and a fault whose trip fired is waited for before the
// record is collected.
func (c *Campaign) Run(plan Plan) *RunResult {
	res := &RunResult{
		Plan:      plan,
		Fired:     make([]bool, len(plan.Injections)),
		FaultErrs: make([]error, len(plan.Injections)),
	}
	sys := c.Scenario.boot(&res.Record, plan.Seed, plan.JitterSeed)
	if sys == nil {
		return res
	}

	// Transient-fault arming: the hook drops first attempts while the
	// armed count is positive; retries (attempt > 0) always pass, so every
	// drop is recoverable.
	var armed atomic.Int64
	sys.SetBusFaultHook(func(busIdx int, m *types.Message, attempt int) bool {
		if attempt != 0 {
			return false
		}
		for {
			v := armed.Load()
			if v <= 0 {
				return false
			}
			if armed.CompareAndSwap(v, v-1) {
				return true
			}
		}
	})

	trips := make([]*trace.Trip, len(plan.Injections))
	faultErrs := make([]<-chan error, len(plan.Injections))
	for i, inj := range plan.Injections {
		trips[i] = sys.EventLog().Trip(inj.When.Matches, inj.K)
		faultErrs[i] = injectAt(trips[i], func(ev trace.Event) error {
			return applyFault(sys, inj, ev, &armed)
		})
	}
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = DefaultRunTimeout
	}
	res.watch(c.Scenario.Name, timeout, func() (string, error) { return c.Scenario.Run(sys) })
	for i, trip := range trips {
		res.Fired[i] = trip.Disarm()
		res.FaultErrs[i] = <-faultErrs[i]
	}
	res.collect(sys)
	return res
}

// applyFault performs one injection through the core facade. fireEv is the
// event that tripped the wire.
func applyFault(sys *core.System, inj Injection, fireEv trace.Event, armed *atomic.Int64) error {
	switch inj.Fault {
	case FaultNone:
		return nil
	case FaultClusterCrash:
		return sys.Crash(inj.Target)
	case FaultProcessCrash:
		pid := inj.TargetPID
		if inj.TargetFromEvent {
			pid = fireEv.PID
		}
		return sys.CrashProcess(pid)
	case FaultBusFailure:
		return sys.FailBus(inj.Bus)
	case FaultBusTransient:
		drops := inj.Drops
		if drops <= 0 {
			drops = 1
		}
		armed.Add(int64(drops))
		return nil
	case FaultDetectorFalsePositive:
		probes := inj.Probes
		if probes <= 0 {
			probes = 1
		}
		sys.InjectProbeFailures(inj.Target, probes)
		for i := 0; i < probes; i++ {
			sys.PollDetector()
		}
		return nil
	case FaultPartition:
		var err error
		switch inj.Shape {
		case PartitionAsymmetric:
			err = sys.PartitionCluster(inj.Target, true, false)
		case PartitionSingleBus:
			err = sys.PartitionCluster(inj.Target, true, true, 0)
		case PartitionSymmetric:
			err = sys.PartitionCluster(inj.Target, true, true)
		default:
			err = fmt.Errorf("chaos: unknown partition shape %v", inj.Shape)
		}
		if err != nil {
			return err
		}
		// A partition starves the event stream (callers block on their
		// unanswerable Calls), so detection cannot be scheduled on a later
		// event coordinate — drive the detector's periodic polling here
		// instead. Probes ride the bus: a fully inbound-cut cluster misses
		// every probe and is wrongly declared dead past the debounce; a
		// single-bus cut stays reachable on the other bus and the polls
		// change nothing.
		for i := 0; i < partitionPollRounds; i++ {
			sys.PollDetector()
		}
		return nil
	case FaultPartitionHeal:
		return sys.HealPartitions()
	case FaultBusDuplicate:
		sys.ArmBusDuplicates(max(inj.Drops, 1))
		return nil
	case FaultBusCorrupt:
		sys.ArmBusCorrupt(max(inj.Drops, 1))
		return nil
	case FaultBusDelay:
		gap := inj.Gap
		if gap <= 0 {
			gap = 4
		}
		sys.ArmBusDelay(max(inj.Drops, 1), gap)
		return nil
	default:
		return fmt.Errorf("chaos: unknown fault %v", inj.Fault)
	}
}

// SweepPoint records one swept coordinate that failed the oracle.
type SweepPoint struct {
	K       int
	Fired   bool
	Outcome string
	Err     error
	Verdict Verdict
}

// SweepReport summarizes one crash-point sweep.
type SweepReport struct {
	Ref *RunResult
	// Matches is the number of reference events matching the template's
	// predicate — the sweep's K range.
	Matches int
	Stride  int
	// Runs counts injected runs performed; Fired counts the ones whose
	// tripwire actually fired.
	Runs  int
	Fired int
	// Failures lists every swept point the oracle rejected.
	Failures []SweepPoint
}

// Sweep enumerates K over the reference run's events matching the
// template's predicate (stepping by stride), runs one injected run per
// coordinate, and applies the survival oracle to each. The template's K is
// ignored; every other field is used as-is.
func (c *Campaign) Sweep(seed int64, tmpl Injection, stride int) (*SweepReport, error) {
	if stride <= 0 {
		stride = 1
	}
	ref := c.Reference(seed)
	if ref.Err != nil {
		return nil, fmt.Errorf("chaos: reference run failed: %w", ref.Err)
	}
	rep := &SweepReport{Ref: ref, Matches: ref.MatchCount(tmpl.When), Stride: stride}
	for k := 1; k <= rep.Matches; k += stride {
		inj := tmpl
		inj.K = k
		run := c.Run(Plan{Seed: seed, Injections: []Injection{inj}})
		rep.Runs++
		if run.Fired[0] {
			rep.Fired++
		}
		if v := CheckSurvival(ref, run); !v.OK {
			rep.Failures = append(rep.Failures, SweepPoint{
				K: k, Fired: run.Fired[0], Outcome: run.Outcome, Err: run.Err, Verdict: v,
			})
		}
	}
	return rep, nil
}

// Burst plans: correlated multi-injection schedules. A burst fires two
// tolerated faults a few events apart — close enough that the second
// lands while the system is still mid-crash-handling for the first, far
// enough apart that each remains an individually tolerated single fault
// (one bus of two, one crashable cluster). The §6 contract has no
// "unless recovering" escape hatch, so the survival oracle applies to a
// burst run unchanged.

// partitionPollRounds is how many detector polls a partition injection
// drives: past the default debounce (2) plus its jitter extension (≤1),
// with one round of slack.
const partitionPollRounds = 4

// DefaultBurstSpacing is the event gap between a burst's injections:
// small enough to land inside crash handling (failover alone emits
// dozens of events), large enough that the tripwires observe distinct
// events.
const DefaultBurstSpacing = 12

// BusPlusCrashBurst fails one physical bus and then crashes a cluster
// while every transmission is squeezed onto the surviving bus.
func BusPlusCrashBurst(seed int64, k, busIdx int, target types.ClusterID) Plan {
	return Plan{Seed: seed, Injections: []Injection{
		{Fault: FaultBusFailure, When: Any(), K: k, Bus: busIdx},
		{Fault: FaultClusterCrash, When: Any(), K: k + DefaultBurstSpacing, Target: target},
	}}
}

// TransientPlusCrashBurst arms a transient transmission-drop storm and
// crashes a cluster while the retry machinery is absorbing the drops.
func TransientPlusCrashBurst(seed int64, k, drops int, target types.ClusterID) Plan {
	return Plan{Seed: seed, Injections: []Injection{
		{Fault: FaultBusTransient, When: Any(), K: k, Drops: drops},
		{Fault: FaultClusterCrash, When: Any(), K: k + DefaultBurstSpacing, Target: target},
	}}
}

// FalsePositivePlusCrashBurst makes the detector briefly lie about one
// cluster and then really crashes another: the false positive must be
// absorbed by the debounce even while genuine crash handling runs.
func FalsePositivePlusCrashBurst(seed int64, k int, accused, target types.ClusterID) Plan {
	return Plan{Seed: seed, Injections: []Injection{
		{Fault: FaultDetectorFalsePositive, When: Any(), K: k, Target: accused, Probes: 1},
		{Fault: FaultClusterCrash, When: Any(), K: k + DefaultBurstSpacing, Target: target},
	}}
}
