// Campaign runner: boots one system per plan, arms tripwires on the event
// log, applies faults from dedicated injector goroutines, and collects the
// run's observable record for the oracle.
package chaos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"auragen/internal/core"
	"auragen/internal/guest"
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

// RunResult is the observable record of one run.
type RunResult struct {
	Plan Plan
	// Outcome is the scenario's canonical outcome string ("" on error).
	Outcome string
	// Err is the scenario error (nil on a clean run). Under a tolerated
	// single fault it must be nil; under a multiple failure it must wrap
	// types.ErrTooManyFailures.
	Err error
	// Hung reports that the watchdog expired before the scenario returned.
	Hung bool
	// Fired[i] reports whether injection i's tripwire fired. An injection
	// whose K exceeds this run's matching events never fires; the run is
	// then effectively fault-free.
	Fired []bool
	// FaultErrs[i] is the error from applying injection i (nil when it
	// applied cleanly or never fired).
	FaultErrs []error
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

// Run boots a fresh system, arms one tripwire per injection on the event
// log, and drives the scenario to completion under a watchdog. Tripwires
// do only atomic bookkeeping and a channel close inside the log's observer
// (which runs under the log mutex); the faults themselves are applied by
// injector goroutines through the core facade, exactly as an external
// operator would.
func (c *Campaign) Run(plan Plan) *RunResult {
	res := &RunResult{
		Plan:        plan,
		Fired:       make([]bool, len(plan.Injections)),
		FaultErrs:   make([]error, len(plan.Injections)),
		Replication: c.Scenario.Replication,
	}
	limit := c.Scenario.EventLogLimit
	if limit <= 0 {
		limit = DefaultEventLogLimit
	}
	reg := guest.NewRegistry()
	if c.Scenario.Register != nil {
		c.Scenario.Register(reg)
	}
	sys, err := core.New(core.Options{
		Clusters:         c.Scenario.Clusters,
		SyncReads:        c.Scenario.SyncReads,
		SyncTicks:        1 << 40,
		EventLogLimit:    limit,
		PageFetchTimeout: 5 * time.Second,
		Clock:            types.NewLogicalClock(plan.Seed, 0),
		ScheduleSeed:     plan.JitterSeed,
		Replication:      c.Scenario.Replication,
	}, reg)
	if err != nil {
		res.Err = err
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

	done := make(chan struct{})
	var wg sync.WaitGroup
	if n := len(plan.Injections); n > 0 {
		counts := make([]atomic.Int64, n)
		fires := make([]chan struct{}, n)
		fireEvs := make([]trace.Event, n)
		for i := range fires {
			fires[i] = make(chan struct{})
		}
		sys.EventLog().SetObserver(func(e trace.Event) {
			for i := range plan.Injections {
				inj := &plan.Injections[i]
				if !inj.When.Matches(e) {
					continue
				}
				k := int64(inj.K)
				if k <= 0 {
					k = 1
				}
				if counts[i].Add(1) == k {
					fireEvs[i] = e
					close(fires[i])
				}
			}
		})
		for i := range plan.Injections {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				select {
				case <-fires[i]:
				case <-done:
					return
				}
				res.Fired[i] = true
				res.FaultErrs[i] = applyFault(sys, plan.Injections[i], fireEvs[i], &armed)
			}(i)
		}
	}

	type outPair struct {
		out string
		err error
	}
	outCh := make(chan outPair, 1)
	go func() {
		out, err := c.Scenario.Run(sys)
		outCh <- outPair{out, err}
	}()
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = DefaultRunTimeout
	}
	select {
	case p := <-outCh:
		res.Outcome, res.Err = p.out, p.err
	case <-time.After(timeout):
		res.Hung = true
		res.Err = fmt.Errorf("chaos: scenario %q exceeded the %v watchdog", c.Scenario.Name, timeout)
	}
	close(done)
	wg.Wait()
	sys.EventLog().SetObserver(nil)
	res.Events = sys.EventLog().Events()
	res.LogDropped = sys.EventLog().Dropped()
	res.Metrics = sys.Metrics().Snapshot()
	res.Degraded = sys.Degraded()
	sys.Stop()
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
