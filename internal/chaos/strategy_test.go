// Head-to-head strategy campaigns: every replication strategy must pass
// the same chaos suite — full-index crash sweeps, sequential
// fault→repair→fault plans, double-failure degradation, and the long-soak
// drift oracle — with the strategy-specific trace invariant applied to
// each run. A strategy that loses a pre-crash send, double-applies a
// replayed one, or drifts across repair cycles fails here regardless of
// which recovery mechanism it uses.
package chaos

import (
	"fmt"
	"testing"
	"time"

	"auragen/internal/replication"
	"auragen/internal/trace"
	"auragen/internal/types"
)

// TestStrategyCrashSweepEveryEvent races the three strategies through the
// tentpole sweep: a cluster crash at every event index of each strategy's
// own reference run (the teller's cluster, so the crash always hits a
// backed-up process mid-flight). -short strides the sweep.
func TestStrategyCrashSweepEveryEvent(t *testing.T) {
	for _, kind := range replication.All() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			c := &Campaign{
				Scenario: WithReplication(sweepScenario(), kind),
				Timeout:  90 * time.Second,
			}
			stride := 1
			if testing.Short() {
				stride = 17
			}
			tmpl := Injection{Fault: FaultClusterCrash, When: Any(), Target: 1}
			rep, err := c.Sweep(1, tmpl, stride)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Matches == 0 {
				t.Fatal("reference run recorded no events")
			}
			for _, f := range rep.Failures {
				t.Errorf("K=%d fired=%v: %s", f.K, f.Fired, f.Verdict)
			}
			if len(rep.Failures) > 0 {
				t.Fatalf("%d/%d swept crash points violated the survival contract",
					len(rep.Failures), rep.Runs)
			}
			if rep.Fired == 0 {
				t.Fatal("no swept tripwire ever fired")
			}
			t.Logf("swept %d crash points over %d reference events (stride %d, %d fired)",
				rep.Runs, rep.Matches, stride, rep.Fired)
		})
	}
}

// TestStrategyServerCrashSweep strides crashes of the bank server's own
// cluster under each strategy: the recovery path itself — roll-forward,
// decision replay, or logged-message replay — must reproduce the identical
// balance vector.
func TestStrategyServerCrashSweep(t *testing.T) {
	for _, kind := range replication.All() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			c := &Campaign{
				Scenario: WithReplication(sweepScenario(), kind),
				Timeout:  90 * time.Second,
			}
			stride := 7
			if testing.Short() {
				stride = 29
			}
			tmpl := Injection{Fault: FaultClusterCrash, When: Any(), Target: 2}
			rep, err := c.Sweep(2, tmpl, stride)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range rep.Failures {
				t.Errorf("K=%d fired=%v: %s", f.K, f.Fired, f.Verdict)
			}
			if len(rep.Failures) > 0 {
				t.Fatalf("%d/%d swept server-crash points violated the survival contract",
					len(rep.Failures), rep.Runs)
			}
		})
	}
}

// TestStrategySequentialAlternating runs the K=3 alternating sequential
// plan — crash, repair, redundancy restored, next crash, with one re-crash
// mid-re-integration — under each strategy, against that strategy's own
// fault-free reference.
func TestStrategySequentialAlternating(t *testing.T) {
	for _, kind := range replication.All() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			c := &SeqCampaign{
				Scenario: WithReplication(seqScenario(), kind),
				Timeout:  4 * time.Minute,
			}
			plan := altPlan(32)
			ref := c.Reference(plan)
			if ref.Err != nil {
				t.Fatalf("reference run failed: %v", ref.Err)
			}
			run := c.Run(plan)
			if v := CheckSequential(ref, run); !v.OK {
				t.Fatalf("sequential campaign violated the contract: %s", v)
			}
			if len(run.Steps) != len(plan.Steps) {
				t.Fatalf("ran %d steps, want %d", len(run.Steps), len(plan.Steps))
			}
		})
	}
}

// TestStrategyDoubleCrashDegrades destroys a process's primary and backup
// clusters under each strategy: none of the three recovery mechanisms can
// mask a double failure, and all must degrade to ErrTooManyFailures
// rather than hang. The teller runs a long plan so the absolute-index
// tripwires land while it is still alive under every strategy — llft and
// msglog runs emit fewer events than threeway's (no periodic syncs), so a
// short plan would let the teller exit before the wires trip.
func TestStrategyDoubleCrashDegrades(t *testing.T) {
	for _, kind := range replication.All() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			c := &Campaign{
				Scenario: WithReplication(doubleFailScenario(4, 40), kind),
				Timeout:  90 * time.Second,
			}
			run := c.Run(Plan{Seed: 11, Injections: []Injection{
				{Fault: FaultClusterCrash, When: Any(), K: 80, Target: 2},
				{Fault: FaultClusterCrash, When: Any(), K: 120, Target: 3},
			}})
			if !run.Fired[0] || !run.Fired[1] {
				t.Fatalf("tripwires did not both fire: %v", run.Fired)
			}
			if v := CheckDegradation(run); !v.OK {
				t.Fatalf("double crash not degraded gracefully: %s (outcome %q)", v, run.Outcome)
			}
		})
	}
}

// TestStrategySoakNoDrift runs the fault→repair→fault soak under each
// strategy, unjittered and under the schedule perturber: per-cycle
// fingerprints must stay flat for all three recovery mechanisms. -short
// shrinks the cycle count for the race-enabled CI lane.
func TestStrategySoakNoDrift(t *testing.T) {
	cycles := DefaultSoakCycles
	jittered := uint64(0x50AC)
	if testing.Short() {
		cycles = 6
	}
	for _, kind := range replication.All() {
		for _, jitter := range []uint64{0, jittered} {
			kind, jitter := kind, jitter
			t.Run(fmt.Sprintf("%s/jitter=%x", kind, jitter), func(t *testing.T) {
				n := cycles
				if jitter != 0 && !testing.Short() {
					// The jittered leg re-proves drift flatness under
					// perturbed interleavings; half-length keeps the full
					// matrix inside the suite budget.
					n = cycles / 2
				}
				cfg := soakConfig(n, jitter)
				cfg.Scenario = WithReplication(cfg.Scenario, kind)
				res := RunSoak(cfg)
				if !res.Verdict.OK {
					t.Fatalf("soak drifted:\n%s", res.VerdictStream())
				}
				if len(res.Cycles) != n {
					t.Fatalf("fingerprinted %d of %d cycles", len(res.Cycles), n)
				}
			})
		}
	}
}

// TestDecisionPrefixOracleRejects pins the llft oracle on fabricated
// streams: in-order replay of the recorded log passes; reordering,
// inventing, and replaying across an establishment capture are rejected.
func TestDecisionPrefixOracleRejects(t *testing.T) {
	save := func(pos uint64) trace.Event {
		return trace.Event{Kind: trace.EvSave, Cluster: 0, PID: types.PID(21),
			MsgKind: types.KindDecision, Arg: pos}
	}
	replay := func(pos uint64) trace.Event {
		return trace.Event{Kind: trace.EvReplay, Cluster: 0, PID: types.PID(21),
			MsgKind: types.KindDecision, Arg: pos}
	}
	recover := trace.Event{Kind: trace.EvRecover, Cluster: 0, PID: types.PID(21)}
	syncApply := trace.Event{Kind: trace.EvSyncApply, Cluster: 0, PID: types.PID(21)}

	if v := checkDecisionPrefix([]trace.Event{save(3), save(7), recover, replay(3), replay(7)}); len(v) != 0 {
		t.Fatalf("in-order replay rejected: %v", v)
	}
	if v := checkDecisionPrefix([]trace.Event{save(3), save(7), recover, replay(3)}); len(v) != 0 {
		t.Fatalf("legal unreplayed tail rejected: %v", v)
	}
	if v := checkDecisionPrefix([]trace.Event{save(3), save(7), recover, replay(7), replay(3)}); len(v) == 0 {
		t.Fatal("reordered replay accepted")
	}
	if v := checkDecisionPrefix([]trace.Event{recover, replay(3)}); len(v) == 0 {
		t.Fatal("invented replay accepted")
	}
	if v := checkDecisionPrefix([]trace.Event{save(3), syncApply, recover, replay(3)}); len(v) == 0 {
		t.Fatal("replay of a capture-subsumed decision accepted")
	}
}

// TestReplayCompletenessOracleRejects pins the msglog oracle: a replay run
// that is a suffix of the per-channel message log passes; a reordered,
// truncated-in-the-middle, or unlogged replay is rejected.
func TestReplayCompletenessOracleRejects(t *testing.T) {
	pid := types.PID(21)
	ch := types.ChannelID(9)
	save := func(id uint64) trace.Event {
		return trace.Event{Kind: trace.EvSave, Cluster: 0, PID: pid, Channel: ch,
			MsgKind: types.KindData, MsgID: id}
	}
	replay := func(id uint64) trace.Event {
		return trace.Event{Kind: trace.EvReplay, Cluster: 0, PID: pid, Channel: ch,
			MsgKind: types.KindData, MsgID: id}
	}
	recover := trace.Event{Kind: trace.EvRecover, Cluster: 0, PID: pid}

	if v := checkReplayCompleteness([]trace.Event{save(1), save(2), save(3), replay(2), replay(3), recover}); len(v) != 0 {
		t.Fatalf("suffix replay rejected: %v", v)
	}
	if v := checkReplayCompleteness([]trace.Event{save(1), save(2), replay(1), replay(2), recover}); len(v) != 0 {
		t.Fatalf("full replay rejected: %v", v)
	}
	if v := checkReplayCompleteness([]trace.Event{save(1), save(2), save(3), replay(3), replay(2), recover}); len(v) == 0 {
		t.Fatal("reordered replay accepted")
	}
	if v := checkReplayCompleteness([]trace.Event{save(1), save(2), save(3), replay(1), replay(2), recover}); len(v) == 0 {
		t.Fatal("replay dropping the newest logged message accepted")
	}
	if v := checkReplayCompleteness([]trace.Event{save(1), replay(4), recover}); len(v) == 0 {
		t.Fatal("unlogged replay accepted")
	}
}
