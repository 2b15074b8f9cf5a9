package chaos

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"auragen/internal/chaos/leakcheck"
	"auragen/internal/core"
	"auragen/internal/trace"
	"auragen/internal/types"
	"auragen/internal/workload"
)

// doubleFailScenario is the multiple-failure target: four clusters, with
// the teller's primary on cluster 2 and its backup on cluster 3 — both
// crashable without touching the server pair (clusters 0 and 1), so a
// double crash destroys the teller outright and the facade must report
// types.ErrTooManyFailures rather than hang.
func doubleFailScenario(accounts, txns int) Scenario {
	const initBalance = 100
	plan := workload.TxnPlan{Accounts: accounts, Txns: txns, Amount: 7, Seed: 0xA4A4}
	return Scenario{
		Boot: Boot{Name: "doublefail", Clusters: 4, SyncReads: 2, Register: sweepScenario().Register},
		Run: func(sys *core.System) (string, error) {
			if _, err := sys.Spawn("bank-server",
				[]byte(fmt.Sprintf("chaos %d %d 0", accounts, initBalance)),
				core.SpawnConfig{Cluster: 1}); err != nil {
				return "", err
			}
			teller, err := sys.Spawn("teller",
				[]byte(fmt.Sprintf("chaos -1 %s", plan.Encode())),
				core.SpawnConfig{Cluster: 2, BackupCluster: 3})
			if err != nil {
				return "", err
			}
			if err := sys.WaitExit(teller, 60*time.Second); err != nil {
				return "", err
			}
			prober, err := spawnOn(sys, "chaos-prober",
				fmt.Sprintf("chaos %d %d", accounts, proberTerm), 1)
			if err != nil {
				return "", err
			}
			if err := sys.WaitExit(prober, 30*time.Second); err != nil {
				return "", err
			}
			return terminalLine(sys, proberTerm, "balances ", 10*time.Second)
		},
	}
}

func newDoubleFailCampaign() *Campaign {
	return &Campaign{Scenario: doubleFailScenario(4, 6), Timeout: 90 * time.Second}
}

// TestDoubleClusterCrash crashes the teller's primary cluster and then its
// backup cluster mid-run: a multiple failure the system cannot mask. The
// contract is graceful degradation — the scenario terminates promptly with
// an error wrapping types.ErrTooManyFailures, never a deadlock or panic.
func TestDoubleClusterCrash(t *testing.T) {
	c := newDoubleFailCampaign()
	run := c.Run(Plan{Seed: 11, Injections: []Injection{
		{Fault: FaultClusterCrash, When: Any(), K: 80, Target: 2},
		{Fault: FaultClusterCrash, When: Any(), K: 120, Target: 3},
	}})
	if !run.Fired[0] || !run.Fired[1] {
		t.Fatalf("tripwires did not both fire: %v", run.Fired)
	}
	if v := CheckDegradation(run); !v.OK {
		t.Fatalf("double cluster crash not degraded gracefully: %s (outcome %q)", v, run.Outcome)
	}
}

// TestDoubleClusterCrashReversed kills the backup first, then the primary:
// the teller loses its safety net and then its life, in the opposite order.
func TestDoubleClusterCrashReversed(t *testing.T) {
	c := newDoubleFailCampaign()
	run := c.Run(Plan{Seed: 12, Injections: []Injection{
		{Fault: FaultClusterCrash, When: Any(), K: 80, Target: 3},
		{Fault: FaultClusterCrash, When: Any(), K: 120, Target: 2},
	}})
	if !run.Fired[0] || !run.Fired[1] {
		t.Fatalf("tripwires did not both fire: %v", run.Fired)
	}
	if v := CheckDegradation(run); !v.OK {
		t.Fatalf("reversed double crash not degraded gracefully: %s (outcome %q)", v, run.Outcome)
	}
}

// TestBackupCrashMidRollForward crashes the teller's primary, then crashes
// the backup cluster the moment it begins replaying saved messages — the
// narrowest window of §7.10.2 recovery. The half-recovered process is
// unrecoverable; the facade must say so with ErrTooManyFailures.
func TestBackupCrashMidRollForward(t *testing.T) {
	c := newDoubleFailCampaign()
	// Crash the primary just after the backup saves a message, so the
	// promotion on cluster 3 has a non-empty replay queue; the second
	// tripwire then fires on the first replay step itself.
	saved := OnKind(trace.EvSave)
	saved.Cluster = 3
	replay := OnKind(trace.EvReplay)
	replay.Cluster = 3
	run := c.Run(Plan{Seed: 13, Injections: []Injection{
		{Fault: FaultClusterCrash, When: saved, K: 3, Target: 2},
		{Fault: FaultClusterCrash, When: replay, K: 1, Target: 3},
	}})
	if !run.Fired[0] {
		t.Fatalf("primary-crash tripwire never fired")
	}
	if !run.Fired[1] {
		t.Skip("no replay on cluster 3 in this interleaving (backup had no saved messages)")
	}
	if v := CheckDegradation(run); !v.OK {
		t.Fatalf("mid-roll-forward backup crash not degraded gracefully: %s (outcome %q)", v, run.Outcome)
	}
}

// TestBothBusesDown fails both physical intercluster buses: every cluster
// is cut off, senders exhaust their retry budget, and the kernels must
// degrade — surfacing ErrTooManyFailures to blocked callers — rather than
// spin or deadlock.
func TestBothBusesDown(t *testing.T) {
	c := newDoubleFailCampaign()
	run := c.Run(Plan{Seed: 14, Injections: []Injection{
		{Fault: FaultBusFailure, When: Any(), K: 80, Bus: 0},
		{Fault: FaultBusFailure, When: Any(), K: 81, Bus: 1},
	}})
	if !run.Fired[0] || !run.Fired[1] {
		t.Fatalf("tripwires did not both fire: %v", run.Fired)
	}
	if v := CheckDegradation(run); !v.OK {
		t.Fatalf("double bus failure not degraded gracefully: %s (outcome %q)", v, run.Outcome)
	}
	if !run.Degraded {
		t.Fatal("no kernel reported degraded mode with both buses down")
	}
}

// TestDoubleFailureLeaksNoGoroutines runs a full double-crash campaign and
// requires the goroutine count to settle back to the baseline: degradation
// must unwind every blocked process goroutine, not abandon it.
func TestDoubleFailureLeaksNoGoroutines(t *testing.T) {
	base := leakcheck.Baseline()
	c := newDoubleFailCampaign()
	run := c.Run(Plan{Seed: 15, Injections: []Injection{
		{Fault: FaultClusterCrash, When: Any(), K: 80, Target: 2},
		{Fault: FaultClusterCrash, When: Any(), K: 120, Target: 3},
	}})
	if run.Hung {
		t.Fatalf("double-crash run hung: %v", run.Err)
	}
	if !errors.Is(run.Err, types.ErrTooManyFailures) {
		t.Fatalf("expected ErrTooManyFailures, got %v", run.Err)
	}
	leakcheck.Check(t, base, 3, 5*time.Second)
}
