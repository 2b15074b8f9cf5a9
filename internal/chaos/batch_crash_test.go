package chaos

import (
	"fmt"
	"testing"
	"time"

	"auragen/internal/chaos/leakcheck"
	"auragen/internal/core"
	"auragen/internal/trace"
	"auragen/internal/types"
	"auragen/internal/workload"
)

// batchCrashScenario replays the bank workload but lands the cluster-1
// crash deterministically INSIDE the batching window: the teller cluster's
// transmit loop is held, the test waits until enqueued messages have
// accumulated behind the hold (batch-enqueue done, batch-transmit not
// started), and only then crashes the cluster. Everything parked on the
// outgoing queue dies with the cluster — exactly the §7.8 "crash before the
// sync message leaves" case, stretched across a whole batch.
func batchCrashScenario() Scenario {
	base := sweepScenario()
	const accounts, initBalance, txns = 4, 100, 6
	plan := workload.TxnPlan{Accounts: accounts, Txns: txns, Amount: 7, Seed: 0xA4A4}
	sc := base
	sc.Name = "batch-crash"
	sc.Run = func(sys *core.System) (string, error) {
		if _, err := spawnOn(sys, "bank-server",
			fmt.Sprintf("chaos %d %d 0", accounts, initBalance), 2); err != nil {
			return "", err
		}
		teller, err := spawnOn(sys, "teller",
			fmt.Sprintf("chaos -1 %s", plan.Encode()), 1)
		if err != nil {
			return "", err
		}

		// Open the window: park the transmit loop, let the teller enqueue.
		k1 := sys.Kernel(1)
		k1.HoldTransmit(true)
		deadline := time.Now().Add(5 * time.Second)
		for k1.OutgoingBacklog() == 0 {
			if time.Now().After(deadline) {
				return "", fmt.Errorf("batch-crash: no outgoing backlog accumulated")
			}
			// No event marks an enqueue (the log sees a message only when
			// the bus takes it), and the transmit is held, so the
			// backlog is polled.
			time.Sleep(time.Millisecond)
		}
		// Crash lands between batch-enqueue and batch-transmit.
		if err := sys.Crash(1); err != nil {
			return "", err
		}

		if err := sys.WaitExit(teller, 60*time.Second); err != nil {
			return "", err
		}
		return probeBalances(sys, accounts)
	}
	return sc
}

// checkNoDoubleDelivery scans the event stream for a transmission received
// twice by the same cluster — the "no doubly-delivered frames" half of the
// batch survival oracle (the "no lost frames" half is the outcome check).
func checkNoDoubleDelivery(t *testing.T, events []trace.Event) {
	t.Helper()
	type rcpt struct {
		c  types.ClusterID
		id uint64
	}
	seen := make(map[rcpt]bool)
	for _, e := range events {
		if e.Kind != trace.EvReceive || e.MsgID == 0 {
			continue
		}
		k := rcpt{e.Cluster, e.MsgID}
		if seen[k] {
			t.Fatalf("transmission %d delivered twice to cluster %d", e.MsgID, e.Cluster)
		}
		seen[k] = true
	}
}

// TestCrashBetweenBatchEnqueueAndTransmit: a crash inside the
// batch-enqueue → batch-transmit window must be absorbed like any other
// single fault — same final balances as the fault-free reference, no frame
// lost or doubly delivered, no degradation, and no goroutines leaked by the
// batched transmit machinery.
func TestCrashBetweenBatchEnqueueAndTransmit(t *testing.T) {
	before := leakcheck.Baseline()

	ref := newCampaign().Reference(1)
	if ref.Err != nil {
		t.Fatalf("reference run failed: %v", ref.Err)
	}
	c := &Campaign{Scenario: batchCrashScenario(), Timeout: 90 * time.Second}
	run := c.Run(Plan{Seed: 1})
	if v := CheckSurvival(ref, run); !v.OK {
		t.Fatalf("mid-batch crash violated the survival oracle: %s", v)
	}
	checkNoDoubleDelivery(t, ref.Events)
	checkNoDoubleDelivery(t, run.Events)

	// Goroutine-leak check: both systems are stopped; the batched transmit
	// loop, inbox consumers, and held-transmit machinery must all have
	// unwound.
	leakcheck.Check(t, before, 4, 10*time.Second)
}
