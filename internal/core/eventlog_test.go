package core

import (
	"fmt"
	"testing"
	"time"

	"auragen/internal/guest"
	"auragen/internal/trace"
	"auragen/internal/types"
	"auragen/internal/workload"
)

// TestEventLogRecords runs a crash scenario with the event log enabled and
// checks the interesting lifecycle events were captured.
func TestEventLogRecords(t *testing.T) {
	reg := guest.NewRegistry()
	workload.Register(reg)
	sys, err := New(Options{Clusters: 3, SyncReads: 4, EventLogLimit: 4096}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()

	// Crash the server's cluster at the 100th delivery, while the
	// 400-transaction teller still runs.
	crashed := crashAtDelivery(sys, 2, 100)
	if _, err := sys.Spawn("bank-server", []byte("el 8 100 0"), SpawnConfig{Cluster: 2, BackupCluster: 0}); err != nil {
		t.Fatal(err)
	}
	plan := workload.TxnPlan{Accounts: 8, Txns: 400, Amount: 1, Seed: 3}
	pid, err := sys.Spawn("teller", []byte("el -1 "+string(plan.Encode())), SpawnConfig{Cluster: 1})
	if err != nil {
		t.Fatal(err)
	}
	awaitFault(t, crashed)
	if err := sys.WaitExit(pid, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	log := sys.EventLog()
	if log == nil {
		t.Fatal("event log disabled despite EventLogLimit")
	}
	if log.Count(trace.EvSync) == 0 {
		t.Error("no sync events recorded")
	}
	if log.Count(trace.EvCrash) == 0 {
		t.Error("no crash events recorded")
	}
	if log.Count(trace.EvRecover) == 0 {
		t.Error("no recovery events recorded")
	}
}

// faultAt runs fault at the nth event the event log records that match
// accepts, and yields fault's result. The log's trip holds that event until
// the injecting goroutine has taken it, so the fault lands mid-run however
// the test goroutine is scheduled: a sleep-poll on a counter can oversleep
// the whole workload, and the test then passes without any fault. Pick n
// inside the run; awaitFault fails the test if the trip never fires.
func faultAt(sys *System, match func(trace.Event) bool, n int, fault func() error) <-chan error {
	trip := sys.EventLog().Trip(match, n)
	done := make(chan error, 1)
	go func() {
		trip.Wait()
		done <- fault()
	}()
	return done
}

// crashAtDelivery crashes cluster c at the nth delivery the event log
// records.
func crashAtDelivery(sys *System, c types.ClusterID, n int) <-chan error {
	return faultAt(sys, trace.EvDeliver.Matches, n, func() error { return sys.Crash(c) })
}

// awaitFault waits for faultAt's fault and fails the test if its trip never
// fired or the fault returned an error.
func awaitFault(t *testing.T, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the fault's trip never fired")
	}
}

// awaitProcOn waits until the directory places pid's primary on cluster c.
func awaitProcOn(t *testing.T, sys *System, pid types.PID, c types.ClusterID) {
	t.Helper()
	err := sys.await(fmt.Sprintf("%v on %v", pid, c), 5*time.Second, func() (string, error) {
		if loc, ok := sys.dir.Proc(pid); !ok || loc.Cluster != c {
			return fmt.Sprintf("at %+v", loc), nil
		}
		return "", nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
