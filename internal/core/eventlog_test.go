package core

import (
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
	awaitCrash(t, crashed)
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

// crashAtDelivery crashes cluster c at the nth delivery the event log
// records. The log's trip holds that delivery until the crashing goroutine
// has taken it, so the crash lands mid-run however the test goroutine is
// scheduled: a sleep-poll on the delivery count can oversleep the whole
// workload. The channel yields the crash's result.
func crashAtDelivery(sys *System, c types.ClusterID, n int) <-chan error {
	trip := sys.EventLog().Trip(func(e trace.Event) bool { return e.Kind == trace.EvDeliver }, n)
	crashed := make(chan error, 1)
	go func() {
		trip.Wait()
		crashed <- sys.Crash(c)
	}()
	return crashed
}

// awaitCrash waits for crashAtDelivery's crash.
func awaitCrash(t *testing.T, crashed <-chan error) {
	t.Helper()
	select {
	case err := <-crashed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the crash's delivery never came")
	}
}
