package core

import (
	"testing"
	"time"

	"auragen/internal/guest"
	"auragen/internal/trace"
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
	fired := make(chan struct{})
	delivered := 0 // the observer runs under the log's mutex
	sys.EventLog().SetObserver(func(e trace.Event) {
		if e.Kind == trace.EvDeliver {
			if delivered++; delivered == 100 {
				close(fired)
			}
		}
	})
	crashed := make(chan error, 1)
	go func() {
		<-fired
		crashed <- sys.Crash(2)
	}()

	if _, err := sys.Spawn("bank-server", []byte("el 8 100 0"), SpawnConfig{Cluster: 2, BackupCluster: 0}); err != nil {
		t.Fatal(err)
	}
	plan := workload.TxnPlan{Accounts: 8, Txns: 400, Amount: 1, Seed: 3}
	pid, err := sys.Spawn("teller", []byte("el -1 "+string(plan.Encode())), SpawnConfig{Cluster: 1})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-crashed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the 100th delivery never came")
	}
	sys.EventLog().SetObserver(nil)
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
