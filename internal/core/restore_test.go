package core

import (
	"testing"
	"time"

	"auragen/internal/types"
)

// TestHalfbackRebackupOnRestore exercises the full §7.3 halfback cycle:
// crash → degraded (no backup) → cluster returns to service → new backup
// established online → a second crash of the primary's cluster is survived
// using the re-established backup.
func TestHalfbackRebackupOnRestore(t *testing.T) {
	sys := newTestSystem(t, 4)
	// First crash: the counter's cluster 2 dies; its backup on 3 takes
	// over, with no new backup (halfback).
	crashed := crashAtDelivery(sys, 2, 400)
	counterPID, err := sys.Spawn("counter", []byte("hb"), SpawnConfig{
		Cluster: 2, BackupCluster: 3, Mode: types.Halfback,
	})
	if err != nil {
		t.Fatal(err)
	}
	spawnClient(t, sys, "hb", 9000, SpawnConfig{Cluster: 1})
	awaitFault(t, crashed)
	awaitProcOn(t, sys, counterPID, 3)
	loc, _ := sys.Directory().Proc(counterPID)
	if loc.Cluster != 3 || loc.BackupCluster != types.NoCluster {
		t.Fatalf("after first crash: %+v", loc)
	}

	// Cluster 2 returns to service: the halfback gets a new backup there,
	// established online while the exchange keeps running.
	if err := sys.Repair(2); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitBackups([]types.PID{counterPID}, 10*time.Second); err != nil {
		t.Fatalf("%v\n%s", err, sys.DumpAll())
	}
	loc, _ = sys.Directory().Proc(counterPID)
	if loc.BackupCluster != 2 {
		t.Fatalf("re-backup landed on %v, want cluster2", loc.BackupCluster)
	}

	// Let the exchange progress past the establishment sync, then crash
	// the new primary: the re-established backup must carry it.
	awaitFault(t, crashAtDelivery(sys, 3, 400))

	waitForTTY(t, sys, 1, "final=9000", 30*time.Second)
	loc, _ = sys.Directory().Proc(counterPID)
	if loc.Cluster != 2 {
		t.Fatalf("after second crash, counter on %v, want restored cluster2", loc.Cluster)
	}
}

// TestRestoreServerCluster restores cluster 0 after its crash and verifies
// that (a) the promoted servers on cluster 1 acquire twins on the restored
// cluster and (b) a subsequent crash of cluster 1 is survived by those
// twins — file contents intact.
func TestRestoreServerCluster(t *testing.T) {
	sys := newTestSystem(t, 3)
	// A long-lived writer in two phases, paced by nudges from a feeder.
	// Crash the server cluster, let the system recover, finish phase one.
	crashed := crashAtDelivery(sys, 0, 200)
	if _, err := sys.Spawn("counter", []byte("rsc"), SpawnConfig{Cluster: 2, BackupCluster: 1}); err != nil {
		t.Fatal(err)
	}
	spawnClient(t, sys, "rsc", 2000, SpawnConfig{Cluster: 1, BackupCluster: 2})
	awaitFault(t, crashed)
	waitForTTY(t, sys, 1, "final=2000", 20*time.Second)

	// Restore cluster 0: server twins mount there.
	if err := sys.Repair(0); err != nil {
		t.Fatal(err)
	}
	sys.Settle(2 * time.Second)

	// Phase two against the restored configuration, then kill cluster 1
	// (the surviving server primaries): the twins on restored cluster 0
	// must take over.
	crashed = crashAtDelivery(sys, 1, 200)
	if _, err := sys.Spawn("counter", []byte("rsc2"), SpawnConfig{Cluster: 2, BackupCluster: 0}); err != nil {
		t.Fatal(err)
	}
	spawnClient(t, sys, "rsc2", 2500, SpawnConfig{Cluster: 2, BackupCluster: 0})
	awaitFault(t, crashed)
	// Phase-2 output arrives via the promoted tty twin on cluster 0.
	waitForTTY(t, sys, 1, "final=2500", 30*time.Second)
}
