package core

import (
	"errors"
	"testing"
	"time"

	"auragen/internal/trace"
	"auragen/internal/types"
)

// TestCrashSingleProcess exercises the §10 extension: an isolatable
// hardware failure kills one process; its backup takes over while every
// other process on the same cluster keeps running undisturbed.
func TestCrashSingleProcess(t *testing.T) {
	sys := newTestSystem(t, 3)

	// Victim pair: counter on cluster 2, backup on 0, crashed alone at the
	// 600th delivery.
	victimPID, err := sys.Spawn("counter", []byte("v"), SpawnConfig{Cluster: 2, BackupCluster: 0})
	if err != nil {
		t.Fatal(err)
	}
	crashed := faultAt(sys, trace.EvDeliver.Matches, 600, func() error { return sys.CrashProcess(victimPID) })
	spawnClient(t, sys, "v", 5000, SpawnConfig{Cluster: 1})

	// Bystander pair: a second, unrelated exchange on the SAME cluster 2.
	if _, err := sys.Spawn("counter", []byte("b"), SpawnConfig{Cluster: 2, BackupCluster: 0}); err != nil {
		t.Fatal(err)
	}
	spawnClient(t, sys, "b", 5000, SpawnConfig{Cluster: 2, BackupCluster: 0})

	awaitFault(t, crashed)

	// Both exchanges complete, the victim's via its backup: two final
	// lines on terminal 1.
	if _, err := sys.WaitTerminal(1, "final=5000", 2, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	loc, ok := sys.Directory().Proc(victimPID)
	if !ok || loc.Cluster != 0 {
		t.Fatalf("victim after crash: %+v ok=%v", loc, ok)
	}
	// The bystander's cluster never went down.
	if sys.Kernel(2).Crashed() {
		t.Fatal("single-process failure took the whole cluster down")
	}
	if sys.Metrics().Recoveries.Load() != 1 {
		t.Fatalf("recoveries = %d, want exactly 1", sys.Metrics().Recoveries.Load())
	}
}

// TestCrashProcessWithoutBackupIsLost documents the complementary case: a
// process with no backup is simply gone after an isolatable failure.
func TestCrashProcessWithoutBackupIsLost(t *testing.T) {
	sys := newTestSystem(t, 3)
	pid, err := sys.Spawn("counter", []byte("nb"), SpawnConfig{Cluster: 2, BackupCluster: NoBackup})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CrashProcess(pid); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitExit(pid, 5*time.Second); !errors.Is(err, types.ErrTooManyFailures) {
		t.Fatalf("unbacked process after its failure: %v, want it lost (types.ErrTooManyFailures)", err)
	}
	if sys.Kernel(2).Crashed() {
		t.Fatal("cluster went down")
	}
}

// TestCrashProcessErrors covers the error paths.
func TestCrashProcessErrors(t *testing.T) {
	sys := newTestSystem(t, 3)
	if err := sys.CrashProcess(types.PID(999)); err == nil {
		t.Fatal("crash of unknown pid accepted")
	}
	pid, err := sys.Spawn("counter", []byte("e"), SpawnConfig{Cluster: 2, BackupCluster: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Crash(2); err != nil {
		t.Fatal(err)
	}
	// After promotion the pid lives on cluster 0; crashing it there works.
	err = sys.await("promotion on cluster0", 5*time.Second, func() (string, error) {
		if _, ok := sys.Kernel(0).Proc(pid); !ok {
			return "not promoted", nil
		}
		return "", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CrashProcess(pid); err != nil {
		t.Fatalf("crash of promoted process: %v", err)
	}
}
