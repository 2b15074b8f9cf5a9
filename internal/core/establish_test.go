package core

import (
	"testing"
	"time"

	"auragen/internal/types"
)

// TestEstablishmentAbortsWhenTargetDies starts an online backup
// re-establishment and kills the target cluster before it completes. The
// primary must resume (unbacked) rather than deadlock at its pause point,
// and the exchange must still finish.
func TestEstablishmentAbortsWhenTargetDies(t *testing.T) {
	sys := newTestSystem(t, 4)
	// First crash removes the backup (halfback: no replacement yet).
	crashed := crashAtDelivery(sys, 3, 300) // the BACKUP's cluster
	counterPID, err := sys.Spawn("counter", []byte("ea"), SpawnConfig{
		Cluster: 2, BackupCluster: 3, Mode: types.Halfback,
	})
	if err != nil {
		t.Fatal(err)
	}
	spawnClient(t, sys, "ea", 6000, SpawnConfig{Cluster: 1})
	awaitFault(t, crashed)
	// The primary keeps running on cluster 2, now unbacked.
	loc, _ := sys.Directory().Proc(counterPID)
	if loc.Cluster != 2 || loc.BackupCluster != types.NoCluster {
		t.Fatalf("after backup loss: %+v", loc)
	}

	// Restore cluster 3 — establishment begins — then kill it again
	// immediately, racing the handshake.
	if err := sys.Repair(3); err != nil {
		t.Fatal(err)
	}
	if err := sys.Crash(3); err != nil {
		t.Fatal(err)
	}

	// The exchange must still complete: either establishment finished
	// before the crash (and the promoted/unbacked primary carries on) or
	// it aborted and the primary resumed unbacked. Deadlock is the
	// failure mode this test exists to catch.
	waitForTTY(t, sys, 1, "final=6000", 30*time.Second)
}

// TestEstablishmentSurvivesConcurrentTraffic runs re-establishment while
// the exchange is in full flight and then crashes the primary: the
// re-established backup must reproduce the stream exactly.
func TestEstablishmentSurvivesConcurrentTraffic(t *testing.T) {
	for round := 0; round < 3; round++ {
		func() {
			sys := newTestSystem(t, 4)
			crashed := crashAtDelivery(sys, 3, 200)
			counterPID, err := sys.Spawn("counter", []byte("ec"), SpawnConfig{
				Cluster: 2, BackupCluster: 3, Mode: types.Halfback,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Stop()
			spawnClient(t, sys, "ec", 8000, SpawnConfig{Cluster: 1})
			awaitFault(t, crashed)
			// Restore mid-flight: the establishment handshake races live
			// request/reply traffic.
			if err := sys.Repair(3); err != nil {
				t.Fatal(err)
			}
			if err := sys.WaitBackups([]types.PID{counterPID}, 15*time.Second); err != nil {
				t.Fatalf("round %d: %v\n%s", round, err, sys.DumpAll())
			}
			// Let 200 more messages pass the establishment sync, then kill
			// the primary: the fresh backup must carry the rest exactly.
			awaitFault(t, crashAtDelivery(sys, 2, 200))
			waitForTTY(t, sys, 1, "final=8000", 30*time.Second)
		}()
	}
}
