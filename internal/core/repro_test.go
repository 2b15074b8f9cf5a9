package core

import (
	"fmt"
	"os"
	"testing"
	"time"

	"auragen/internal/types"
)

// DumpAll renders every kernel's state (debugging aid).
func (s *System) DumpAll() string {
	out := ""
	for _, k := range s.kernels {
		out += k.DumpState()
	}
	return out
}

// TestReproQuarterbackLoop hammers the quarterback crash scenario; enable
// with AURAGEN_REPRO=1 when chasing recovery hangs.
func TestReproQuarterbackLoop(t *testing.T) {
	if os.Getenv("AURAGEN_REPRO") == "" {
		t.Skip("set AURAGEN_REPRO=1 to run")
	}
	for iter := 0; iter < 50; iter++ {
		func() {
			sys := newTestSystem(t, 3)
			defer sys.Stop()
			crashed := crashAtDelivery(sys, 2, 300)
			_, err := sys.Spawn("counter", []byte("qb"), SpawnConfig{
				Cluster: 2, BackupCluster: 0, Mode: types.Quarterback,
			})
			if err != nil {
				t.Fatal(err)
			}
			spawnClient(t, sys, "qb", 4000, SpawnConfig{Cluster: 1})
			awaitFault(t, crashed)
			if _, err := sys.WaitTerminal(1, "final=4000", 1, 8*time.Second); err == nil {
				return
			}
			fmt.Printf("=== iter %d HUNG ===\n%s\n", iter, sys.DumpAll())
			t.Fatalf("iter %d: recovery hung", iter)
		}()
	}
}
