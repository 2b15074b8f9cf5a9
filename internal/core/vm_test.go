package core

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"auragen/internal/guest"
	"auragen/internal/types"
	"auragen/internal/vm"
)

// vmTallyReal receives 8-byte numbers on a paired channel, accumulates the
// total in MEMORY (not just registers), and echoes the running total. The
// memory accumulation makes page restore load-bearing for correctness.
var vmTallyReal = vm.MustAssemble(`
	.data 0x100 "chan:tally"
	movi r4, 0x100
	movi r5, 10
	open r0, r4, r5
	movi r8, 0x400       ; total address
	movi r9, 0x300       ; receive buffer
loop:
	recv r0, r9, r2      ; 8-byte value into memory[0x300]
	ld   r1, r9, 0       ; r1 = value
	ld   r3, r8, 0       ; r3 = total
	add  r3, r3, r1
	st   r3, r8, 0       ; total back to memory
	st   r3, r9, 0
	movi r7, 8
	send r0, r9, r7      ; echo running total
	jmp  loop
`)

func TestVMGuestSurvivesCrashWithMemoryState(t *testing.T) {
	reg := guest.NewRegistry()
	reg.Register("vmtally", vm.Factory(vmTallyReal))

	const n = 500
	reg.Register("driver", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				fd, err := p.Open("chan:tally")
				if err != nil {
					return err
				}
				st.PutInt64("fd", int64(fd))
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], 1)
				st.PutInt64("sent", 1)
				return p.Write(fd, b[:])
			},
			OnMessageFunc: func(p guest.API, st *guest.State, fd types.FD, data []byte) error {
				if int64(fd) != st.GetInt64("fd") || len(data) != 8 {
					return nil
				}
				got := binary.LittleEndian.Uint64(data)
				sent := st.GetInt64("sent")
				if want := uint64(sent) * (uint64(sent) + 1) / 2; got != want {
					return fmt.Errorf("tally after %d sends = %d, want %d", sent, got, want)
				}
				if sent >= n {
					st.Exit()
					return nil
				}
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], uint64(sent+1))
				st.PutInt64("sent", sent+1)
				return p.Write(fd, b[:])
			},
		}
	}))

	sys, err := New(Options{Clusters: 3, SyncReads: 16, SyncTicks: 1 << 40, EventLogLimit: 1 << 12}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	crashed := crashAtDelivery(sys, 2, 200)

	if _, err := sys.Spawn("vmtally", nil, SpawnConfig{Cluster: 2, BackupCluster: 0}); err != nil {
		t.Fatal(err)
	}
	driverPID, err := sys.Spawn("driver", nil, SpawnConfig{Cluster: 1})
	if err != nil {
		t.Fatal(err)
	}

	awaitCrash(t, crashed)

	if err := sys.WaitExit(driverPID, 30*time.Second); err != nil {
		t.Fatalf("%v\nguest errors: %v\n%s", err, sys.GuestErrors(), sys.DumpAll())
	}

	// The driver verified every running total; a mismatch surfaces as a
	// guest error.
	if errs := sys.GuestErrors(); len(errs) != 0 {
		t.Fatalf("guest errors: %v", errs)
	}
	if sys.Metrics().Recoveries.Load() == 0 {
		t.Fatal("no recovery happened")
	}
	if sys.Metrics().PagesFetched.Load() == 0 {
		t.Fatal("promoted VM fetched no pages despite memory-resident state")
	}
}
