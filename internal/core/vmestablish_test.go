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

// vmAdder echoes a running total like vmTallyReal, but is used here as a
// halfback whose backup is re-established online while it is BLOCKED in
// recv — exercising the VM read-safe pause gate (guest.ReadSafePointer).
var vmAdder = vm.MustAssemble(`
	.data 0x100 "chan:est"
	movi r4, 0x100
	movi r5, 8
	open r0, r4, r5
	movi r8, 0x400
	movi r9, 0x300
loop:
	recv r0, r9, r2
	ld   r1, r9, 0
	ld   r3, r8, 0
	add  r3, r3, r1
	st   r3, r8, 0
	st   r3, r9, 0
	movi r7, 8
	send r0, r9, r7
	jmp  loop
`)

func TestVMEstablishmentWhileBlockedInRecv(t *testing.T) {
	reg := guest.NewRegistry()
	reg.Register("vmadder", vm.Factory(vmAdder))

	const n = 4000
	reg.Register("vmdriver", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				fd, err := p.Open("chan:est")
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
					return fmt.Errorf("tally mismatch: sent=%d got=%d want=%d", sent, got, want)
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

	sys, err := New(Options{Clusters: 4, SyncReads: 16, SyncTicks: 1 << 40, EventLogLimit: 1 << 12}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()

	crashed := crashAtDelivery(sys, 3, 100)
	adderPID, err := sys.Spawn("vmadder", nil, SpawnConfig{Cluster: 2, BackupCluster: 3, Mode: types.Halfback})
	if err != nil {
		t.Fatal(err)
	}
	driverPID, err := sys.Spawn("vmdriver", nil, SpawnConfig{Cluster: 1, BackupCluster: 0})
	if err != nil {
		t.Fatal(err)
	}

	// Lose the VM's backup, then restore its cluster mid-stream: the
	// establishment must pause the VM — possibly while blocked in recv —
	// snapshot registers+memory, and hand the new backup a consistent
	// state.
	awaitFault(t, crashed)
	if err := sys.Repair(3); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitBackups([]types.PID{adderPID}, 15*time.Second); err != nil {
		t.Fatalf("%v\n%s", err, sys.DumpAll())
	}

	// Now kill the VM's primary: the established backup resumes from the
	// captured PC/registers/memory and the totals must stay exact.
	awaitFault(t, crashAtDelivery(sys, 2, 100))

	if err := sys.WaitExit(driverPID, 30*time.Second); err != nil {
		t.Fatalf("%v\nguestErrs=%v\n%s", err, sys.GuestErrors(), sys.DumpAll())
	}
	if errs := sys.GuestErrors(); len(errs) != 0 {
		t.Fatalf("guest errors: %v", errs)
	}
}
