// VM demo: a mid-computation crash, recovered from the program counter.
//
// The reactor guest model syncs at message boundaries; the deterministic
// register VM demonstrates the paper's sync snapshot at full fidelity: the
// sync message carries "the virtual address of the next instruction to be
// executed, current values in registers" (§5.2). Here an assembled program
// sums the integers 1..N in a tight loop with periodic syncs; its cluster
// is destroyed mid-loop; the backup resumes from the captured PC and
// registers plus the restored pages, finishes the sum, and reports it over
// a channel to a collector process.
//
// Run: go run ./examples/vmdemo
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"time"

	"auragen"
	"auragen/internal/trace"
	"auragen/internal/ttyserver"
	"auragen/internal/vm"
)

const n = 3_000_000

var program = vm.MustAssemble(`
	; r1 = i, r2 = N+1, r3 = sum
	.data 0x100 "chan:vmout"
	movi r4, 0x100
	movi r5, 10
	open r0, r4, r5        ; fd for the result channel
	movi r1, 1
	movi r2, 3000001
	movi r3, 0
loop:
	jge  r1, r2, done
	add  r3, r3, r1
	addi r1, r1, 1
	jmp  loop
done:
	movi r6, 0x200
	st   r3, r6, 0         ; result into memory
	movi r7, 8
	send r0, r6, r7        ; ship the 8-byte sum
	recv r0, r6, r7        ; wait for the collector's ack
	exit r3
`)

// collector receives the sum and prints it.
type collector struct{}

func (collector) Start(p auragen.API, st *auragen.State) error {
	fd, err := p.Open("chan:vmout")
	if err != nil {
		return err
	}
	st.PutInt64("fd", int64(fd))
	return nil
}

func (collector) OnMessage(p auragen.API, st *auragen.State, fd auragen.FD, data []byte) error {
	if int64(fd) != st.GetInt64("fd") || len(data) != 8 {
		return nil
	}
	sum := binary.LittleEndian.Uint64(data)
	tty, err := p.Open("tty:3")
	if err != nil {
		return err
	}
	if err := p.Write(tty, ttyserver.WriteReq(fmt.Sprintf("vm sum = %d", sum))); err != nil {
		return err
	}
	if err := p.Write(fd, []byte("ack")); err != nil {
		return err
	}
	st.Exit()
	return nil
}

func (collector) OnSignal(p auragen.API, st *auragen.State, sig auragen.Signal) error { return nil }

func main() {
	reg := auragen.NewRegistry()
	reg.Register("vmsum", vm.Factory(program))
	reg.Register("collector", auragen.ReactorFactory(func() auragen.Handler { return collector{} }))

	// SyncTicks bounds the roll-forward: the VM ticks once per
	// instruction, so it syncs about every 200k instructions. EventLogLimit
	// turns on a small event log: the crash below is a trip on it.
	sys, err := auragen.New(auragen.Options{Clusters: 3, SyncTicks: 200_000, EventLogLimit: 64}, reg)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Stop()

	if _, err := sys.Spawn("collector", nil, auragen.SpawnConfig{Cluster: 1, BackupCluster: 0}); err != nil {
		log.Fatal(err)
	}
	vmPID, err := sys.Spawn("vmsum", nil, auragen.SpawnConfig{Cluster: 2, BackupCluster: 0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vm %v summing 1..%d on cluster2 (backup on cluster0)\n", vmPID, n)

	// Let it sync a few times mid-loop, then kill its cluster.
	sys.EventLog().Trip(func(e trace.Event) bool { return e.Kind == trace.EvSync && e.PID == vmPID }, 4).Wait()
	fmt.Println("*** crash cluster2 at the VM's 4th sync (mid-loop) ***")
	if err := sys.Crash(2); err != nil {
		log.Fatal(err)
	}

	want := fmt.Sprintf("vm sum = %d", uint64(n)*(uint64(n)+1)/2)
	lines, err := sys.WaitTerminal(3, "vm sum = ", 1, 60*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	if lines[0] != want {
		log.Fatalf("terminal: %q, want %q", lines[0], want)
	}
	m := sys.Metrics()
	fmt.Println("terminal:", lines[0])
	fmt.Printf("correct: %v (expected %s)\n", true, want)
	fmt.Printf("recoveries=%d pages_fetched=%d syncs=%d\n",
		m.Recoveries.Load(), m.PagesFetched.Load(), m.Syncs.Load())
}
