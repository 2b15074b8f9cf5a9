// auroasm assembles, disassembles, and runs programs for the deterministic
// process VM (internal/vm) — the guest model whose sync snapshots carry a
// genuine program counter and register file (§5.2).
//
// Usage:
//
//	auroasm prog.s                  # assemble and disassemble (validate)
//	auroasm -run prog.s             # run on a 3-cluster system
//	auroasm -run -crash-syncs 3 prog.s
//	                                # fail the program's cluster after its
//	                                # 3rd sync; the backup rolls forward
//
// The program's exit register value is printed when it halts.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"auragen/internal/core"
	"auragen/internal/guest"
	"auragen/internal/trace"
	"auragen/internal/types"
	"auragen/internal/vm"
)

var (
	flagRun        = flag.Bool("run", false, "run the program on a simulated system")
	flagCrashSyncs = flag.Uint64("crash-syncs", 0, "fail the program's cluster after this many syncs (0: never)")
	flagSyncTicks  = flag.Uint64("sync-ticks", 100_000, "instructions between syncs (§7.8 time trigger)")
	flagTimeout    = flag.Duration("timeout", 60*time.Second, "run timeout")
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	prog, err := vm.Assemble(string(src))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("; %d instructions, %d data segments\n%s", len(prog.Instrs), len(prog.Data), prog.Disassemble())
	if !*flagRun {
		return
	}

	reg := guest.NewRegistry()
	// Capture the machine instances so the exit status is readable; the
	// recovery instance is created by the kernel through this factory too
	// (on a kernel goroutine, hence the lock).
	var mu sync.Mutex
	var machines []*vm.Machine
	reg.Register("prog", func() guest.Guest {
		m := vm.NewMachine(prog)
		mu.Lock()
		machines = append(machines, m)
		mu.Unlock()
		return m
	})
	opts := core.Options{Clusters: 3, SyncTicks: *flagSyncTicks}
	if *flagCrashSyncs > 0 {
		opts.EventLogLimit = 64 // the crash is a trip on the event log
	}
	sys, err := core.New(opts, reg)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Stop()

	if *flagCrashSyncs > 0 {
		trip := sys.EventLog().Trip(func(e trace.Event) bool {
			return e.Kind == trace.EvSync && e.Cluster == 2
		}, int(*flagCrashSyncs))
		go func() {
			trip.Wait()
			fmt.Printf("; *** failing cluster2 after %d syncs ***\n", *flagCrashSyncs)
			if err := sys.Crash(2); err != nil {
				fmt.Println(";", err)
			}
		}()
	}
	pid, err := sys.Spawn("prog", nil, core.SpawnConfig{Cluster: 2, BackupCluster: 0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("; running as %v on cluster2 (backup on cluster0)\n", pid)

	if err := sys.WaitExit(pid, *flagTimeout); err != nil {
		log.Fatalf("%v (guest errors: %v)", err, sys.GuestErrors())
	}
	if errs := sys.GuestErrors(); len(errs) > 0 {
		log.Fatalf("program faulted: %v", errs)
	}
	// The last machine instance to run holds the final state.
	var final *vm.Machine
	mu.Lock()
	defer mu.Unlock()
	for _, m := range machines {
		if m.PC() != 0 {
			final = m
		}
	}
	if final != nil {
		fmt.Printf("; exit status = %d (pc=%d)\n", final.ExitStatus(), final.PC())
	}
	m := sys.Metrics()
	fmt.Printf("; syncs=%d recoveries=%d pages_fetched=%d\n",
		m.Syncs.Load(), m.Recoveries.Load(), m.PagesFetched.Load())
	_ = types.NoPID
}
