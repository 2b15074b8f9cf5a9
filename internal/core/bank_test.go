package core

import (
	"fmt"
	"testing"
	"time"

	"auragen/internal/guest"
	"auragen/internal/ttyserver"
	"auragen/internal/types"
	"auragen/internal/workload"
)

func newBankSystem(t *testing.T, clusters int) *System {
	t.Helper()
	reg := guest.NewRegistry()
	workload.Register(reg)
	sys, err := New(Options{Clusters: clusters, SyncReads: 8, SyncTicks: 1 << 20, EventLogLimit: 1 << 12}, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	return sys
}

// runBank spawns a bank server plus tellers, optionally crashes a cluster
// mid-run, waits for the tellers, audits, and returns the audited total.
func runBank(t *testing.T, sys *System, tellers, txnsPerTeller int, crash types.ClusterID) int64 {
	t.Helper()
	const accounts, initBalance = 20, 1000
	var crashed <-chan error
	if crash != types.NoCluster {
		crashed = crashAtDelivery(sys, crash, 400)
	}
	serverArgs := fmt.Sprintf("bank %d %d %d", accounts, initBalance, tellers+1)
	if _, err := sys.Spawn("bank-server", []byte(serverArgs), SpawnConfig{Cluster: 2, BackupCluster: 0}); err != nil {
		t.Fatal(err)
	}
	var tellerPIDs []types.PID
	for i := 0; i < tellers; i++ {
		plan := workload.TxnPlan{Accounts: accounts, Txns: txnsPerTeller, Amount: 7, Seed: uint64(i + 1)}
		args := fmt.Sprintf("bank -1 %s", plan.Encode())
		cl := types.ClusterID(1)
		if sys.Clusters() > 3 {
			cl = types.ClusterID(1 + i%(sys.Clusters()-2))
			if cl >= 2 {
				cl++
			}
			if int(cl) >= sys.Clusters() {
				cl = 1
			}
		}
		pid, err := sys.Spawn("teller", []byte(args), SpawnConfig{Cluster: cl})
		if err != nil {
			t.Fatal(err)
		}
		tellerPIDs = append(tellerPIDs, pid)
	}

	if crashed != nil {
		awaitFault(t, crashed)
	}

	for _, pid := range tellerPIDs {
		if err := sys.WaitExit(pid, 30*time.Second); err != nil {
			t.Fatalf("teller %s: %v\n%s", pid, err, sys.DumpAll())
		}
	}

	// Audit over the last paired channel.
	audCluster := types.ClusterID(1)
	if crash == audCluster {
		audCluster = 0
	}
	if _, err := sys.Spawn("auditor", []byte("bank 11"), SpawnConfig{Cluster: audCluster}); err != nil {
		t.Fatal(err)
	}
	return auditTotal(t, sys, 11)
}

// auditTotal waits for the auditor's line on terminal term and returns the
// total it reports.
func auditTotal(t *testing.T, sys *System, term int) int64 {
	t.Helper()
	lines, err := sys.WaitTerminal(term, "audit total=", 1, 20*time.Second)
	if err != nil {
		t.Fatalf("%v\n%s", err, sys.DumpAll())
	}
	var total int64
	fmt.Sscanf(lines[0], "audit total=%d", &total)
	return total
}

func TestBankConservationNoFault(t *testing.T) {
	sys := newBankSystem(t, 3)
	total := runBank(t, sys, 3, 200, types.NoCluster)
	if total != 20*1000 {
		t.Fatalf("total = %d, want %d", total, 20*1000)
	}
}

func TestBankConservationServerCrash(t *testing.T) {
	sys := newBankSystem(t, 3)
	total := runBank(t, sys, 3, 800, 2) // crash the bank server's cluster
	if total != 20*1000 {
		t.Fatalf("conservation violated after crash: total = %d, want %d", total, 20*1000)
	}
}

func TestBankConservationTellerCrash(t *testing.T) {
	sys := newBankSystem(t, 3)
	total := runBank(t, sys, 2, 800, 1) // crash the tellers' cluster
	if total != 20*1000 {
		t.Fatalf("conservation violated after teller crash: total = %d", total)
	}
}

// TestBankExactBalancesAfterCrash checks more than conservation: every
// individual account balance must equal an independently recomputed shadow
// ledger, proving each transfer applied exactly once across the crash.
func TestBankExactBalancesAfterCrash(t *testing.T) {
	sys := newBankSystem(t, 3)
	const tellers, txns, accounts, initBalance = 2, 600, 20, 1000

	serverArgs := fmt.Sprintf("bankx %d %d %d", accounts, initBalance, tellers+1)
	if _, err := sys.Spawn("bank-server", []byte(serverArgs), SpawnConfig{Cluster: 2, BackupCluster: 0}); err != nil {
		t.Fatal(err)
	}
	crashed := crashAtDelivery(sys, 2, 400)
	var tellerPIDs []types.PID
	for i := 0; i < tellers; i++ {
		plan := workload.TxnPlan{Accounts: accounts, Txns: txns, Amount: 7, Seed: uint64(i + 1)}
		args := fmt.Sprintf("bankx -1 %s", plan.Encode())
		pid, err := sys.Spawn("teller", []byte(args), SpawnConfig{Cluster: 1})
		if err != nil {
			t.Fatal(err)
		}
		tellerPIDs = append(tellerPIDs, pid)
	}

	awaitFault(t, crashed)
	for _, pid := range tellerPIDs {
		if err := sys.WaitExit(pid, 30*time.Second); err != nil {
			t.Fatalf("teller %s: %v\n%s", pid, err, sys.DumpAll())
		}
	}

	// The checker pairs on the spare channel, recomputes the shadow
	// ledger from the plans, queries every balance, and reports.
	sys.Register("balcheck", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				shadow := make([]int64, accounts)
				for i := range shadow {
					shadow[i] = initBalance
				}
				for ti := 0; ti < tellers; ti++ {
					plan := workload.TxnPlan{Accounts: accounts, Txns: txns, Amount: 7, Seed: uint64(ti + 1)}
					for i := 0; i < txns; i++ {
						f, to, a := plan.Txn(i)
						shadow[f] -= int64(a)
						shadow[to] += int64(a)
					}
				}
				fd, err := p.Open("dial:bankx")
				if err != nil {
					return err
				}
				for i := 0; i < accounts; i++ {
					reply, err := p.Call(fd, workload.BalReq(i))
					if err != nil {
						return err
					}
					var bal int64
					if _, err := fmt.Sscanf(string(reply), "bal %d", &bal); err != nil {
						return fmt.Errorf("bad bal reply %q", reply)
					}
					if bal != shadow[i] {
						return fmt.Errorf("account %d: bal %d, want %d", i, bal, shadow[i])
					}
				}
				tty, err := p.Open("tty:12")
				if err != nil {
					return err
				}
				if err := p.Write(tty, ttyWriteReq("balances ok")); err != nil {
					return err
				}
				st.Exit()
				return nil
			},
		}
	}))
	if _, err := sys.Spawn("balcheck", nil, SpawnConfig{Cluster: 1}); err != nil {
		t.Fatal(err)
	}
	waitForTTY(t, sys, 12, "balances ok", 20*time.Second)
}

// ttyWriteReq avoids importing ttyserver twice in test files.
func ttyWriteReq(line string) []byte { return ttyserver.WriteReq(line) }
