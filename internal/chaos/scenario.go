// Scenario definitions: the workloads campaigns inject faults into. A
// scenario's outcome string is its whole observable behavior — the oracle
// compares it against the fault-free reference, so it must be a pure
// function of the workload (never of placement, timing, or fault count).
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"auragen/internal/core"
	"auragen/internal/guest"
	"auragen/internal/replication"
	"auragen/internal/ttyserver"
	"auragen/internal/types"
	"auragen/internal/workload"
)

// Boot is what a campaign needs to boot a scenario's system: the fields
// Scenario and SeqScenario share.
type Boot struct {
	Name string
	// Clusters and SyncReads configure the booted system.
	Clusters  int
	SyncReads uint32
	// Replication selects the backup-protocol strategy the booted system
	// runs (zero value: the paper's three-way scheme). The oracle applies
	// the matching strategy invariant to the run's trace.
	Replication replication.Kind
	// EventLogLimit bounds the run's event ring (0 selects a campaign
	// default large enough that sweeps never overflow).
	EventLogLimit int
	// Register installs the guest programs the scenario spawns.
	Register func(*guest.Registry)
}

// boot starts the system for one run, its logical clock seeded by seed and
// its schedule perturbed by jitter (0: unperturbed), and opens rec for the
// run. It returns nil, with rec.Err set, when the system does not boot.
func (b *Boot) boot(rec *Record, seed int64, jitter uint64) *core.System {
	rec.Replication = b.Replication
	limit := b.EventLogLimit
	if limit <= 0 {
		limit = DefaultEventLogLimit
	}
	reg := guest.NewRegistry()
	if b.Register != nil {
		b.Register(reg)
	}
	sys, err := core.New(core.Options{
		Clusters:         b.Clusters,
		SyncReads:        b.SyncReads,
		SyncTicks:        1 << 40,
		EventLogLimit:    limit,
		PageFetchTimeout: 5 * time.Second,
		Clock:            types.NewLogicalClock(seed, 0),
		ScheduleSeed:     jitter,
		Replication:      b.Replication,
	}, reg)
	if err != nil {
		rec.Err = err
		return nil
	}
	return sys
}

func (b *Boot) setReplication(k replication.Kind) { b.Replication = k }

// WithReplication returns a copy of s, a Scenario or a SeqScenario, running
// under the given backup-protocol strategy.
func WithReplication[S any, P interface {
	*S
	setReplication(replication.Kind)
}](s S, k replication.Kind) S {
	P(&s).setReplication(k)
	return s
}

// Scenario is one injectable workload.
type Scenario struct {
	Boot
	// Run drives the workload to completion and returns the canonical
	// outcome string. Waits inside Run must be bounded: under a double
	// failure the facade returns types.ErrTooManyFailures, and Run must
	// surface that error rather than retry forever.
	Run func(sys *core.System) (string, error)
}

// proberTerm is the terminal the balance prober reports on.
const proberTerm = 52

// BankScenario is the standard sweep target: a bank server (cluster 2,
// backup 0) applies a deterministic transfer plan driven by one teller
// (cluster 1, backup 0); afterwards a prober reads back every account
// balance and the audited total. The outcome line is the full balance
// vector, so the oracle catches lost transfers AND duplicated ones — a
// double-applied xfer conserves the total but moves two balances.
// SaturatedBankScenario is the burst campaigns' workload: the same bank
// scenario with enough accounts and transfers that the teller keeps the
// executive coalescing continuously, so burst injections land while
// the bus is saturated rather than idle.
func SaturatedBankScenario(name string) Scenario {
	return BankScenario(name, 8, 40, 2)
}

func BankScenario(name string, accounts, txns int, syncReads uint32) Scenario {
	const initBalance = 100
	plan := workload.TxnPlan{Accounts: accounts, Txns: txns, Amount: 7, Seed: 0xA4A4}
	return Scenario{
		Boot: bankBoot(name, syncReads),
		Run: func(sys *core.System) (string, error) {
			if _, err := spawnOn(sys, "bank-server",
				fmt.Sprintf("chaos %d %d 0", accounts, initBalance), 2); err != nil {
				return "", err
			}
			teller, err := spawnOn(sys, "teller",
				fmt.Sprintf("chaos -1 %s", plan.Encode()), 1)
			if err != nil {
				return "", err
			}
			if err := sys.WaitExit(teller, 60*time.Second); err != nil {
				return "", err
			}
			prober, err := spawnOn(sys, "chaos-prober",
				fmt.Sprintf("chaos %d %d", accounts, proberTerm), 1)
			if err != nil {
				return "", err
			}
			if err := sys.WaitExit(prober, 30*time.Second); err != nil {
				return "", err
			}
			return terminalLine(sys, proberTerm, "balances ", 10*time.Second)
		},
	}
}

// bankBoot is the bank scenarios' boot: three clusters running the workload
// programs and the balance prober.
func bankBoot(name string, syncReads uint32) Boot {
	return Boot{
		Name:      name,
		Clusters:  3,
		SyncReads: syncReads,
		Register: func(reg *guest.Registry) {
			workload.Register(reg)
			reg.Register("chaos-prober", proberFactory())
		},
	}
}

// proberFactory builds the balance prober: it dials a bank server, reads
// every account balance plus the audited total, and reports one line —
// "balances v0,v1,... total=T" — on its terminal. Args:
// "<serviceName> <accounts> <term>".
func proberFactory() guest.Factory {
	return guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				parts := strings.Fields(string(p.Args()))
				if len(parts) != 3 {
					return fmt.Errorf("chaos-prober: bad args %q", p.Args())
				}
				accounts, err := strconv.Atoi(parts[1])
				if err != nil {
					return err
				}
				fd, err := p.Open("dial:" + parts[0])
				if err != nil {
					return err
				}
				var b strings.Builder
				b.WriteString("balances ")
				for i := 0; i < accounts; i++ {
					reply, err := p.Call(fd, workload.BalReq(i))
					if err != nil {
						return err
					}
					var bal int64
					if _, err := fmt.Sscanf(string(reply), "bal %d", &bal); err != nil {
						return fmt.Errorf("chaos-prober: bad reply %q", reply)
					}
					if i > 0 {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, "%d", bal)
				}
				reply, err := p.Call(fd, workload.AuditReq())
				if err != nil {
					return err
				}
				var total, serial int64
				if _, err := fmt.Sscanf(string(reply), "total %d %d", &total, &serial); err != nil {
					return fmt.Errorf("chaos-prober: bad audit reply %q", reply)
				}
				fmt.Fprintf(&b, " total=%d", total)
				tty, err := p.Open("tty:" + parts[2])
				if err != nil {
					return err
				}
				if err := p.Write(tty, ttyserver.WriteReq(b.String())); err != nil {
					return err
				}
				st.Exit()
				return nil
			},
		}
	})
}

// spawnOn places a process on the preferred cluster, falling back to any
// live cluster when the preferred one is down. Placement is a scheduling
// decision, not part of the survival contract — an operator resubmits a
// job whose target cluster just failed — so scenarios stay runnable at
// every injection coordinate, including ones that fire before their spawns.
func spawnOn(sys *core.System, prog, args string, preferred types.ClusterID) (types.PID, error) {
	pid, err := sys.Spawn(prog, []byte(args), core.SpawnConfig{Cluster: preferred})
	if err == nil {
		return pid, nil
	}
	for _, c := range sys.Live() {
		if c == preferred {
			continue
		}
		if pid, e := sys.Spawn(prog, []byte(args), core.SpawnConfig{Cluster: c}); e == nil {
			return pid, nil
		}
	}
	return types.NoPID, err
}

// terminalLine polls a terminal until a line with the given prefix appears.
func terminalLine(sys *core.System, term int, prefix string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		for _, line := range sys.TerminalOutput(term) {
			if strings.HasPrefix(line, prefix) {
				return line, nil
			}
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("chaos: no %q line on terminal %d after %v", prefix, term, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}
