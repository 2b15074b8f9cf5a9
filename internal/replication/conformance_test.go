// Strategy conformance: the recovery scenarios every replication strategy
// must survive identically, driven through the core facade against a
// signal-heavy guest (the bank workloads never send signals, so the
// decision/forced-capture path is only exercised here and in the kernel
// tests). Three scenarios, each run under all three strategies with
// goroutine-leak accounting:
//
//   - promotion while backup saves and captures are mid-flight,
//   - a primary crash in the window between a forced capture (or decision
//     record) and its bus transmission,
//   - backup re-establishment via repair followed by a primary crash — the
//     promotion must come from the re-established backup's state.
//
// The observable contract is the same for all strategies: request serials
// stay consecutive across the crash (nothing lost, nothing duplicated),
// and the signal handler's terminal stream is exactly "sig 1".."sig K"
// with the server's own counter agreeing on K.
package replication_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"auragen/internal/chaos/leakcheck"
	"auragen/internal/core"
	"auragen/internal/guest"
	"auragen/internal/replication"
	"auragen/internal/trace"
	"auragen/internal/ttyserver"
	"auragen/internal/types"
)

const (
	confServerTerm = 61
	confClientTerm = 62

	confServerCluster = 2
	confBackupCluster = 3
	confClientCluster = 1
)

// registerConformanceGuests installs the signal-exercising pair: a server
// whose serial counter and signal counter live in the KV heap (so both
// must survive promotion), and a client that verifies serial continuity
// on every reply.
func registerConformanceGuests(reg *guest.Registry) {
	reg.Register("sig-server", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				parts := strings.Fields(string(p.Args()))
				if len(parts) != 2 {
					return fmt.Errorf("sig-server: bad args %q", p.Args())
				}
				fd, err := p.Open("serve:" + parts[0])
				if err != nil {
					return err
				}
				st.PutInt64("listen", int64(fd))
				tty, err := p.Open("tty:" + parts[1])
				if err != nil {
					return err
				}
				st.PutInt64("tty", int64(tty))
				return nil
			},
			OnMessageFunc: func(p guest.API, st *guest.State, fd types.FD, data []byte) error {
				if int64(fd) == st.GetInt64("listen") {
					nfd, err := p.Accept(data)
					if err != nil {
						return err
					}
					st.PutInt64(fmt.Sprintf("chfd/%d", int64(nfd)), 1)
					return nil
				}
				switch string(data) {
				case "ping":
					serial := st.Add("serial", 1)
					return p.Write(fd, []byte(fmt.Sprintf("pong %d", serial)))
				case "stat":
					return p.Write(fd, []byte(fmt.Sprintf("stat %d %d",
						st.GetInt64("serial"), st.GetInt64("sigs"))))
				default:
					return p.Write(fd, []byte("err bad request"))
				}
			},
			OnSignalFunc: func(p guest.API, st *guest.State, sig types.Signal) error {
				n := st.Add("sigs", 1)
				return p.Write(types.FD(st.GetInt64("tty")),
					ttyserver.WriteReq(fmt.Sprintf("sig %d", n)))
			},
		}
	}))
	// Args: "<service> <npings> <term> <label>". Sends npings pings
	// (requiring each reply serial to be exactly the previous plus one),
	// then one stat, then reports "done <label> last=<serial> sigs=<sigs>".
	reg.Register("sig-client", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				parts := strings.Fields(string(p.Args()))
				if len(parts) != 4 {
					return fmt.Errorf("sig-client: bad args %q", p.Args())
				}
				n, err := strconv.Atoi(parts[1])
				if err != nil {
					return err
				}
				label := parts[3]
				fd, err := p.Open("dial:" + parts[0])
				if err != nil {
					return err
				}
				last := int64(-1)
				for i := 0; i < n; i++ {
					reply, err := p.Call(fd, []byte("ping"))
					if err != nil {
						return err
					}
					var s int64
					if _, err := fmt.Sscanf(string(reply), "pong %d", &s); err != nil {
						return fmt.Errorf("sig-client %s: bad reply %q", label, reply)
					}
					if last >= 0 && s != last+1 {
						return fmt.Errorf("sig-client %s: serial jumped %d -> %d (request lost or duplicated)",
							label, last, s)
					}
					last = s
				}
				reply, err := p.Call(fd, []byte("stat"))
				if err != nil {
					return err
				}
				var serial, sigs int64
				if _, err := fmt.Sscanf(string(reply), "stat %d %d", &serial, &sigs); err != nil {
					return fmt.Errorf("sig-client %s: bad stat %q", label, reply)
				}
				if n > 0 && serial != last {
					return fmt.Errorf("sig-client %s: stat serial %d after last pong %d",
						label, serial, last)
				}
				tty, err := p.Open("tty:" + parts[2])
				if err != nil {
					return err
				}
				if err := p.Write(tty, ttyserver.WriteReq(
					fmt.Sprintf("done %s last=%d sigs=%d", label, serial, sigs))); err != nil {
					return err
				}
				st.Exit()
				return nil
			},
		}
	}))
}

func newConformanceSystem(t *testing.T, kind replication.Kind, seed int64) *core.System {
	t.Helper()
	reg := guest.NewRegistry()
	registerConformanceGuests(reg)
	sys, err := core.New(core.Options{
		Clusters:         4,
		SyncReads:        2,
		SyncTicks:        1 << 40,
		EventLogLimit:    1 << 16,
		PageFetchTimeout: 5 * time.Second,
		Clock:            types.NewLogicalClock(seed, 0),
		Replication:      kind,
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func spawnSigServer(t *testing.T, sys *core.System) types.PID {
	t.Helper()
	pid, err := sys.Spawn("sig-server",
		[]byte(fmt.Sprintf("conf %d", confServerTerm)),
		core.SpawnConfig{Cluster: confServerCluster, BackupCluster: confBackupCluster})
	if err != nil {
		t.Fatal(err)
	}
	return pid
}

// runSigClient spawns one client round and returns its final serial and
// the signal count the server reported to it.
func runSigClient(t *testing.T, sys *core.System, pings int, label string) (last, sigs int64) {
	t.Helper()
	pid, err := sys.Spawn("sig-client",
		[]byte(fmt.Sprintf("conf %d %d %s", pings, confClientTerm, label)),
		core.SpawnConfig{Cluster: confClientCluster})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitExit(pid, 60*time.Second); err != nil {
		t.Fatalf("client %s: %v (guest errors %q)", label, err, sys.GuestErrors())
	}
	if errs := sys.GuestErrors(); len(errs) != 0 {
		t.Fatalf("client %s: guest errors %q", label, errs)
	}
	lines, err := sys.WaitTerminal(confClientTerm, "done "+label+" ", 1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var gotLabel string
	if _, err := fmt.Sscanf(lines[0], "done %s last=%d sigs=%d", &gotLabel, &last, &sigs); err != nil {
		t.Fatalf("bad done line %q: %v", lines[0], err)
	}
	return last, sigs
}

func sigTermLines(sys *core.System, term int) []string {
	var out []string
	for _, line := range sys.TerminalOutput(term) {
		if strings.HasPrefix(line, "sig ") {
			out = append(out, line)
		}
	}
	return out
}

// checkSigStream asserts the handler's terminal stream is exactly
// "sig 1".."sig K" — consecutive, no duplicates, no gaps — and returns K.
func checkSigStream(t *testing.T, sys *core.System, term int) int {
	t.Helper()
	lines := sigTermLines(sys, term)
	for i, line := range lines {
		if want := fmt.Sprintf("sig %d", i+1); line != want {
			t.Fatalf("signal line %d is %q, want %q (full stream %q)", i, line, want, lines)
		}
	}
	return len(lines)
}

// signalAcked delivers one signal and waits for its terminal ack. A facade
// signal originates on the target's own kernel, so one in flight when that
// kernel crashes is legally lost before the bus transmits it (nothing
// externally observable depended on it); the operator's remedy is a
// resend, which this helper performs until an ack lands. A signal refused
// while that kernel is going down is resent once the bus has settled.
func signalAcked(t *testing.T, sys *core.System, pid types.PID) {
	t.Helper()
	next := len(sigTermLines(sys, confServerTerm)) + 1
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := sys.Signal(pid, types.SigUser); err != nil {
			sys.Settle(time.Second)
		} else if _, err := sys.WaitTerminal(confServerTerm, "sig ", next, 2*time.Second); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("signal to %s never acked on terminal %d", pid, confServerTerm)
		}
	}
}

// crashServerAt crashes the server's cluster at the nth event match
// accepts. The trip holds that event until the crashing goroutine has
// taken it; the channel yields the crash's result.
func crashServerAt(sys *core.System, match func(trace.Event) bool, n int) <-chan error {
	trip := sys.EventLog().Trip(match, n)
	crashed := make(chan error, 1)
	go func() {
		trip.Wait()
		crashed <- sys.Crash(confServerCluster)
	}()
	return crashed
}

// finishConformance is the common epilogue: no guest failed silently,
// redundancy is restored after the repairs, and stopping the system
// returns the goroutine count to the pre-boot baseline.
func finishConformance(t *testing.T, sys *core.System, base int) {
	t.Helper()
	if errs := sys.GuestErrors(); len(errs) != 0 {
		t.Fatalf("guest errors: %q", errs)
	}
	if err := sys.WaitRedundant(15 * time.Second); err != nil {
		t.Fatalf("redundancy not restored: %v", err)
	}
	sys.Stop()
	leakcheck.Check(t, base, 3, 5*time.Second)
}

// TestConformancePromoteMidStream crashes the primary at the third message
// its backup saves — mid ping stream, with establishment state installed
// and capture traffic in flight under every strategy. The client round
// must complete with consecutive serials across the promotion, and signals
// delivered to the promoted process must be handled with a counter that
// picks up from the migrated state.
func TestConformancePromoteMidStream(t *testing.T) {
	for _, kind := range replication.All() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			base := leakcheck.Baseline()
			sys := newConformanceSystem(t, kind, 0xC0F1)
			server := spawnSigServer(t, sys)

			crashed := crashServerAt(sys, func(e trace.Event) bool {
				return e.Kind == trace.EvSave && e.Cluster == confBackupCluster
			}, 3)

			last, sigs := runSigClient(t, sys, 12, "r1")
			select {
			case err := <-crashed:
				if err != nil {
					t.Fatalf("crash: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("backup-save tripwire never fired")
			}
			if last != 12 || sigs != 0 {
				t.Fatalf("round 1 ended at serial %d, sigs %d; want 12, 0", last, sigs)
			}

			for i := 0; i < 3; i++ {
				signalAcked(t, sys, server)
			}
			if k := checkSigStream(t, sys, confServerTerm); k != 3 {
				t.Fatalf("handled %d signals after promotion, want 3", k)
			}
			last, sigs = runSigClient(t, sys, 0, "statA")
			if last != 12 || sigs != 3 {
				t.Fatalf("promoted server reports serial %d, sigs %d; want 12, 3", last, sigs)
			}

			if err := sys.Repair(confServerCluster); err != nil {
				t.Fatalf("repair: %v", err)
			}
			finishConformance(t, sys, base)
		})
	}
}

// TestConformanceCrashBetweenCaptureAndTransmit arms a tripwire on the
// first signal-driven capture event — a forced sync or checkpoint at the
// primary, or a decision record saved at the backup — and crashes the
// primary from it, so the crash lands in the window between a capture
// being taken and its transmission settling. However many signals the
// window swallows, the survivors' terminal stream must stay consecutive
// and agree with the server's own counter, and request serials must
// continue exactly across the promotion.
func TestConformanceCrashBetweenCaptureAndTransmit(t *testing.T) {
	for _, kind := range replication.All() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			base := leakcheck.Baseline()
			sys := newConformanceSystem(t, kind, 0xC0F2)
			server := spawnSigServer(t, sys)

			last, sigs := runSigClient(t, sys, 6, "r1")
			if last != 6 || sigs != 0 {
				t.Fatalf("round 1 ended at serial %d, sigs %d; want 6, 0", last, sigs)
			}

			crashed := crashServerAt(sys, func(e trace.Event) bool {
				return (e.Kind == trace.EvSync && e.Cluster == confServerCluster) ||
					(e.Kind == trace.EvSave && e.MsgKind == types.KindDecision &&
						e.Cluster == confBackupCluster)
			}, 1)

			for i := 0; i < 6; i++ {
				signalAcked(t, sys, server)
			}
			select {
			case err := <-crashed:
				if err != nil {
					t.Fatalf("crash: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("capture tripwire never fired during the signal burst")
			}

			last, sigs = runSigClient(t, sys, 6, "r2")
			if last != 12 {
				t.Fatalf("round 2 ended at serial %d, want 12", last)
			}
			// The counter bumps before the terminal line is written, so
			// let the stream catch up to the stat snapshot before judging.
			if _, err := sys.WaitTerminal(confServerTerm, "sig ", int(sigs), 5*time.Second); err != nil {
				t.Fatal(err)
			}
			k := checkSigStream(t, sys, confServerTerm)
			if int64(k) != sigs {
				t.Fatalf("stat reports %d signals handled but the terminal shows %d", sigs, k)
			}
			if k < 6 {
				t.Fatalf("only %d signal acks after %d acked sends", k, 6)
			}

			if err := sys.Repair(confServerCluster); err != nil {
				t.Fatalf("repair: %v", err)
			}
			finishConformance(t, sys, base)
		})
	}
}

// TestConformanceRepairReestablishment kills the backup, repairs it, waits
// for redundancy, then kills the primary: the promotion must come from the
// re-established backup, whose establishment capture — taken by whatever
// mechanism the strategy uses — must carry the serial and signal counters
// intact through the second crash.
func TestConformanceRepairReestablishment(t *testing.T) {
	for _, kind := range replication.All() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			base := leakcheck.Baseline()
			sys := newConformanceSystem(t, kind, 0xC0F3)
			server := spawnSigServer(t, sys)

			last, sigs := runSigClient(t, sys, 6, "r1")
			if last != 6 || sigs != 0 {
				t.Fatalf("round 1 ended at serial %d, sigs %d; want 6, 0", last, sigs)
			}
			signalAcked(t, sys, server)
			signalAcked(t, sys, server)
			if k := checkSigStream(t, sys, confServerTerm); k != 2 {
				t.Fatalf("handled %d signals before the crashes, want 2", k)
			}

			if err := sys.Crash(confBackupCluster); err != nil {
				t.Fatalf("crash backup: %v", err)
			}
			if err := sys.Repair(confBackupCluster); err != nil {
				t.Fatalf("repair backup: %v", err)
			}
			if err := sys.WaitRedundant(15 * time.Second); err != nil {
				t.Fatalf("redundancy not restored after backup repair: %v", err)
			}

			if err := sys.Crash(confServerCluster); err != nil {
				t.Fatalf("crash primary: %v", err)
			}
			last, sigs = runSigClient(t, sys, 6, "r2")
			if last != 12 || sigs != 2 {
				t.Fatalf("promoted server reports serial %d, sigs %d; want 12, 2", last, sigs)
			}
			signalAcked(t, sys, server)
			if k := checkSigStream(t, sys, confServerTerm); k != 3 {
				t.Fatalf("handled %d signals after the double crash, want 3", k)
			}

			if err := sys.Repair(confServerCluster); err != nil {
				t.Fatalf("repair primary: %v", err)
			}
			finishConformance(t, sys, base)
		})
	}
}
