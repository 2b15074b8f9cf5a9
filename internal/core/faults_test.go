package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"auragen/internal/fileserver"
	"auragen/internal/guest"
	"auragen/internal/ttyserver"
	"auragen/internal/types"
)

// TestSignalForcesSyncAndDelivers exercises §7.5.2: an unignored
// asynchronous signal forces a sync just prior to handling.
func TestSignalForcesSyncAndDelivers(t *testing.T) {
	sys := newTestSystem(t, 3)
	sys.Register("siglooper", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			OnSignalFunc: func(p guest.API, st *guest.State, sig types.Signal) error {
				tty, err := p.Open("tty:3")
				if err != nil {
					return err
				}
				if err := p.Write(tty, ttyserver.WriteReq("got "+sig.String())); err != nil {
					return err
				}
				st.Exit()
				return nil
			},
		}
	}))
	pid, err := sys.Spawn("siglooper", nil, SpawnConfig{Cluster: 2})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := sys.Signal(pid, types.SigTerm); err != nil {
		t.Fatal(err)
	}
	waitForTTY(t, sys, 3, "got SIGTERM", 10*time.Second)
	if sys.Metrics().SyncForced.Load() == 0 {
		t.Fatal("signal delivery did not force a sync")
	}
}

// TestIgnoredSignalsAreConsumed exercises §7.5.2: ignored signals are
// removed from the queue and counted as reads, never handled.
func TestIgnoredSignalsAreConsumed(t *testing.T) {
	sys := newTestSystem(t, 3)
	sys.Register("ignorer", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				return p.IgnoreSignal(types.SigUser, true)
			},
			OnSignalFunc: func(p guest.API, st *guest.State, sig types.Signal) error {
				tty, err := p.Open("tty:4")
				if err != nil {
					return err
				}
				if err := p.Write(tty, ttyserver.WriteReq("got "+sig.String())); err != nil {
					return err
				}
				st.Exit()
				return nil
			},
		}
	}))
	pid, err := sys.Spawn("ignorer", nil, SpawnConfig{Cluster: 2})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := sys.Signal(pid, types.SigUser); err != nil { // ignored
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := sys.Signal(pid, types.SigTerm); err != nil { // handled
		t.Fatal(err)
	}
	waitForTTY(t, sys, 4, "got SIGTERM", 10*time.Second)
	for _, line := range sys.TerminalOutput(4) {
		if line == "got SIGUSR" {
			t.Fatal("ignored signal was handled")
		}
	}
}

// TestAlarmDelivered exercises §7.5.2: alarm is the one truly asynchronous
// call, delivered as a signal message via the process server.
func TestAlarmDelivered(t *testing.T) {
	sys := newTestSystem(t, 3)
	sys.Register("alarmer", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				return p.Alarm(5 * time.Millisecond)
			},
			OnSignalFunc: func(p guest.API, st *guest.State, sig types.Signal) error {
				if sig != types.SigAlarm {
					return nil
				}
				tty, err := p.Open("tty:5")
				if err != nil {
					return err
				}
				if err := p.Write(tty, ttyserver.WriteReq("rang")); err != nil {
					return err
				}
				st.Exit()
				return nil
			},
		}
	}))
	if _, err := sys.Spawn("alarmer", nil, SpawnConfig{Cluster: 2}); err != nil {
		t.Fatal(err)
	}
	waitForTTY(t, sys, 5, "rang", 10*time.Second)
}

// TestTimeViaMessage exercises §7.5.1: time comes from the process server
// by message and is plausible.
func TestTimeViaMessage(t *testing.T) {
	sys := newTestSystem(t, 3)
	before := time.Now().UnixNano()
	sys.Register("clockreader", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				t1, err := p.Time()
				if err != nil {
					return err
				}
				t2, err := p.Time()
				if err != nil {
					return err
				}
				tty, err := p.Open("tty:6")
				if err != nil {
					return err
				}
				ok := "bad"
				if t1 > 0 && t2 >= t1 {
					ok = "ok"
				}
				if err := p.Write(tty, ttyserver.WriteReq(fmt.Sprintf("time %s %d", ok, t1))); err != nil {
					return err
				}
				st.Exit()
				return nil
			},
		}
	}))
	if _, err := sys.Spawn("clockreader", nil, SpawnConfig{Cluster: 2}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range sys.TerminalOutput(6) {
			if strings.HasPrefix(line, "time ok ") {
				var v int64
				fmt.Sscanf(line, "time ok %d", &v)
				if v < before {
					t.Fatalf("time went backwards: %d < %d", v, before)
				}
				return
			}
			if strings.HasPrefix(line, "time bad") {
				t.Fatalf("non-monotonic time: %v", line)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no time line; terminal: %v", sys.TerminalOutput(6))
}

// TestForkChildrenRunOnce exercises §7.7: forked children carry out their
// work exactly once even when the whole family's cluster crashes mid-run.
func TestForkChildrenRunOnce(t *testing.T) {
	sys := newTestSystem(t, 3)
	// Each child appends one line to a shared file and exits.
	sys.Register("forkchild", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				fd, err := p.Open("/fork/out")
				if err != nil {
					return err
				}
				line := fmt.Sprintf("child-%s\n", string(p.Args()))
				if _, err := p.Call(fd, fileserver.AppendReq([]byte(line))); err != nil {
					return err
				}
				st.Exit()
				return nil
			},
		}
	}))
	// The parent forks 10 children and reports their pids.
	sys.Register("forkparent", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				pids := make([]string, 10)
				for i := range pids {
					pid, err := p.Fork("forkchild", []byte(fmt.Sprintf("%d", i)))
					if err != nil {
						return err
					}
					pids[i] = fmt.Sprint(uint64(pid))
				}
				tty, err := p.Open("tty:7")
				if err != nil {
					return err
				}
				if err := p.Write(tty, ttyserver.WriteReq("forked "+strings.Join(pids, " "))); err != nil {
					return err
				}
				st.Exit()
				return nil
			},
		}
	}))
	if _, err := sys.Spawn("forkparent", nil, SpawnConfig{Cluster: 2, BackupCluster: 0}); err != nil {
		t.Fatal(err)
	}
	// A child exits once its append has been answered, so the file is
	// complete when every child has exited.
	for _, pid := range forkedPIDs(t, sys, 7, 10*time.Second) {
		if err := sys.WaitExit(pid, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// Read the file back via a separate checker process.
	sys.Register("forkcheck", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				fd, err := p.Open("/fork/out")
				if err != nil {
					return err
				}
				reply, err := p.Call(fd, fileserver.ReadReq(1<<20))
				if err != nil {
					return err
				}
				rp, err := fileserver.DecodeReply(reply)
				if err != nil {
					return err
				}
				lines := strings.Count(string(rp.Data), "\n")
				tty, err := p.Open("tty:7")
				if err != nil {
					return err
				}
				if err := p.Write(tty, ttyserver.WriteReq(fmt.Sprintf("lines=%d", lines))); err != nil {
					return err
				}
				st.Exit()
				return nil
			},
		}
	}))
	if _, err := sys.Spawn("forkcheck", nil, SpawnConfig{Cluster: 1}); err != nil {
		t.Fatal(err)
	}
	waitForTTY(t, sys, 7, "lines=10", 10*time.Second)
}

// forkedPIDs waits for the "forked <pid>..." line on terminal term and
// returns the pids it lists.
func forkedPIDs(t *testing.T, sys *System, term int, timeout time.Duration) []types.PID {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, line := range sys.TerminalOutput(term) {
			fields := strings.Fields(line)
			if len(fields) == 0 || fields[0] != "forked" {
				continue
			}
			var pids []types.PID
			for _, f := range fields[1:] {
				n, err := strconv.ParseUint(f, 10, 64)
				if err != nil {
					t.Fatalf("terminal %d: bad pid in %q", term, line)
				}
				pids = append(pids, types.PID(n))
			}
			return pids
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("terminal %d never showed the forked pids; got %v", term, sys.TerminalOutput(term))
	return nil
}

// TestServerClusterCrash kills cluster 0 — home of the file server, process
// server, tty server, and page server primaries — and verifies that user
// work continues against the promoted twins (§7.9, §7.10.2).
func TestServerClusterCrash(t *testing.T) {
	sys := newTestSystem(t, 3)
	sys.Register("diskworker", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				fd, err := p.Open("/work/data")
				if err != nil {
					return err
				}
				st.PutInt64("fd", int64(fd))
				tty, err := p.Open("tty:8")
				if err != nil {
					return err
				}
				st.PutInt64("tty", int64(tty))
				in, err := p.Open("chan:dw")
				if err != nil {
					return err
				}
				st.PutInt64("in", int64(in))
				return nil
			},
			OnMessageFunc: func(p guest.API, st *guest.State, fd types.FD, data []byte) error {
				if int64(fd) != st.GetInt64("in") {
					return nil
				}
				dfd := types.FD(st.GetInt64("fd"))
				if _, err := p.Call(dfd, fileserver.AppendReq(append(data, '\n'))); err != nil {
					return err
				}
				n := st.Add("writes", 1)
				if n == 40 {
					reply, err := p.Call(dfd, fileserver.StatReq())
					if err != nil {
						return err
					}
					rp, err := fileserver.DecodeReply(reply)
					if err != nil {
						return err
					}
					if err := p.Write(types.FD(st.GetInt64("tty")), ttyserver.WriteReq(fmt.Sprintf("done size=%d", rp.Size))); err != nil {
						return err
					}
					st.Exit()
				}
				return nil
			},
		}
	}))
	sys.Register("dwfeeder", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				out, err := p.Open("chan:dw")
				if err != nil {
					return err
				}
				for i := 0; i < 40; i++ {
					if err := p.Write(out, []byte(fmt.Sprintf("rec%02d", i))); err != nil {
						return err
					}
				}
				st.Exit()
				return nil
			},
		}
	}))
	if _, err := sys.Spawn("diskworker", nil, SpawnConfig{Cluster: 2, BackupCluster: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spawn("dwfeeder", nil, SpawnConfig{Cluster: 1, BackupCluster: 2}); err != nil {
		t.Fatal(err)
	}

	// Wait for work to begin, then kill the server cluster.
	deadline := time.Now().Add(5 * time.Second)
	for sys.Metrics().PrimaryDeliveries.Load() < 20 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := sys.Crash(0); err != nil {
		t.Fatal(err)
	}

	// 40 records of 6 bytes each ("recNN\n").
	waitForTTY(t, sys, 8, "done size=240", 20*time.Second)
}

// TestFullbackGetsNewBackupAndSurvivesSecondCrash exercises §7.3: a
// fullback's new backup is created before the new primary executes, so a
// later failure of the new primary's cluster is also survived.
func TestFullbackGetsNewBackupAndSurvivesSecondCrash(t *testing.T) {
	sys := newTestSystem(t, 4)
	counterPID, err := sys.Spawn("counter", []byte("fb"), SpawnConfig{
		Cluster: 2, BackupCluster: 3, Mode: types.Fullback,
	})
	if err != nil {
		t.Fatal(err)
	}
	spawnClient(t, sys, "fb", 6000, SpawnConfig{Cluster: 1})

	deadline := time.Now().Add(5 * time.Second)
	for sys.Metrics().PrimaryDeliveries.Load() < 300 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := sys.Crash(2); err != nil {
		t.Fatal(err)
	}

	// The backup on cluster 3 takes over and must acquire a new backup
	// before executing.
	waitLoc := time.Now().Add(5 * time.Second)
	for time.Now().Before(waitLoc) {
		loc, ok := sys.Directory().Proc(counterPID)
		if ok && loc.Cluster == 3 && loc.BackupCluster != types.NoCluster {
			break
		}
		time.Sleep(time.Millisecond)
	}
	loc, ok := sys.Directory().Proc(counterPID)
	if !ok || loc.Cluster != 3 {
		t.Fatalf("fullback not promoted to cluster3: %+v ok=%v", loc, ok)
	}
	if loc.BackupCluster == types.NoCluster {
		t.Fatal("fullback has no new backup after first crash")
	}

	// Let the exchange progress, then kill the new primary too.
	mark := sys.Metrics().PrimaryDeliveries.Load()
	deadline = time.Now().Add(5 * time.Second)
	for sys.Metrics().PrimaryDeliveries.Load() < mark+300 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := sys.Crash(3); err != nil {
		t.Fatal(err)
	}

	waitForTTY(t, sys, 1, "final=6000", 30*time.Second)
}

// TestQuarterbackGetsNoNewBackup exercises the §7.3 default: quarterbacks
// run backed up until a crash, but no new backup is created afterwards.
func TestQuarterbackGetsNoNewBackup(t *testing.T) {
	sys := newTestSystem(t, 3)
	pid, err := sys.Spawn("counter", []byte("qb"), SpawnConfig{
		Cluster: 2, BackupCluster: 0, Mode: types.Quarterback,
	})
	if err != nil {
		t.Fatal(err)
	}
	spawnClient(t, sys, "qb", 4000, SpawnConfig{Cluster: 1})
	deadline := time.Now().Add(5 * time.Second)
	for sys.Metrics().PrimaryDeliveries.Load() < 300 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := sys.Crash(2); err != nil {
		t.Fatal(err)
	}
	waitForTTY(t, sys, 1, "final=4000", 20*time.Second)
	loc, ok := sys.Directory().Proc(pid)
	if !ok {
		t.Fatal("counter gone")
	}
	if loc.BackupCluster != types.NoCluster {
		t.Fatalf("quarterback acquired a new backup: %+v", loc)
	}
}

// TestInterruptSignalsForegroundProcess exercises the control-C path
// (§7.5.2): terminal interrupts become SigInt messages.
func TestInterruptSignalsForegroundProcess(t *testing.T) {
	sys := newTestSystem(t, 3)
	sys.Register("fg", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				tty, err := p.Open("tty:9")
				if err != nil {
					return err
				}
				st.PutInt64("tty", int64(tty))
				return p.Write(tty, ttyserver.WriteReq("ready"))
			},
			OnSignalFunc: func(p guest.API, st *guest.State, sig types.Signal) error {
				if sig == types.SigInt {
					if err := p.Write(types.FD(st.GetInt64("tty")), ttyserver.WriteReq("interrupted")); err != nil {
						return err
					}
					st.Exit()
				}
				return nil
			},
		}
	}))
	if _, err := sys.Spawn("fg", nil, SpawnConfig{Cluster: 2}); err != nil {
		t.Fatal(err)
	}
	waitForTTY(t, sys, 9, "ready", 10*time.Second)
	sys.Settle(time.Second)
	sys.Interrupt(9)
	waitForTTY(t, sys, 9, "interrupted", 10*time.Second)
}

// TestTerminalReadLine exercises tty input: a process blocks reading the
// terminal; typed input satisfies the read.
func TestTerminalReadLine(t *testing.T) {
	sys := newTestSystem(t, 3)
	sys.Register("shellish", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				tty, err := p.Open("tty:10")
				if err != nil {
					return err
				}
				line, err := p.Call(tty, ttyserver.ReadReq())
				if err != nil {
					return err
				}
				if err := p.Write(tty, ttyserver.WriteReq("echo: "+string(line))); err != nil {
					return err
				}
				st.Exit()
				return nil
			},
		}
	}))
	if _, err := sys.Spawn("shellish", nil, SpawnConfig{Cluster: 2}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	sys.TypeLine(10, "hello auragen")
	waitForTTY(t, sys, 10, "echo: hello auragen", 10*time.Second)
}
