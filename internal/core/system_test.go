package core

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"auragen/internal/fileserver"
	"auragen/internal/guest"
	"auragen/internal/ttyserver"
	"auragen/internal/types"
)

// counterHandler is a server-ish user process: it pairs on "chan:<name>",
// then replies to each increment with the running count, which lives in the
// page-backed state heap so syncs capture it.
type counterHandler struct{}

func (counterHandler) Start(p guest.API, st *guest.State) error {
	fd, err := p.Open("chan:" + string(p.Args()))
	if err != nil {
		return err
	}
	st.PutInt64("fd", int64(fd))
	return nil
}

func (counterHandler) OnMessage(p guest.API, st *guest.State, fd types.FD, data []byte) error {
	if int64(fd) != st.GetInt64("fd") {
		return nil
	}
	n := st.Add("count", 1)
	return p.Write(fd, []byte(strconv.FormatInt(n, 10)))
}

func (counterHandler) OnSignal(p guest.API, st *guest.State, sig types.Signal) error {
	return nil
}

// clientHandler drives a counter with `total` increments, then reports the
// final count on terminal 1 and exits.
type clientHandler struct{}

func (clientHandler) Start(p guest.API, st *guest.State) error {
	fd, err := p.Open("chan:" + string(p.Args()))
	if err != nil {
		return err
	}
	st.PutInt64("fd", int64(fd))
	return p.Write(fd, []byte("inc"))
}

func (clientHandler) OnMessage(p guest.API, st *guest.State, fd types.FD, data []byte) error {
	if int64(fd) != st.GetInt64("fd") {
		return nil
	}
	got, err := strconv.ParseInt(string(data), 10, 64)
	if err != nil {
		return fmt.Errorf("client: bad count %q", data)
	}
	st.PutInt64("last", got)
	if got < st.GetInt64("total") {
		return p.Write(fd, []byte("inc"))
	}
	tty, err := p.Open("tty:1")
	if err != nil {
		return err
	}
	if err := p.Write(tty, ttyserver.WriteReq("final="+strconv.FormatInt(got, 10))); err != nil {
		return err
	}
	st.Exit()
	return nil
}

func (clientHandler) OnSignal(p guest.API, st *guest.State, sig types.Signal) error {
	return nil
}

func newTestSystem(t *testing.T, clusters int) *System {
	t.Helper()
	reg := guest.NewRegistry()
	reg.Register("counter", guest.ReactorFactory(func() guest.Handler { return counterHandler{} }))
	reg.Register("client", guest.ReactorFactory(func() guest.Handler { return clientHandler{} }))
	sys, err := New(Options{Clusters: clusters, SyncReads: 4, SyncTicks: 1 << 20, EventLogLimit: 1 << 12}, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	return sys
}

// spawnClient spawns a client pre-loaded with its target count.
func spawnClient(t *testing.T, sys *System, name string, total int, cfg SpawnConfig) types.PID {
	t.Helper()
	reg := sys.Registry()
	prog := fmt.Sprintf("client-%s-%d", name, total)
	reg.Register(prog, guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				st.PutInt64("total", int64(total))
				return clientHandler{}.Start(p, st)
			},
			OnMessageFunc: clientHandler{}.OnMessage,
			OnSignalFunc:  clientHandler{}.OnSignal,
		}
	}))
	pid, err := sys.Spawn(prog, []byte(name), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pid
}

// waitForTTY waits for the line want on terminal term: the first line that
// starts with want must be want.
func waitForTTY(t *testing.T, sys *System, term int, want string, timeout time.Duration) {
	t.Helper()
	lines, err := sys.WaitTerminal(term, want, 1, timeout)
	if err != nil {
		t.Fatal(err)
	}
	if lines[0] != want {
		t.Fatalf("terminal %d shows %q, want %q", term, lines[0], want)
	}
}

func TestPingPongNoFault(t *testing.T) {
	sys := newTestSystem(t, 3)
	if _, err := sys.Spawn("counter", []byte("t1"), SpawnConfig{Cluster: 1}); err != nil {
		t.Fatal(err)
	}
	spawnClient(t, sys, "t1", 50, SpawnConfig{Cluster: 2})
	waitForTTY(t, sys, 1, "final=50", 10*time.Second)
}

func TestCounterSurvivesCrash(t *testing.T) {
	sys := newTestSystem(t, 3)
	// Kill the counter's cluster mid-exchange, at the 500th delivery.
	crashed := crashAtDelivery(sys, 2, 500)
	// Counter on cluster 2 (backed up on cluster 0), client on cluster 1.
	counterPID, err := sys.Spawn("counter", []byte("t2"), SpawnConfig{Cluster: 2, BackupCluster: 0})
	if err != nil {
		t.Fatal(err)
	}
	spawnClient(t, sys, "t2", 5000, SpawnConfig{Cluster: 1})
	awaitFault(t, crashed)

	// The client must still reach exactly 5000: every increment counted
	// once, no duplicates from the roll-forward.
	waitForTTY(t, sys, 1, "final=5000", 20*time.Second)

	// The counter survived: it now runs on its backup cluster.
	loc, ok := sys.Directory().Proc(counterPID)
	if !ok {
		t.Fatal("counter vanished from the process table")
	}
	if loc.Cluster != 0 {
		t.Fatalf("counter now on %v, want cluster0", loc.Cluster)
	}
	if sys.Metrics().Recoveries.Load() == 0 {
		t.Fatal("no recoveries recorded")
	}
}

func TestClientCrashSurvives(t *testing.T) {
	sys := newTestSystem(t, 3)
	crashed := crashAtDelivery(sys, 2, 100) // the client's cluster
	if _, err := sys.Spawn("counter", []byte("t3"), SpawnConfig{Cluster: 1, BackupCluster: 0}); err != nil {
		t.Fatal(err)
	}
	spawnClient(t, sys, "t3", 200, SpawnConfig{Cluster: 2, BackupCluster: 0})
	awaitFault(t, crashed)
	waitForTTY(t, sys, 1, "final=200", 20*time.Second)
}

func TestFileServerRoundTrip(t *testing.T) {
	sys := newTestSystem(t, 3)
	reg := sys.Registry()
	reg.Register("fwriter", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				fd, err := p.Open("/data/log")
				if err != nil {
					return err
				}
				for i := 0; i < 10; i++ {
					line := fmt.Sprintf("line-%d\n", i)
					if _, err := p.Call(fd, fileserver.AppendReq([]byte(line))); err != nil {
						return err
					}
				}
				reply, err := p.Call(fd, fileserver.StatReq())
				if err != nil {
					return err
				}
				rp, err := fileserver.DecodeReply(reply)
				if err != nil {
					return err
				}
				tty, err := p.Open("tty:2")
				if err != nil {
					return err
				}
				if err := p.Write(tty, ttyserver.WriteReq(fmt.Sprintf("size=%d", rp.Size))); err != nil {
					return err
				}
				st.Exit()
				return nil
			},
		}
	}))
	if _, err := sys.Spawn("fwriter", nil, SpawnConfig{Cluster: 2}); err != nil {
		t.Fatal(err)
	}
	waitForTTY(t, sys, 2, "size=70", 10*time.Second)
}
