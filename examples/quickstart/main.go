// Quickstart: a counting service survives the loss of its cluster.
//
// Two user processes exchange messages across clusters: a counter holds a
// running total in its page-backed state, a client drives it with 5000
// increments. Midway we power off the counter's entire cluster. The
// inactive backup rolls forward from the last synchronization — re-reading
// its saved messages and suppressing the replies the dead primary already
// sent — and the client reaches exactly 5000, never noticing the crash
// (§3.3: transparency).
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strconv"
	"time"

	"auragen"
	"auragen/internal/trace"
	"auragen/internal/ttyserver"
)

type counter struct{}

func (counter) Start(p auragen.API, st *auragen.State) error {
	fd, err := p.Open("serve:counter")
	if err != nil {
		return err
	}
	st.PutInt64("listen", int64(fd))
	return nil
}

func (counter) OnMessage(p auragen.API, st *auragen.State, fd auragen.FD, data []byte) error {
	if int64(fd) == st.GetInt64("listen") {
		conn, err := p.Accept(data)
		if err != nil {
			return err
		}
		st.PutInt64("conn", int64(conn))
		return nil
	}
	n := st.Add("count", 1)
	return p.Write(fd, []byte(strconv.FormatInt(n, 10)))
}

func (counter) OnSignal(p auragen.API, st *auragen.State, sig auragen.Signal) error { return nil }

type client struct{ total int64 }

func (c client) Start(p auragen.API, st *auragen.State) error {
	st.PutInt64("total", c.total)
	fd, err := p.Open("dial:counter")
	if err != nil {
		return err
	}
	st.PutInt64("fd", int64(fd))
	return p.Write(fd, []byte("inc"))
}

func (c client) OnMessage(p auragen.API, st *auragen.State, fd auragen.FD, data []byte) error {
	got, err := strconv.ParseInt(string(data), 10, 64)
	if err != nil {
		return err
	}
	if got < st.GetInt64("total") {
		return p.Write(fd, []byte("inc"))
	}
	tty, err := p.Open("tty:0")
	if err != nil {
		return err
	}
	if err := p.Write(tty, ttyserver.WriteReq(fmt.Sprintf("final count = %d", got))); err != nil {
		return err
	}
	st.Exit()
	return nil
}

func (client) OnSignal(p auragen.API, st *auragen.State, sig auragen.Signal) error { return nil }

func main() {
	reg := auragen.NewRegistry()
	reg.Register("counter", auragen.ReactorFactory(func() auragen.Handler { return counter{} }))
	reg.Register("client", auragen.ReactorFactory(func() auragen.Handler { return client{total: 5000} }))

	// EventLogLimit turns on a small event log: the crash below is a trip
	// on it.
	sys, err := auragen.New(auragen.Options{Clusters: 3, SyncReads: 16, EventLogLimit: 64}, reg)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Stop()

	counterPID, err := sys.Spawn("counter", nil, auragen.SpawnConfig{Cluster: 2, BackupCluster: 0})
	if err != nil {
		log.Fatal(err)
	}
	clientPID, err := sys.Spawn("client", nil, auragen.SpawnConfig{Cluster: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("counter %v on cluster2 (backup on cluster0), client %v on cluster1\n", counterPID, clientPID)

	// Let the exchange get going, then fail the counter's cluster.
	sys.EventLog().Trip(trace.EvDeliver.Matches, 1000).Wait()
	fmt.Println("*** injecting hardware failure: cluster2 down ***")
	if err := sys.Crash(2); err != nil {
		log.Fatal(err)
	}

	if err := sys.WaitExit(clientPID, 30*time.Second); err != nil {
		log.Fatal(err)
	}
	lines, err := sys.WaitTerminal(0, "final count", 1, 10*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("terminal:", lines[0])
	loc, _ := sys.Directory().Proc(counterPID)
	fmt.Printf("counter now runs on %v\n", loc.Cluster)
	m := sys.Metrics()
	fmt.Printf("recoveries=%d replayed=%d suppressed=%d pages_fetched=%d\n",
		m.Recoveries.Load(), m.ReplayedMessages.Load(), m.SuppressedSends.Load(), m.PagesFetched.Load())
}
