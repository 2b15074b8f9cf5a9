// Pipeline: a producer→transform→sink chain spread over four clusters,
// with the middle stage run as a fullback (§7.3): after its cluster fails,
// a new backup is created on a third cluster *before* the promoted stage
// executes, so the pipeline tolerates a second, later failure too.
//
// The source emits numbered records; each stage appends its tag; the sink
// prints every record to a terminal. After two injected crashes every
// record must arrive exactly once, in order, fully tagged.
//
// Run: go run ./examples/pipeline
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"auragen"
	"auragen/internal/trace"
	"auragen/internal/ttyserver"
)

const records = 400

// source pairs with the first stage and pushes records, pacing itself by
// acking every K records through a reply (to avoid unbounded queues).
type source struct{}

func (source) Start(p auragen.API, st *auragen.State) error {
	fd, err := p.Open("chan:stage1")
	if err != nil {
		return err
	}
	st.PutInt64("fd", int64(fd))
	// Send an initial window, then one more per ack.
	for i := 0; i < 8; i++ {
		if err := p.Write(fd, []byte(fmt.Sprintf("rec%04d", i))); err != nil {
			return err
		}
	}
	st.PutInt64("sent", 8)
	return nil
}

func (source) OnMessage(p auragen.API, st *auragen.State, fd auragen.FD, data []byte) error {
	if int64(fd) != st.GetInt64("fd") {
		return nil
	}
	sent := st.GetInt64("sent")
	if sent >= records {
		st.Exit()
		return nil
	}
	if err := p.Write(fd, []byte(fmt.Sprintf("rec%04d", sent))); err != nil {
		return err
	}
	st.PutInt64("sent", sent+1)
	return nil
}

func (source) OnSignal(p auragen.API, st *auragen.State, sig auragen.Signal) error { return nil }

// stage transforms records and acks upstream.
type stage struct{ tag string }

func (s stage) Start(p auragen.API, st *auragen.State) error {
	in, err := p.Open("chan:stage1")
	if err != nil {
		return err
	}
	st.PutInt64("in", int64(in))
	out, err := p.Open("chan:stage2")
	if err != nil {
		return err
	}
	st.PutInt64("out", int64(out))
	return nil
}

func (s stage) OnMessage(p auragen.API, st *auragen.State, fd auragen.FD, data []byte) error {
	if int64(fd) != st.GetInt64("in") {
		return nil
	}
	rec := string(data) + "|" + s.tag
	if err := p.Write(auragen.FD(st.GetInt64("out")), []byte(rec)); err != nil {
		return err
	}
	// Ack upstream so the source sends the next record.
	return p.Write(fd, []byte("ack"))
}

func (s stage) OnSignal(p auragen.API, st *auragen.State, sig auragen.Signal) error { return nil }

// sink prints records to terminal 2 and exits after the last one.
type sink struct{}

func (sink) Start(p auragen.API, st *auragen.State) error {
	in, err := p.Open("chan:stage2")
	if err != nil {
		return err
	}
	st.PutInt64("in", int64(in))
	tty, err := p.Open("tty:2")
	if err != nil {
		return err
	}
	st.PutInt64("tty", int64(tty))
	return nil
}

func (sink) OnMessage(p auragen.API, st *auragen.State, fd auragen.FD, data []byte) error {
	if int64(fd) != st.GetInt64("in") {
		return nil
	}
	if err := p.Write(auragen.FD(st.GetInt64("tty")), ttyserver.WriteReq(string(data))); err != nil {
		return err
	}
	if st.Add("seen", 1) >= records {
		st.Exit()
	}
	return nil
}

func (sink) OnSignal(p auragen.API, st *auragen.State, sig auragen.Signal) error { return nil }

func main() {
	reg := auragen.NewRegistry()
	reg.Register("source", auragen.ReactorFactory(func() auragen.Handler { return source{} }))
	reg.Register("stage", auragen.ReactorFactory(func() auragen.Handler { return stage{tag: "xform"} }))
	reg.Register("sink", auragen.ReactorFactory(func() auragen.Handler { return sink{} }))

	// EventLogLimit turns on a small event log: the crashes below are
	// trips on it.
	sys, err := auragen.New(auragen.Options{Clusters: 4, SyncReads: 8, EventLogLimit: 64}, reg)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Stop()

	// Middle stage as a fullback on cluster 2 (backup on 3).
	if _, err := sys.Spawn("stage", nil, auragen.SpawnConfig{Cluster: 2, BackupCluster: 3, Mode: auragen.Fullback}); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Spawn("source", nil, auragen.SpawnConfig{Cluster: 1, BackupCluster: 0}); err != nil {
		log.Fatal(err)
	}
	sinkPID, err := sys.Spawn("sink", nil, auragen.SpawnConfig{Cluster: 0, BackupCluster: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pipeline: source@1 -> stage@2 (fullback, backup@3) -> sink@0")

	// First failure: the middle stage's cluster.
	sys.EventLog().Trip(trace.EvDeliver.Matches, 300).Wait()
	fmt.Println("*** crash cluster2 (stage primary) ***")
	if err := sys.Crash(2); err != nil {
		log.Fatal(err)
	}

	// Second failure: the promoted stage's new cluster, once it has a new
	// backup and more records have flowed.
	sys.EventLog().Trip(trace.EvDeliver.Matches, 300).Wait()
	fmt.Println("*** crash cluster3 (stage, again) ***")
	if err := sys.Crash(3); err != nil {
		log.Fatal(err)
	}

	if err := sys.WaitExit(sinkPID, 60*time.Second); err != nil {
		log.Fatal(err)
	}

	// Verify: every record exactly once, in order, tagged.
	if _, err := sys.WaitTerminal(2, "", records, 10*time.Second); err != nil {
		log.Fatal(err)
	}
	out := sys.TerminalOutput(2)
	if len(out) != records {
		log.Fatalf("sink saw %d records, want %d", len(out), records)
	}
	for i, line := range out {
		want := fmt.Sprintf("rec%04d|xform", i)
		if line != want {
			log.Fatalf("record %d = %q, want %q", i, line, want)
		}
		if !strings.HasSuffix(line, "|xform") {
			log.Fatalf("untagged record %q", line)
		}
	}
	m := sys.Metrics()
	fmt.Printf("all %d records delivered exactly once and in order across 2 crashes\n", records)
	fmt.Printf("recoveries=%d replayed=%d suppressed=%d backups_created=%d\n",
		m.Recoveries.Load(), m.ReplayedMessages.Load(), m.SuppressedSends.Load(), m.BackupsCreated.Load())
}
