// Full-system property tests over the event trace. These live in an
// external test package so they can boot a core.System without creating an
// import cycle (core imports trace).
package trace_test

import (
	"fmt"
	"testing"
	"time"

	"auragen/internal/core"
	"auragen/internal/guest"
	"auragen/internal/trace"
	"auragen/internal/types"
)

// uniqServer replies "r:"+request to every request. Because the clients
// send globally unique requests, every reply payload is unique too, which
// makes content hashes usable as identities in the suppression-pairing
// property. Args: "<name>".
type uniqServer struct{}

func (uniqServer) Start(p guest.API, st *guest.State) error {
	fd, err := p.Open("serve:" + string(p.Args()))
	if err != nil {
		return err
	}
	st.PutInt64("listen", int64(fd))
	return nil
}

func (uniqServer) OnMessage(p guest.API, st *guest.State, fd types.FD, data []byte) error {
	if int64(fd) == st.GetInt64("listen") {
		nfd, err := p.Accept(data)
		if err != nil {
			return err
		}
		st.PutInt64(fmt.Sprintf("conn/%d", int64(nfd)), 1)
		return nil
	}
	if _, ok := st.Get(fmt.Sprintf("conn/%d", int64(fd))); !ok {
		return nil
	}
	return p.Write(fd, append([]byte("r:"), data...))
}

func (uniqServer) OnSignal(p guest.API, st *guest.State, sig types.Signal) error { return nil }

// uniqClient dials "<name>" and plays count request/reply rounds, each
// request globally unique ("q:<tag>:<seq>"). Args: "<name> <tag> <count>".
type uniqClient struct{}

func uniqClientArgs(p guest.API) (name, tag string, count int, err error) {
	_, err = fmt.Sscanf(string(p.Args()), "%s %s %d", &name, &tag, &count)
	return
}

func (uniqClient) Start(p guest.API, st *guest.State) error {
	name, tag, count, err := uniqClientArgs(p)
	if err != nil {
		return fmt.Errorf("uniq client: bad args %q: %v", p.Args(), err)
	}
	fd, err := p.Open("dial:" + name)
	if err != nil {
		return err
	}
	st.PutInt64("fd", int64(fd))
	if count == 0 {
		st.Exit()
		return nil
	}
	return p.Write(fd, []byte(fmt.Sprintf("q:%s:%06d", tag, 0)))
}

func (uniqClient) OnMessage(p guest.API, st *guest.State, fd types.FD, data []byte) error {
	if int64(fd) != st.GetInt64("fd") {
		return nil
	}
	_, tag, count, err := uniqClientArgs(p)
	if err != nil {
		return err
	}
	done := st.Add("done", 1)
	if int(done) >= count {
		st.Exit()
		return nil
	}
	return p.Write(fd, []byte(fmt.Sprintf("q:%s:%06d", tag, done)))
}

func (uniqClient) OnSignal(p guest.API, st *guest.State, sig types.Signal) error { return nil }

func uniqRegistry() *guest.Registry {
	reg := guest.NewRegistry()
	reg.Register("uniq-server", guest.ReactorFactory(func() guest.Handler { return uniqServer{} }))
	reg.Register("uniq-client", guest.ReactorFactory(func() guest.Handler { return uniqClient{} }))
	return reg
}

// suppressKey identifies a transmission by content: who sent what on which
// channel. The promoted backup regenerates the byte-identical reply, so a
// suppressed send and the failed primary's original share a key.
type suppressKey struct {
	pid  types.PID
	ch   types.ChannelID
	kind types.Kind
	hash uint64
}

// TestSuppressionPairsWithExactlyOneOriginalSend is the §5.4 redundant-send
// property: during roll-forward, every message the promoted backup is
// barred from re-sending corresponds to exactly one message the failed
// primary actually put on the bus. Asserted from the trace: each EvSuppress
// matches exactly one EvTransmit with the same (src, channel, kind,
// content-hash).
func TestSuppressionPairsWithExactlyOneOriginalSend(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system crash scenario")
	}
	// Whether the crash lands with unsynced writes outstanding is timing
	// dependent; retry the scenario a few times before declaring failure.
	for attempt := 1; attempt <= 3; attempt++ {
		suppressed, ok := runSuppressionScenario(t)
		if ok {
			if suppressed == 0 {
				t.Logf("attempt %d: crash landed on a sync boundary (no suppressions); retrying", attempt)
				continue
			}
			return
		}
	}
	t.Fatal("no suppressed sends in 3 attempts; §5.4 suppression path may be dead")
}

// runSuppressionScenario boots a system, crashes the server cluster
// mid-run, and checks the pairing property over whatever suppressions
// occurred. Returns the suppression count and whether the run completed.
func runSuppressionScenario(t *testing.T) (suppressed uint64, ok bool) {
	t.Helper()
	sys, err := core.New(core.Options{Clusters: 3, SyncReads: 64, EventLogLimit: 1 << 17}, uniqRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()

	// Crash the server's cluster at the 400th delivery, mid-run.
	trip := sys.EventLog().Trip(trace.EvDeliver.Matches, 400)
	crashed := make(chan error, 1)
	go func() {
		trip.Wait()
		crashed <- sys.Crash(2)
	}()
	if _, err := sys.Spawn("uniq-server", []byte("pairs"), core.SpawnConfig{Cluster: 2, BackupCluster: 0}); err != nil {
		t.Fatal(err)
	}
	pid, err := sys.Spawn("uniq-client", []byte("pairs c 3000"), core.SpawnConfig{Cluster: 1})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-crashed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the crash's delivery never came")
	}
	if err := sys.WaitExit(pid, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, e := range sys.GuestErrors() {
		t.Errorf("guest error: %s", e)
	}

	log := sys.EventLog()
	if dropped := log.Dropped(); dropped != 0 {
		t.Fatalf("event ring overflowed (%d dropped); grow the test's capacity", dropped)
	}
	events := log.Events()

	transmits := make(map[suppressKey]int)
	for _, e := range events {
		if e.Kind == trace.EvTransmit {
			transmits[suppressKey{e.PID, e.Channel, e.MsgKind, e.Arg}]++
		}
	}
	var suppressEvents []trace.Event
	for _, e := range events {
		if e.Kind == trace.EvSuppress {
			suppressEvents = append(suppressEvents, e)
		}
	}
	if got := sys.Metrics().SuppressedSends.Load(); got != uint64(len(suppressEvents)) {
		t.Errorf("metrics count %d suppressions but trace has %d", got, len(suppressEvents))
	}
	seen := make(map[suppressKey]bool)
	for _, e := range suppressEvents {
		k := suppressKey{e.PID, e.Channel, e.MsgKind, e.Arg}
		if seen[k] {
			t.Errorf("suppression seq %d repeats key %+v: same content suppressed twice", e.Seq, k)
		}
		seen[k] = true
		if n := transmits[k]; n != 1 {
			t.Errorf("suppression seq %d (hash %016x) pairs with %d original sends, want exactly 1",
				e.Seq, e.Arg, n)
		}
	}

	// The §5.1 ordering property must also hold across the crash: the
	// receive prefix each cluster saw before any detach is consistent.
	assertNoInterleavingSys(t, events)
	return uint64(len(suppressEvents)), true
}

// TestSystemOrderingPropertyAcrossClusterPairs asserts the §5.1
// no-interleaving property end to end: two client/server conversations
// whose three-way routes overlap on every cluster, with the per-pair shared
// message order extracted from kernel-independent bus receive events.
func TestSystemOrderingPropertyAcrossClusterPairs(t *testing.T) {
	sys, err := core.New(core.Options{Clusters: 3, EventLogLimit: 1 << 17}, uniqRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()

	if _, err := sys.Spawn("uniq-server", []byte("svcA"), core.SpawnConfig{Cluster: 0, BackupCluster: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spawn("uniq-server", []byte("svcB"), core.SpawnConfig{Cluster: 1, BackupCluster: 2}); err != nil {
		t.Fatal(err)
	}
	pidA, err := sys.Spawn("uniq-client", []byte("svcA a 500"), core.SpawnConfig{Cluster: 2, BackupCluster: 0})
	if err != nil {
		t.Fatal(err)
	}
	pidB, err := sys.Spawn("uniq-client", []byte("svcB b 500"), core.SpawnConfig{Cluster: 2, BackupCluster: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitExit(pidA, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitExit(pidB, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, e := range sys.GuestErrors() {
		t.Errorf("guest error: %s", e)
	}
	log := sys.EventLog()
	if dropped := log.Dropped(); dropped != 0 {
		t.Fatalf("event ring overflowed (%d dropped); grow the test's capacity", dropped)
	}
	assertNoInterleavingSys(t, log.Events())
}

// assertNoInterleavingSys checks that for every pair of clusters, the order
// of the message IDs both received is identical (§5.1: "messages are not
// interleaved differently at different clusters").
func assertNoInterleavingSys(t *testing.T, events []trace.Event) {
	t.Helper()
	orders := make(map[types.ClusterID][]uint64)
	for _, e := range events {
		if e.Kind == trace.EvReceive {
			orders[e.Cluster] = append(orders[e.Cluster], e.MsgID)
		}
	}
	if len(orders) < 2 {
		t.Fatalf("receives recorded at %d clusters; need at least 2 for the pairwise property", len(orders))
	}
	var clusters []types.ClusterID
	for c := range orders {
		clusters = append(clusters, c)
	}
	checked := false
	for i := 0; i < len(clusters); i++ {
		for j := i + 1; j < len(clusters); j++ {
			a, b := orders[clusters[i]], orders[clusters[j]]
			inA := make(map[uint64]bool, len(a))
			for _, id := range a {
				inA[id] = true
			}
			inB := make(map[uint64]bool, len(b))
			for _, id := range b {
				inB[id] = true
			}
			var sharedA, sharedB []uint64
			for _, id := range a {
				if inB[id] {
					sharedA = append(sharedA, id)
				}
			}
			for _, id := range b {
				if inA[id] {
					sharedB = append(sharedB, id)
				}
			}
			if len(sharedA) != len(sharedB) {
				t.Fatalf("%v/%v shared-message counts differ: %d vs %d",
					clusters[i], clusters[j], len(sharedA), len(sharedB))
			}
			if len(sharedA) > 0 {
				checked = true
			}
			for k := range sharedA {
				if sharedA[k] != sharedB[k] {
					t.Fatalf("%v and %v disagree at shared position %d: msg#%d vs msg#%d",
						clusters[i], clusters[j], k, sharedA[k], sharedB[k])
				}
			}
		}
	}
	if !checked {
		t.Fatal("no cluster pair shared any message; the property was vacuous")
	}
}

// TestOneSnapshotCoversEveryLayer pins the shared-sink fix: bus, kernels,
// and servers all report into the single system Metrics, so one snapshot
// delta accounts for a whole workload — no counter is siphoned into a
// private sink the way bus.New(nil) used to.
func TestOneSnapshotCoversEveryLayer(t *testing.T) {
	sys, err := core.New(core.Options{Clusters: 3, SyncReads: 8}, uniqRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()

	before := sys.Metrics().Snapshot()
	if _, err := sys.Spawn("uniq-server", []byte("one"), core.SpawnConfig{Cluster: 2, BackupCluster: 0}); err != nil {
		t.Fatal(err)
	}
	pid, err := sys.Spawn("uniq-client", []byte("one c 200"), core.SpawnConfig{Cluster: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitExit(pid, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	d := sys.Metrics().Snapshot().Delta(before)
	for _, counter := range []string{
		"bus_transmissions",  // bus layer
		"primary_deliveries", // kernel delivery role 1
		"backup_saves",       // kernel delivery role 2
		"syncs",              // kernel sync machinery
	} {
		if d[counter] == 0 {
			t.Errorf("counter %q did not move in the system snapshot; a layer is reporting elsewhere", counter)
		}
	}
}
