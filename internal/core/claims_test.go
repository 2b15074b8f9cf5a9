package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"auragen/internal/fileserver"
	"auragen/internal/guest"
	"auragen/internal/trace"
	"auragen/internal/types"
	"auragen/internal/workload"
)

// The paper's evaluation (§8) is qualitative — its hardware was unfinished —
// but every efficiency claim in it is a count: one bus transmission per
// message, pages shipped in proportion to pages dirtied, backups deferred
// until needed. Each test below checks one claim by counting, from
// trace.Metrics or the event log. None sleeps or asserts on elapsed time:
// each crash lands at a quiescent point the workload itself reaches (a client
// has exited), and the only timeouts are hang guards.

// claimSystem boots a system with the workload guests registered, an event
// log large enough for the whole run, read-count-triggered syncs only, and a
// file server that does not sync unless a test asks it to.
func claimSystem(t *testing.T, clusters int) *System {
	t.Helper()
	reg := guest.NewRegistry()
	workload.Register(reg)
	sys, err := New(Options{Clusters: clusters, SyncReads: 1 << 20, SyncTicks: 1 << 40, EventLogLimit: 1 << 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	sys.fs[0].SyncEvery, sys.fs[1].SyncEvery = 1<<20, 1<<20
	return sys
}

const hangGuard = 60 * time.Second

func spawn(t *testing.T, sys *System, program, args string, cfg SpawnConfig) types.PID {
	t.Helper()
	pid, err := sys.Spawn(program, []byte(args), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pid
}

func waitExit(t *testing.T, sys *System, pid types.PID) {
	t.Helper()
	if err := sys.WaitExit(pid, hangGuard); err != nil {
		t.Fatalf("%v (guest errors %v)", err, sys.GuestErrors())
	}
}

// TestClaimOneTransmissionPerMessage (§5.1, §8.1): a data message is
// transmitted across the bus exactly once, whatever its fan-out. With the
// sender and the destination both backed up on distinct clusters the one
// transmission is received at three clusters — destination, destination's
// backup, sender's backup — and without backups at one.
func TestClaimOneTransmissionPerMessage(t *testing.T) {
	const count = 40
	for _, tc := range []struct {
		serverBackup, clientBackup types.ClusterID
		fanOut                     int
	}{{0, 3, 3}, {NoBackup, NoBackup, 1}} {
		t.Run(fmt.Sprintf("fanOut=%d", tc.fanOut), func(t *testing.T) {
			sys := claimSystem(t, 4)
			spawn(t, sys, "echo-server", "claim", SpawnConfig{Cluster: 2, BackupCluster: tc.serverBackup})
			waitExit(t, sys, spawn(t, sys, "echo-client", fmt.Sprintf("claim %d 64", count),
				SpawnConfig{Cluster: 1, BackupCluster: tc.clientBackup}))
			receivers := make(map[uint64]int) // data transmission ID → receiving clusters
			for _, e := range sys.EventLog().Events() {
				switch {
				case e.MsgKind != types.KindData:
				case e.Kind == trace.EvTransmit:
					receivers[e.MsgID] += 0 // a transmission nobody received still counts
				case e.Kind == trace.EvReceive:
					receivers[e.MsgID]++
				}
			}
			if n := len(receivers); n != 2*count {
				t.Fatalf("%d data transmissions for %d requests and %d replies", n, count, count)
			}
			for id, n := range receivers {
				if n != tc.fanOut {
					t.Fatalf("data transmission %d received at %d clusters, want %d", id, n, tc.fanOut)
				}
			}
			if d := sys.EventLog().Dropped(); d != 0 {
				t.Fatalf("event log dropped %d events", d)
			}
		})
	}
}

// TestClaimInactiveBackupRunsNoGuestCode (§8.1): a backup costs its cluster
// executive work only. Cluster 0 holds the echo server's backup through the
// whole run: it keeps a BackupPCB and no process for the pid, it dispatches
// only save (requests) and count (replies) roles for the pid's traffic, and
// the server program's handlers run exactly as often as the primary needs.
func TestClaimInactiveBackupRunsNoGuestCode(t *testing.T) {
	const count = 40
	sys := claimSystem(t, 4)
	var handled atomic.Int64 // every Start and OnMessage, on any cluster
	sys.Register("counted-echo-server", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				handled.Add(1)
				return workload.EchoServer{}.Start(p, st)
			},
			OnMessageFunc: func(p guest.API, st *guest.State, fd types.FD, data []byte) error {
				handled.Add(1)
				return workload.EchoServer{}.OnMessage(p, st, fd, data)
			},
		}
	}))
	// The client exits once the last reply is staged at every target; the
	// backup cluster counts it when its executive gets to it.
	counted, countedAll := 0, make(chan struct{})
	sys.EventLog().SetObserver(func(e trace.Event) {
		if e.Cluster == 0 && e.Kind == trace.EvCount && e.MsgKind == types.KindData {
			if counted++; counted == count {
				close(countedAll)
			}
		}
	})
	server := spawn(t, sys, "counted-echo-server", "claim", SpawnConfig{Cluster: 2, BackupCluster: 0})
	waitExit(t, sys, spawn(t, sys, "echo-client", fmt.Sprintf("claim %d 64", count), SpawnConfig{Cluster: 1, BackupCluster: 3}))
	select {
	case <-countedAll:
	case <-time.After(hangGuard):
	}
	sys.EventLog().SetObserver(nil) // orders the observer's writes before the read below
	if counted != count {
		t.Fatalf("the backup cluster counted %d of %d replies after %v", counted, count, hangGuard)
	}

	// Start, the accept notice, and one OnMessage per request.
	if got := handled.Load(); got != count+2 {
		t.Fatalf("server handlers ran %d times, want %d: guest code ran somewhere besides the primary", got, count+2)
	}
	backupKernel := sys.Kernel(0)
	if _, ok := backupKernel.Proc(server); ok {
		t.Fatal("the backup cluster runs a process for the server")
	}
	if _, ok := backupKernel.Backup(server); !ok {
		t.Fatal("the backup cluster holds no BackupPCB for the server")
	}
	roles := make(map[trace.EventKind]int)
	for _, e := range sys.EventLog().Events() {
		if e.Cluster == 0 && e.MsgKind == types.KindData {
			roles[e.Kind]++
		}
	}
	want := map[trace.EventKind]int{trace.EvReceive: 2 * count, trace.EvSave: count, trace.EvCount: count}
	if fmt.Sprint(roles) != fmt.Sprint(want) {
		t.Fatalf("backup cluster's data events %v, want %v", roles, want)
	}
}

// pageProbe is a raw guest — no reactor, so no KV heap — that owns exactly
// the pages it writes. It fills `resident` pages, accepts one client on
// "serve:probe", and serves the client's requests in groups: each request
// rewrites pages 0..dirty-1 and is echoed back, and each group ends at a
// sync point (the open reply and the accept notice are group zero). A final
// sync triggered by virtual time, with no reads and no pages dirtied, closes
// the run. Args: "<resident> <dirty> <group>,<group>,...".
type pageProbe struct{}

const probeTicks = 1 << 10

func (pageProbe) Run(p guest.API) error {
	var resident, dirty int
	var groups string
	if _, err := fmt.Sscanf(string(p.Args()), "%d %d %s", &resident, &dirty, &groups); err != nil {
		return err
	}
	page := int64(p.Space().PageSize())
	listen, err := p.Open("serve:probe")
	if err != nil {
		return err
	}
	for i := 0; i < resident; i++ {
		p.Space().WriteAt(int64(i)*page, []byte{1})
	}
	notice, err := p.Read(listen)
	if err != nil {
		return err
	}
	conn, err := p.Accept(notice)
	if err != nil {
		return err
	}
	if err := p.SyncPoint(); err != nil {
		return err
	}
	for _, g := range strings.Split(groups, ",") {
		n, _ := strconv.Atoi(g)
		for i := 0; i < n; i++ {
			req, err := p.Read(conn)
			if err != nil {
				return err
			}
			for pg := 0; pg < dirty; pg++ {
				p.Space().WriteAt(int64(pg)*page, req)
			}
			if err := p.Write(conn, req); err != nil {
				return err
			}
		}
		if err := p.SyncPoint(); err != nil {
			return err
		}
	}
	p.Tick(probeTicks)
	return p.SyncPoint()
}

func (pageProbe) FlushState()                {}
func (pageProbe) MarshalRegs() []byte        { return nil }
func (pageProbe) UnmarshalRegs([]byte) error { return nil }

// probeSyncs runs a pageProbe on cluster 2, backed up on cluster 0 and
// syncing at every sync point that follows a read, against an echo client on
// cluster 1. It returns, for every sync in order, the pages it shipped and
// the saved messages its application discarded at the backup. The last
// sync's discards are not known until a later sync applies, so the closing
// tick-triggered sync has none reported.
func probeSyncs(t *testing.T, resident, dirty int, groups []int, full bool) (pages, discards []uint64) {
	t.Helper()
	sys := claimSystem(t, 3)
	sys.Register("page-probe", func() guest.Guest { return pageProbe{} })
	m := sys.Metrics()
	// The observer runs under the event log's lock, which orders its
	// appends before the reads that follow SetObserver(nil).
	var pid atomic.Uint64 // set before the probe can sync
	var shipped, discarded []uint64
	done := make(chan struct{})
	sys.EventLog().SetObserver(func(e trace.Event) {
		if e.PID != types.PID(pid.Load()) {
			return
		}
		switch {
		case e.Kind == trace.EvSync && e.Cluster == 2:
			shipped = append(shipped, m.PagesOut.Load())
		case e.Kind == trace.EvSyncApply && e.Cluster == 0:
			// A sync's discards are counted just after its apply event, so
			// this reading covers every earlier sync.
			discarded = append(discarded, m.MessagesDiscarded.Load())
			if len(discarded) == len(groups)+2 {
				close(done) // the closing sync has applied
			}
		}
	})
	total, counts := 0, make([]string, len(groups))
	for i, g := range groups {
		total += g
		counts[i] = strconv.Itoa(g)
	}
	basePages, baseDiscards := m.PagesOut.Load(), m.MessagesDiscarded.Load()
	// The probe's first sync waits for the client, which is spawned after
	// the pid is known.
	pid.Store(uint64(spawn(t, sys, "page-probe", fmt.Sprintf("%d %d %s", resident, dirty, strings.Join(counts, ",")),
		SpawnConfig{Cluster: 2, BackupCluster: 0, SyncReads: 1, SyncTicks: probeTicks, FullCheckpoint: full})))
	spawn(t, sys, "echo-client", fmt.Sprintf("probe %d 8", total), SpawnConfig{Cluster: 1, BackupCluster: NoBackup})
	select {
	case <-done:
		sys.EventLog().SetObserver(nil)
	case <-time.After(hangGuard):
		t.Fatalf("closing sync not applied after %v (guest errors %v)", hangGuard, sys.GuestErrors())
	}
	for i := range shipped {
		pages = append(pages, shipped[i]-basePages)
		basePages = shipped[i]
	}
	for i := 1; i < len(discarded); i++ {
		discards = append(discards, discarded[i]-discarded[i-1])
	}
	if discarded[0] != baseDiscards {
		t.Fatalf("%d messages discarded before the probe's first sync applied", discarded[0]-baseDiscards)
	}
	return pages, discards
}

// TestClaimSyncShipsDirtyPages (§5.2, §8.3): a sync ships the pages dirtied
// since the previous sync — not the resident set, and not more for having
// read more — so two resident sizes with the same dirty set cost the same
// per sync. The §2 strawman (SpawnConfig.FullCheckpoint) ships the resident
// set at every sync instead.
func TestClaimSyncShipsDirtyPages(t *testing.T) {
	groups := []int{1, 2, 3, 4}
	per := func(first, steady, last uint64) []uint64 {
		want := []uint64{first}
		for range groups {
			want = append(want, steady)
		}
		return append(want, last)
	}
	for _, tc := range []struct {
		resident, dirty int
		full            bool
		want            []uint64
	}{
		{resident: 8, dirty: 2, want: per(8, 2, 0)},
		{resident: 64, dirty: 2, want: per(64, 2, 0)},
		{resident: 64, dirty: 5, want: per(64, 5, 0)},
		{resident: 64, dirty: 2, full: true, want: per(64, 64, 64)},
	} {
		t.Run(fmt.Sprintf("resident=%d/dirty=%d/full=%v", tc.resident, tc.dirty, tc.full), func(t *testing.T) {
			pages, _ := probeSyncs(t, tc.resident, tc.dirty, groups, tc.full)
			if fmt.Sprint(pages) != fmt.Sprint(tc.want) {
				t.Fatalf("pages shipped per sync %v, want %v", pages, tc.want)
			}
		})
	}
}

// TestClaimSyncDiscardsReadMessages (§5.2): applying a sync discards, at the
// backup, exactly the saved messages the primary read since the previous
// sync — the open reply and the accept notice, then each group of requests.
func TestClaimSyncDiscardsReadMessages(t *testing.T) {
	groups := []int{1, 2, 3, 4}
	_, discards := probeSyncs(t, 4, 1, groups, false)
	want := []uint64{2}
	for _, g := range groups {
		want = append(want, uint64(g))
	}
	if fmt.Sprint(discards) != fmt.Sprint(want) {
		t.Fatalf("messages discarded per sync %v, want %v", discards, want)
	}
}

// auditProbe dials a bank server, asks for its total, and hands the answer to
// the test. Args: "<service>".
func auditProbe(total *atomic.Int64) guest.Factory {
	return guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{StartFunc: func(p guest.API, st *guest.State) error {
			fd, err := p.Open("dial:" + string(p.Args()))
			if err != nil {
				return err
			}
			reply, err := p.Call(fd, workload.AuditReq())
			if err != nil {
				return err
			}
			var sum, serial int64
			if _, err := fmt.Sscanf(string(reply), "total %d %d", &sum, &serial); err != nil {
				return err
			}
			total.Store(sum)
			st.Exit()
			return nil
		}}
	})
}

// TestClaimRollForward (§5.4): a bank server on cluster 2, backed up on 0 and
// syncing every 8 reads, serves 13 transfers; its cluster then crashes. The
// last sync came after the open reply, the accept notice and 6 transfers, so
// the backup rolls forward through the 7 transfers read since it — replaying
// no more than those — and every reply it regenerates is one the primary sent
// since the sync, so each is suppressed. A second teller and an audit then see every
// transfer applied exactly once: the bank's total is conserved.
func TestClaimRollForward(t *testing.T) {
	const (
		accounts, balance = 16, 500
		syncReads         = 8
		before            = 13 // transfers served before the crash
		sinceSync         = (2 + before) % syncReads
	)
	sys := claimSystem(t, 3)
	var total atomic.Int64
	sys.Register("audit-probe", auditProbe(&total))
	server := spawn(t, sys, "bank-server", fmt.Sprintf("bank %d %d 1", accounts, balance),
		SpawnConfig{Cluster: 2, BackupCluster: 0, SyncReads: syncReads})
	plan := workload.TxnPlan{Accounts: accounts, Txns: before, Amount: 3, Seed: 11}
	waitExit(t, sys, spawn(t, sys, "teller", "bank -1 "+string(plan.Encode()), SpawnConfig{Cluster: 1, BackupCluster: NoBackup}))

	m := sys.Metrics()
	crashed := m.Snapshot()
	if err := sys.Crash(2); err != nil {
		t.Fatal(err)
	}
	plan = workload.TxnPlan{Accounts: accounts, Txns: 10, Amount: 5, Seed: 12}
	waitExit(t, sys, spawn(t, sys, "teller", "bank -1 "+string(plan.Encode()), SpawnConfig{Cluster: 1, BackupCluster: NoBackup}))
	d := m.Snapshot().Delta(crashed)
	if d["recoveries"] != 1 {
		t.Fatalf("%d recoveries, want 1 (the bank server)", d["recoveries"])
	}
	if r := d["replayed_messages"]; r != sinceSync {
		t.Fatalf("replayed %d messages; %d were read since the last sync", r, sinceSync)
	}
	if s := d["suppressed_sends"]; s != sinceSync {
		t.Fatalf("suppressed %d sends; the primary sent %d since the last sync", s, sinceSync)
	}
	if loc, _ := sys.Directory().Proc(server); loc.Cluster != 0 {
		t.Fatalf("bank server runs on %v after the crash, want cluster 0", loc.Cluster)
	}
	waitExit(t, sys, spawn(t, sys, "audit-probe", "bank", SpawnConfig{Cluster: 1, BackupCluster: NoBackup}))
	if got := total.Load(); got != accounts*balance {
		t.Fatalf("bank total %d after roll-forward, want %d", got, accounts*balance)
	}
}

// TestClaimDeferredBackupCreation (§7.7, §7.3): a forked child gets a birth
// notice, not a backup, and a child that exits before its first sync never
// costs one. After a crash, a fullback's promoted primary gets a new backup
// before it runs; a quarterback's does not.
func TestClaimDeferredBackupCreation(t *testing.T) {
	t.Run("fork", func(t *testing.T) {
		const children = 10
		sys := claimSystem(t, 3)
		sys.Register("short-lived", guest.ReactorFactory(func() guest.Handler {
			return guest.HandlerFuncs{StartFunc: func(p guest.API, st *guest.State) error {
				st.Exit()
				return nil
			}}
		}))
		sys.Register("forker", guest.ReactorFactory(func() guest.Handler {
			return guest.HandlerFuncs{StartFunc: func(p guest.API, st *guest.State) error {
				for i := 0; i < children; i++ {
					if _, err := p.Fork("short-lived", nil); err != nil {
						return err
					}
				}
				st.Exit()
				return nil
			}}
		}))
		waitExit(t, sys, spawn(t, sys, "forker", "", SpawnConfig{Cluster: 2, BackupCluster: 0}))
		for _, pid := range sys.Directory().Procs() {
			waitExit(t, sys, pid)
		}
		m := sys.Metrics()
		if n := m.BirthNotices.Load(); n != children {
			t.Fatalf("%d birth notices for %d forks", n, children)
		}
		if n := m.BackupsCreated.Load(); n != 0 {
			t.Fatalf("%d backups created for children that never synced", n)
		}
	})
	for _, tc := range []struct {
		mode      types.BackupMode
		newBackup bool
	}{{types.Fullback, true}, {types.Quarterback, false}} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			sys := claimSystem(t, 4)
			server := spawn(t, sys, "echo-server", "modes", SpawnConfig{Cluster: 2, BackupCluster: 3, Mode: tc.mode})
			waitExit(t, sys, spawn(t, sys, "echo-client", "modes 20 64", SpawnConfig{Cluster: 1, BackupCluster: NoBackup}))
			crashed := sys.Metrics().BackupsCreated.Load()
			if err := sys.Crash(2); err != nil {
				t.Fatal(err)
			}
			// The server answers again only once it has been promoted (and,
			// as a fullback, given its new backup first).
			waitExit(t, sys, spawn(t, sys, "echo-client", "modes 20 64", SpawnConfig{Cluster: 1, BackupCluster: NoBackup}))
			created := sys.Metrics().BackupsCreated.Load() - crashed
			loc, _ := sys.Directory().Proc(server)
			if loc.Cluster != 3 || (created == 1) != tc.newBackup || created > 1 ||
				(loc.BackupCluster != types.NoCluster) != tc.newBackup {
				t.Fatalf("after the crash: primary on %v, backup on %v, %d backups created; want a new backup: %v",
					loc.Cluster, loc.BackupCluster, created, tc.newBackup)
			}
		})
	}
}

// TestClaimShadowBlocksSurviveCrash (§7.9): the file server's on-disk image
// moves only at a sync, by shadow blocks and a superblock commit, so a crash
// of its cluster between syncs hands the twin the image as of the last sync.
// The writer's appends since that sync are still in the twin's saved queue;
// it applies them exactly once on top of the pre-sync image, and a second
// writer's appends land after them.
func TestClaimShadowBlocksSurviveCrash(t *testing.T) {
	const (
		record    = 64
		syncEvery = 8
		first     = 21 // not a multiple of syncEvery: the crash is mid-interval
		second    = 5
	)
	sys := claimSystem(t, 3)
	sys.fs[0].SyncEvery, sys.fs[1].SyncEvery = syncEvery, syncEvery
	var size atomic.Int64
	sys.Register("appender", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{StartFunc: func(p guest.API, st *guest.State) error {
			n, _ := strconv.Atoi(string(p.Args()))
			fd, err := p.Open("/claim/log")
			if err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				if _, err := p.Call(fd, fileserver.AppendReq(workload.Pad("record", record))); err != nil {
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
			size.Store(rp.Size)
			st.Exit()
			return nil
		}}
	}))
	waitExit(t, sys, spawn(t, sys, "appender", strconv.Itoa(first), SpawnConfig{Cluster: 2, BackupCluster: NoBackup}))
	if got := size.Load(); got != first*record {
		t.Fatalf("file size %d before the crash, want %d", got, first*record)
	}
	if err := sys.Crash(0); err != nil { // the file server's cluster
		t.Fatal(err)
	}
	waitExit(t, sys, spawn(t, sys, "appender", strconv.Itoa(second), SpawnConfig{Cluster: 2, BackupCluster: NoBackup}))
	if got := size.Load(); got != (first+second)*record {
		t.Fatalf("file size %d after the file server's crash, want %d", got, (first+second)*record)
	}
}
