package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"auragen/internal/fault"
	"auragen/internal/fileserver"
	"auragen/internal/guest"
	"auragen/internal/trace"
	"auragen/internal/ttyserver"
	"auragen/internal/types"
)

// repairPhases extracts the EvRepair phase sequence for cluster c.
func repairPhases(sys *System, c types.ClusterID) []types.RepairPhase {
	var out []types.RepairPhase
	for _, e := range sys.EventLog().Events() {
		if e.Kind == trace.EvRepair && e.Cluster == c {
			out = append(out, types.RepairPhase(e.Arg))
		}
	}
	return out
}

// TestRepairRestoresFullRedundancy is the tentpole's core contract: a
// quarterback promoted by a crash runs unprotected, and Repair gives it a
// fresh backup on the repaired cluster — not only halfbacks (§7.3) get
// re-backed. Afterwards RedundancyGaps is empty: the system is ready for
// the next single failure.
func TestRepairRestoresFullRedundancy(t *testing.T) {
	sys := newTestSystem(t, 4)
	crashed := crashAtDelivery(sys, 2, 200)
	counterPID, err := sys.Spawn("counter", []byte("qb"), SpawnConfig{
		Cluster: 2, BackupCluster: 3, Mode: types.Quarterback,
	})
	if err != nil {
		t.Fatal(err)
	}
	spawnClient(t, sys, "qb", 30000, SpawnConfig{Cluster: 1, BackupCluster: 3})
	awaitFault(t, crashed)
	// The promoted quarterback runs without a backup.
	awaitProcOn(t, sys, counterPID, 3)
	if loc, _ := sys.Directory().Proc(counterPID); loc.BackupCluster != types.NoCluster {
		t.Fatalf("promoted quarterback should be unbacked, got %+v", loc)
	}
	if err := sys.WaitRedundant(50 * time.Millisecond); err == nil {
		t.Fatal("WaitRedundant succeeded with a crashed cluster and an unbacked process")
	}

	if err := sys.Repair(2); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitRedundant(10 * time.Second); err != nil {
		t.Fatalf("%v\n%s", err, sys.DumpAll())
	}
	if got := sys.RepairState(2); got != types.RepairRedundant {
		t.Fatalf("RepairState(2) = %v, want redundant", got)
	}
	loc, _ := sys.Directory().Proc(counterPID)
	if loc.BackupCluster != 2 {
		t.Fatalf("quarterback re-backup landed on %v, want repaired cluster2", loc.BackupCluster)
	}

	// The re-established backup must be usable: crash the promoted primary
	// and finish the exchange from the backup on the repaired cluster.
	awaitFault(t, crashAtDelivery(sys, 3, 200))
	waitForTTY(t, sys, 1, "final=30000", 30*time.Second)
	loc, _ = sys.Directory().Proc(counterPID)
	if loc.Cluster != 2 {
		t.Fatalf("after second crash, counter on %v, want repaired cluster2", loc.Cluster)
	}
}

// TestRepairPhaseLifecycle verifies the EvRepair trace: phases advance
// booting → resilvering → rebacking → redundant, exactly once each.
func TestRepairPhaseLifecycle(t *testing.T) {
	reg := guest.NewRegistry()
	reg.Register("counter", guest.ReactorFactory(func() guest.Handler { return counterHandler{} }))
	reg.Register("client", guest.ReactorFactory(func() guest.Handler { return clientHandler{} }))
	sys, err := New(Options{Clusters: 3, SyncReads: 4, SyncTicks: 1 << 20, EventLogLimit: 1 << 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	if _, err := sys.Spawn("counter", []byte("ph"), SpawnConfig{Cluster: 2, BackupCluster: 1}); err != nil {
		t.Fatal(err)
	}
	spawnClient(t, sys, "ph", 500, SpawnConfig{Cluster: 1, BackupCluster: 2})
	waitForTTY(t, sys, 1, "final=500", 10*time.Second)

	if err := sys.Crash(2); err != nil {
		t.Fatal(err)
	}
	if got := sys.RepairState(2); got != types.RepairIdle {
		t.Fatalf("RepairState before repair = %v, want idle", got)
	}
	if err := sys.Repair(2); err != nil {
		t.Fatal(err)
	}
	want := []types.RepairPhase{
		types.RepairBooting, types.RepairResilvering,
		types.RepairRebacking, types.RepairRedundant,
	}
	got := repairPhases(sys, 2)
	if len(got) != len(want) {
		t.Fatalf("phase trace %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("phase trace %v, want %v", got, want)
		}
	}
}

// TestRepairResilversFailedMirrors: a cluster crash plus a mirror failure
// are two tolerated single faults in sequence; Repair returns the mirrored
// pair to block-identical redundancy alongside the cluster itself.
func TestRepairResilversFailedMirrors(t *testing.T) {
	sys := newTestSystem(t, 3)
	if _, err := sys.Spawn("counter", []byte("mr"), SpawnConfig{Cluster: 2, BackupCluster: 1}); err != nil {
		t.Fatal(err)
	}
	spawnClient(t, sys, "mr", 800, SpawnConfig{Cluster: 1, BackupCluster: 2})
	waitForTTY(t, sys, 1, "final=800", 10*time.Second)

	if err := sys.FSDisk().FailMirror(1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Crash(2); err != nil {
		t.Fatal(err)
	}
	if sys.FSDisk().MirrorsEqual() {
		t.Fatal("MirrorsEqual with a failed mirror")
	}
	if err := sys.Repair(2); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitRedundant(10 * time.Second); err != nil {
		t.Fatalf("%v\n%s", err, sys.DumpAll())
	}
	if len(sys.FSDisk().FailedMirrors()) != 0 {
		t.Fatalf("failed mirrors after repair: %v", sys.FSDisk().FailedMirrors())
	}
}

// TestRepairServerClusterRedundancy: after a server-cluster crash and
// repair, both page-server replicas hold identical content, every system
// service has a standby twin again, and the configuration survives a crash
// of the other server cluster.
func TestRepairServerClusterRedundancy(t *testing.T) {
	sys := newTestSystem(t, 3)
	crashed := crashAtDelivery(sys, 0, 200)
	if _, err := sys.Spawn("counter", []byte("sc"), SpawnConfig{Cluster: 2, BackupCluster: 1}); err != nil {
		t.Fatal(err)
	}
	spawnClient(t, sys, "sc", 1500, SpawnConfig{Cluster: 1, BackupCluster: 2})
	awaitFault(t, crashed)
	waitForTTY(t, sys, 1, "final=1500", 20*time.Second)

	if err := sys.Repair(0); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitRedundant(10 * time.Second); err != nil {
		t.Fatalf("%v\n%s", err, sys.DumpAll())
	}
	if sys.Pager(0).Fingerprint() != sys.Pager(1).Fingerprint() {
		t.Fatal("page-server replicas diverged after repair")
	}

	// Ready for the next single failure: take down the other server cluster.
	crashed = crashAtDelivery(sys, 1, 200)
	if _, err := sys.Spawn("counter", []byte("sc2"), SpawnConfig{Cluster: 2, BackupCluster: 0}); err != nil {
		t.Fatal(err)
	}
	spawnClient(t, sys, "sc2", 1800, SpawnConfig{Cluster: 2, BackupCluster: 0})
	awaitFault(t, crashed)
	waitForTTY(t, sys, 1, "final=1800", 30*time.Second)
}

// TestRepairedTwinServesOldChannels: a file channel opened before cluster 1
// (the server twins) fails keeps its twin across the repair. The repair
// announces the new twins by BackupUp, so the client's entry names the
// repaired twin again; when cluster 0 (the server primaries) fails next,
// the twin serves the channel and the file holds every append once, in
// order. Client and feeder run on clusters 2 and 3, away from both crashes.
// The appends either wait out the repair or run through its handshake.
func TestRepairedTwinServesOldChannels(t *testing.T) {
	t.Run("appends held during the repair", func(t *testing.T) { repairedTwinServes(t, 300, true) })
	t.Run("appends through the repair", func(t *testing.T) { repairedTwinServes(t, 1500, false) })
}

func repairedTwinServes(t *testing.T, total int, held bool) {
	sys := newTestSystem(t, 4)
	record := func(i int) string { return fmt.Sprintf("r%03d\n", i) }
	sys.Register("twappender", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				for _, name := range []string{"/twin/log", "tty:6", "chan:twin"} {
					fd, err := p.Open(name)
					if err != nil {
						return err
					}
					st.PutInt64(name, int64(fd))
				}
				return nil
			},
			OnMessageFunc: func(p guest.API, st *guest.State, fd types.FD, data []byte) error {
				file, tty := types.FD(st.GetInt64("/twin/log")), types.FD(st.GetInt64("tty:6"))
				if string(data) != "end" {
					if _, err := p.Call(file, fileserver.AppendReq(append(data, '\n'))); err != nil {
						return err
					}
					if n := st.Add("n", 1); n%25 == 0 {
						return p.Write(tty, ttyserver.WriteReq(fmt.Sprintf("at=%d", n)))
					}
					return nil
				}
				if _, err := p.Call(file, fileserver.SeekReq(0)); err != nil {
					return err
				}
				reply, err := p.Call(file, fileserver.ReadReq(1<<16))
				if err != nil {
					return err
				}
				rp, err := fileserver.DecodeReply(reply)
				if err != nil {
					return err
				}
				var want strings.Builder
				for i := 0; i < total; i++ {
					want.WriteString(record(i))
				}
				verdict := fmt.Sprintf("verified n=%d", total)
				if string(rp.Data) != want.String() {
					verdict = fmt.Sprintf("mismatch err=%q: %q", rp.Err, rp.Data)
				}
				st.Exit()
				return p.Write(tty, ttyserver.WriteReq(verdict))
			},
		}
	}))
	sys.Register("twfeeder", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				out, err := p.Open("chan:twin")
				if err != nil {
					return err
				}
				tty, err := p.Open("tty:7")
				if err != nil {
					return err
				}
				for i := 0; i < total; i++ {
					if held && i == total/3 {
						// Hold the rest until the test has crashed and
						// repaired cluster 1.
						if _, err := p.Call(tty, ttyserver.ReadReq()); err != nil {
							return err
						}
					}
					if err := p.Write(out, []byte(strings.TrimSuffix(record(i), "\n"))); err != nil {
						return err
					}
				}
				st.Exit()
				return p.Write(out, []byte("end"))
			},
		}
	}))
	if _, err := sys.Spawn("twappender", nil, SpawnConfig{Cluster: 2, BackupCluster: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spawn("twfeeder", nil, SpawnConfig{Cluster: 3, BackupCluster: 2}); err != nil {
		t.Fatal(err)
	}
	waitForTTY(t, sys, 6, fmt.Sprintf("at=%d", total/3), 10*time.Second)
	if err := sys.Crash(1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Repair(1); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitRedundant(10 * time.Second); err != nil {
		t.Fatalf("%v\n%s", err, sys.DumpAll())
	}
	if held {
		sys.TypeLine(7, "go")
		waitForTTY(t, sys, 6, fmt.Sprintf("at=%d", total/2), 10*time.Second)
	}
	if err := sys.Crash(0); err != nil {
		t.Fatal(err)
	}
	waitForTTY(t, sys, 6, fmt.Sprintf("verified n=%d", total), 10*time.Second)
}

// TestRepairRejectsLiveCluster: repairing a cluster that has not failed is
// an error, and so is starting a second repair while one is in flight.
func TestRepairRejectsLiveCluster(t *testing.T) {
	sys := newTestSystem(t, 3)
	err := sys.Repair(2)
	if err == nil || !strings.Contains(err.Error(), "not crashed") {
		t.Fatalf("Repair of a live cluster: %v", err)
	}
}

// TestRepairAbortOnRecrash drives the clean-abort path: the cluster under
// repair fails again while the repair is in flight. Repair must return
// ErrRepairAborted, leave the phase at RepairAborted, and a fresh Repair
// must then converge to full redundancy. The re-crash races the tail of the
// repair, so the injection retries until one lands inside the window.
func TestRepairAbortOnRecrash(t *testing.T) {
	reg := guest.NewRegistry()
	reg.Register("counter", guest.ReactorFactory(func() guest.Handler { return counterHandler{} }))
	reg.Register("client", guest.ReactorFactory(func() guest.Handler { return clientHandler{} }))
	sys, err := New(Options{Clusters: 4, SyncReads: 4, SyncTicks: 1 << 20, EventLogLimit: 1 << 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)

	// Several processes on the doomed cluster widen the rebacking window:
	// each needs a fresh backup established during repair. Each counter is
	// driven by a short-lived client first, so by crash time it sits at its
	// reactor boundary — a state-capturable establishment pause point. (A
	// process stuck mid-Call — e.g. an Open that never pairs — cannot be
	// paused for online establishment, by design: the request half has
	// already escaped.)
	for i := 0; i < 6; i++ {
		if _, err := sys.Spawn("counter", []byte(fmt.Sprintf("ab%d", i)),
			SpawnConfig{Cluster: 2, BackupCluster: 3}); err != nil {
			t.Fatal(err)
		}
		pid := spawnClient(t, sys, fmt.Sprintf("ab%d", i), 3+i, SpawnConfig{Cluster: 1})
		if err := sys.WaitExit(pid, 30*time.Second); err != nil {
			t.Fatalf("client %d never finished: %v", i, err)
		}
	}

	for attempt := 0; attempt < 10; attempt++ {
		if len(sys.CrashedClusters()) == 0 {
			if err := sys.Crash(2); err != nil {
				t.Fatal(err)
			}
		}
		sys.Settle(2 * time.Second)

		fire := make(chan struct{})
		var once sync.Once
		sys.EventLog().SetObserver(func(e trace.Event) {
			if e.Kind == trace.EvRepair && e.Cluster == 2 &&
				types.RepairPhase(e.Arg) == types.RepairResilvering {
				once.Do(func() { close(fire) })
			}
		})
		crashDone := make(chan error, 1)
		go func() {
			<-fire
			crashDone <- sys.Crash(2)
		}()
		rerr := sys.Repair(2)
		sys.EventLog().SetObserver(nil)
		if cerr := <-crashDone; cerr != nil {
			t.Fatalf("re-crash failed to apply: %v", cerr)
		}

		if errors.Is(rerr, ErrRepairAborted) {
			if got := sys.RepairState(2); got != types.RepairAborted {
				t.Fatalf("RepairState after abort = %v, want aborted", got)
			}
			// The abort must be clean: a fresh repair completes and closes
			// every redundancy gap.
			if err := sys.Repair(2); err != nil {
				t.Fatalf("repair after abort: %v", err)
			}
			if err := sys.WaitRedundant(10 * time.Second); err != nil {
				t.Fatalf("%v\n%s", err, sys.DumpAll())
			}
			return
		}
		if rerr != nil {
			t.Fatalf("attempt %d: unexpected repair error: %v", attempt, rerr)
		}
		// The repair outran the re-crash; cluster 2 is simply crashed again
		// and the next attempt retries the race.
	}
	t.Skip("re-crash never landed inside the repair window in 10 attempts")
}

// TestRepairRetiresStaleKernelByNotice: a cluster declared dead behind an
// inbound cut keeps running, and nothing re-sends the notice it missed when
// the cut heals. Repair must take that stale kernel out of service by the
// crash notice — a step-down at its dispatch, before the replacement boots
// — and never by halting it out of bus order; while the cut still stands,
// Repair must refuse.
func TestRepairRetiresStaleKernelByNotice(t *testing.T) {
	declareBehindCut := func(t *testing.T) *System {
		t.Helper()
		reg := guest.NewRegistry()
		reg.Register("counter", guest.ReactorFactory(func() guest.Handler { return counterHandler{} }))
		sys, err := New(Options{Clusters: 3, SyncReads: 4, SyncTicks: 1 << 20, EventLogLimit: 1 << 16}, reg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Stop)
		// The counter is driven to its reactor boundary first, so the
		// repair can re-back it once it has been promoted on cluster 1.
		if _, err := sys.Spawn("counter", []byte("rt"), SpawnConfig{Cluster: 2, BackupCluster: 1}); err != nil {
			t.Fatal(err)
		}
		if err := sys.WaitExit(spawnClient(t, sys, "rt", 3, SpawnConfig{Cluster: 0}), 30*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := sys.PartitionCluster(2, true, false); err != nil {
			t.Fatal(err)
		}
		sys.InjectProbeFailures(2, fault.DefaultDebounce)
		for i := 0; i < fault.DefaultDebounce; i++ {
			sys.PollDetector()
		}
		if got := sys.CrashedClusters(); len(got) != 1 || got[0] != 2 {
			t.Fatalf("crashed clusters %v after the debounce, want [c2]", got)
		}
		if sys.kern(2).Crashed() {
			t.Fatal("cluster 2 halted behind its inbound cut")
		}
		return sys
	}

	t.Run("healed", func(t *testing.T) {
		sys := declareBehindCut(t)
		sys.bus.HealAllCuts() // heals without re-sending the notice
		if err := sys.Repair(2); err != nil {
			t.Fatal(err)
		}
		if n := sys.Metrics().StepDowns.Load(); n == 0 {
			t.Fatal("the stale kernel left service with zero step-downs")
		}
		// The stale kernel steps down, and every kernel handles the
		// re-sent notice, before the replacement boots.
		stepDown, booted := false, false
		for _, e := range sys.EventLog().Events() {
			switch {
			case e.Kind == trace.EvStepDown && e.Cluster == 2:
				stepDown = true
			case e.Kind == trace.EvRepair && e.Cluster == 2 && types.RepairPhase(e.Arg) == types.RepairBooting:
				if !stepDown {
					t.Fatal("the replacement booted before the stale kernel stepped down")
				}
				booted = true
			case e.Kind == trace.EvCrash && e.Arg == 2 && booted:
				t.Fatalf("%v handled the crash notice of c2 after the replacement booted", e.Cluster)
			}
		}
		if !booted {
			t.Fatal("no booting event for cluster 2")
		}
	})

	t.Run("still cut", func(t *testing.T) {
		sys := declareBehindCut(t)
		old := sys.kern(2)
		err := sys.Repair(2)
		if err == nil || !strings.Contains(err.Error(), "heal first") {
			t.Fatalf("Repair behind a cut: %v, want a heal-first refusal", err)
		}
		if sys.kern(2) != old || old.Crashed() || len(repairPhases(sys, 2)) != 0 {
			t.Fatalf("refused repair booted a kernel or halted the stale one (phases %v)", repairPhases(sys, 2))
		}
		if got := sys.CrashedClusters(); len(got) != 1 || got[0] != 2 {
			t.Fatalf("crashed clusters %v after the refusal, want [c2]", got)
		}
	})
}
