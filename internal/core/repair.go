package core

import (
	"errors"
	"fmt"
	"time"

	"auragen/internal/directory"
	"auragen/internal/disk"
	"auragen/internal/fileserver"
	"auragen/internal/kernel"
	"auragen/internal/memory"
	"auragen/internal/pager"
	"auragen/internal/procserver"
	"auragen/internal/routing"
	"auragen/internal/trace"
	"auragen/internal/ttyserver"
	"auragen/internal/types"
)

// ErrRepairAborted reports a repair interrupted by a further failure of the
// cluster being repaired: the repair was cleanly abandoned (in-flight backup
// establishments aborted by crash handling, no partial redundancy state
// left behind) and the cluster is crashed again, eligible for a fresh
// Repair call.
var ErrRepairAborted = errors.New("core: repair aborted by a new failure")

// repairTimeout is the watchdog on each of a repair's waits: the
// page-server clone and every process's re-backup.
const repairTimeout = 5 * time.Second

// Repair returns a failed cluster to service and drives the system back to
// full redundancy — the paper's availability story (§2, §7.3, §7.10): a
// failed cluster is repaired, returned to service, and backups are
// regenerated, after which the system is again ready for the next single
// failure. The lifecycle advances through types.RepairPhase states, each
// recorded as a trace.EvRepair event:
//
//	booting      a fresh kernel boots on the repaired hardware and
//	             reattaches to the bus (volatile state was lost).
//	resilvering  failed disk mirrors are resilvered block-for-block from
//	             their survivors; if the cluster hosted server twins
//	             (clusters 0 and 1), the page-server replica is cloned from
//	             the surviving instance at a bus-ordered mark, and
//	             replacement file/process/terminal server twins are mounted
//	             and synced up.
//	rebacking    every live process currently running without a backup —
//	             promoted quarterbacks and halfbacks alike, not only the
//	             halfbacks §7.3 ties to this event — gets a fresh backup
//	             established on the repaired cluster via the online
//	             establishment protocol (initial full-sync, KindBackupUp
//	             announcement, routing unblocked).
//	redundant    the repair is complete.
//
// A crash of the cluster under repair aborts the repair cleanly
// (ErrRepairAborted; phase RepairAborted): crash handling aborts in-flight
// establishments targeting the cluster and the next Repair starts over.
// Crashes of other clusters during re-backup are tolerated — processes
// destroyed by them are skipped, everything else is still re-backed.
//
// Repair replaces the hardware, so a predecessor kernel still running — a
// stale primary that never received its fencing notice — first leaves
// service by the crash notice (retire), and its bus detach completes before
// the replacement attaches under the same cluster ID. While a cut still
// keeps that kernel from the bus, Repair refuses: heal first.
//
// Repair returns once every re-established backup is up and viable; the
// remaining convergence (epoch alignment, replica fingerprints) is
// observable via WaitRedundant.
func (s *System) Repair(c types.ClusterID) error {
	if err := s.retire(c); err != nil {
		return err
	}

	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return types.ErrShutdown
	}
	if !s.crashed[c] {
		s.mu.Unlock()
		return fmt.Errorf("core: %v is not crashed: %w", c, types.ErrNoCluster)
	}
	switch s.repair[c] {
	case types.RepairBooting, types.RepairResilvering, types.RepairRebacking:
		s.mu.Unlock()
		return fmt.Errorf("core: %v repair already in flight (%s): %w", c, s.repair[c], types.ErrExists)
	case types.RepairIdle, types.RepairRedundant, types.RepairAborted:
		// Eligible: no repair in flight.
	}
	delete(s.crashed, c)
	s.repair[c] = types.RepairBooting
	s.repairGen[c]++
	gen := s.repairGen[c]
	s.mu.Unlock()
	s.dir.Notify()

	// The replacement is a new service life: bump the cluster's
	// incarnation so anything stamped by a pre-repair life — including
	// frames still sitting in delay queues — is fenced on arrival.
	s.dir.BumpIncarnation(c)

	// Construct the replacement kernel outside the critical section: it
	// attaches to the bus, a blocking cross-component call that
	// must not run under s.mu (aurolint AURO004). The RepairBooting
	// transition above already excludes a concurrent Repair of the same
	// cluster, so publishing the kernel in a second critical section is
	// race-free.
	k := s.bootKernel(c, gen)
	s.mu.Lock()
	s.kernels[int(c)] = k
	s.mu.Unlock()
	s.logRepair(c, types.RepairBooting)

	// Re-arm failure detection before any repair state is published, so a
	// crash landing mid-repair is detected, broadcast, and unwinds the
	// partial repair through the ordinary crash-handling path.
	s.detector.Watch(c)

	s.setRepairPhase(c, types.RepairResilvering)
	if err := s.resilverStorage(c, k); err != nil {
		s.setRepairPhase(c, types.RepairAborted)
		return err
	}

	s.setRepairPhase(c, types.RepairRebacking)
	if err := s.rebackAll(c); err != nil {
		s.setRepairPhase(c, types.RepairAborted)
		return err
	}

	s.setRepairPhase(c, types.RepairRedundant)
	return nil
}

// retire takes the kernel of c, a cluster declared dead, out of service the
// one way the system has (§7.10): by the crash notice. A kernel still
// running — a stale primary behind a partition, or one whose notice is
// still in flight — is sent the notice again, with the current incarnation,
// and steps down when it dispatches it (kernel.stepDownLocked); every other
// kernel dispatches the notice as a re-delivery, before a mark that retire
// waits for, so none handles it after a replacement has booted. A kernel
// the bus cannot reach is refused: it is never halted out of bus order. A
// cluster no longer declared dead is left alone.
func (s *System) retire(c types.ClusterID) error {
	s.mu.Lock()
	stopped, crashed := s.stopped, s.crashed[c]
	ks := append([]*kernel.Kernel(nil), s.kernels...)
	s.mu.Unlock()
	if stopped {
		return types.ErrShutdown
	}
	if !crashed {
		return nil
	}
	old := ks[int(c)]
	if !old.Crashed() {
		healFirst := fmt.Errorf("core: %v is declared dead but still running behind a cut: heal first", c)
		if !s.bus.Reachable(c) {
			return healFirst
		}
		n := s.marks.Add(1)
		if err := s.mark(n, crashNotice(c, s.dir.Incarnation(c))); err != nil {
			return err
		}
		err := s.await(fmt.Sprintf("retiring %v", c), repairTimeout, func() (string, error) {
			if !old.Crashed() {
				if !s.bus.Reachable(c) {
					return "", healFirst
				}
				return fmt.Sprintf("%v has not stepped down", c), nil
			}
			for _, k := range ks {
				if k.Marked() < n && !k.Crashed() && s.bus.Reachable(k.ID()) {
					return fmt.Sprintf("%v has not dispatched mark %d", k.ID(), n), nil
				}
			}
			return "", nil
		})
		if err != nil {
			return err
		}
	}
	old.Wait()
	return nil
}

// RepairState returns cluster c's position in the repair lifecycle.
func (s *System) RepairState(c types.ClusterID) types.RepairPhase {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repair[c]
}

// setRepairPhase advances the lifecycle state and records the transition.
func (s *System) setRepairPhase(c types.ClusterID, ph types.RepairPhase) {
	s.mu.Lock()
	s.repair[c] = ph
	s.mu.Unlock()
	s.dir.Notify()
	s.logRepair(c, ph)
}

// logRepair emits one EvRepair event (phase transitions are rare; the
// event is what sequential chaos campaigns aim mid-repair faults at).
func (s *System) logRepair(c types.ClusterID, ph types.RepairPhase) {
	if s.log == nil {
		return
	}
	s.log.Append(trace.Event{
		Kind:    trace.EvRepair,
		Cluster: c,
		Arg:     uint64(ph),
	})
}

// resilverStorage performs the storage half of a repair: failed disk
// mirrors are rebuilt from their survivors, and — when the repaired cluster
// hosted server twins — the page-server replica is cloned from the
// surviving instance and replacement peripheral-server twins are mounted
// and synced up. The kernel is started here: after the clone and after its
// servers are registered, before the surviving primaries push catch-up
// syncs.
func (s *System) resilverStorage(c types.ClusterID, k *kernel.Kernel) error {
	// Mirrored pairs first: a mirror failure is a tolerated single fault
	// (§7.1); repair returns every pair to two-copy redundancy.
	for _, d := range s.mirroredDisks() {
		for _, i := range d.FailedMirrors() {
			if err := d.Resilver(i); err != nil {
				return fmt.Errorf("core: resilvering %s mirror %d: %w", d.Name(), i, err)
			}
		}
	}

	if c != 0 && c != 1 {
		k.Start()
		return nil
	}
	other := types.ClusterID(1 - int(c))
	otherK := s.kern(other)

	// Page server: the survivor's kernel clones its replica into a fresh one
	// when it dispatches a mark — Chandy–Lamport with a single marker. The
	// new kernel attached to the bus before the mark was broadcast, so its
	// inbox holds everything the bus orders after the mark, and the fresh
	// replica is attached only when the new kernel dispatches the mark
	// itself: what precedes it, the clone already holds. The new kernel is
	// started after the clone; until then its inbox buffers its traffic.
	np := pager.New(c, disk.New(fmt.Sprintf("pager-mirror-%d-restored", c), memory.DefaultPageSize, 0, 1))
	np.SetEventLog(s.log)
	cloned := make(chan error, 1)
	n := s.marks.Add(1)
	otherK.AtMark(n, func() { cloned <- np.CloneFrom(s.pagers[int(other)]) })
	k.SetPagerAt(np, n)
	if err := s.mark(n); err != nil {
		return fmt.Errorf("core: resilvering page server: %w", err)
	}
	err := s.awaitRepair(c, "resilvering page server", func() (string, error) {
		select {
		case err := <-cloned:
			if err != nil {
				return "", fmt.Errorf("core: resilvering page server: %w", err)
			}
			return "", nil
		default:
		}
		if otherK.Crashed() {
			return "", fmt.Errorf("core: %v failed before the page-server clone: %w", other, types.ErrTooManyFailures)
		}
		return fmt.Sprintf("%v has not dispatched mark %d", other, n), nil
	})
	if err != nil {
		return err
	}
	s.pagers[int(c)] = np

	// Replacement twins of the other servers: the file server over the
	// shared dual-ported disk, the terminal server over the shared device.
	fsTwin, err := fileserver.New(directory.PIDFileServer, c, s.fsDisk, s.fs[int(other)].Super(), false)
	if err != nil {
		return fmt.Errorf("core: mounting file server twin: %w", err)
	}
	fsTwin.SyncEvery = s.fs[int(other)].SyncEvery
	s.fs[int(c)] = fsTwin
	s.procSrv[int(c)] = procserver.New(directory.PIDProcServer, k)
	s.ttySrv[int(c)] = ttyserver.New(directory.PIDTTYServer, s.ttyDevice)
	ups := []*types.Message{backupUp(&kernel.BackupUp{PID: directory.PIDPageServer, BackupCluster: c})}
	for _, twin := range []kernel.Server{fsTwin, s.procSrv[int(c)], s.ttySrv[int(c)]} {
		k.RegisterServer(twin, routing.Backup, other)
		ups = append(ups, backupUp(&kernel.BackupUp{PID: twin.PID(), BackupCluster: c, Origin: other, NeedAck: true}))
	}

	k.Start()

	// Announce the twins in bus order (kernel.handleBackupUpLocked). Once
	// the surviving primaries hold every kernel's ack, force one sync from
	// each, and wait for the new kernel to apply them behind a mark: a twin
	// is not viable before its first sync.
	n = s.marks.Add(1)
	if err := s.mark(n, ups...); err != nil {
		return fmt.Errorf("core: announcing server twins: %w", err)
	}
	err = s.awaitRepair(c, "announcing server twins", func() (string, error) {
		if otherK.Crashed() {
			return "", fmt.Errorf("core: %v failed before its twins were announced: %w", other, types.ErrTooManyFailures)
		}
		if otherK.Marked() < n || !otherK.TwinsAcked() {
			return fmt.Sprintf("%v awaits acks of its twins on %v", other, c), nil
		}
		return "", nil
	})
	if err != nil {
		return err
	}
	otherK.ServerInject(directory.PIDFileServer, func(ctx *kernel.ServerCtx, srv kernel.Server) {
		if fsrv, ok := srv.(*fileserver.Server); ok {
			fsrv.SyncNow(ctx)
		}
	})
	for _, pid := range []types.PID{directory.PIDProcServer, directory.PIDTTYServer} {
		otherK.ServerInject(pid, func(ctx *kernel.ServerCtx, _ kernel.Server) { ctx.Sync() })
	}
	n = s.marks.Add(1)
	if err := s.mark(n); err != nil {
		return fmt.Errorf("core: syncing server twins: %w", err)
	}
	return s.awaitRepair(c, "syncing server twins", func() (string, error) {
		if k.Marked() < n {
			return fmt.Sprintf("%v has not dispatched mark %d", c, n), nil
		}
		return "", nil
	})
}

// backupUp is the bus message announcing a new backup, transmitted by core:
// Origin NoCluster, like crashNotice.
func backupUp(bu *kernel.BackupUp) *types.Message {
	return &types.Message{Kind: types.KindBackupUp, Dst: bu.PID, Origin: types.NoCluster, Payload: kernel.Encode(bu)}
}

// mirroredDisks returns every mirrored pair the system owns: the file
// server's dual-ported disk and both page-server mirrors.
func (s *System) mirroredDisks() []*disk.Disk {
	out := []*disk.Disk{s.fsDisk}
	for _, p := range s.pagers {
		if p != nil {
			out = append(out, p.Disk())
		}
	}
	return out
}

// rebackAll establishes a fresh backup on the repaired cluster for every
// live process currently running without one. §7.3 mandates this for
// halfbacks ("Halfbacks have new backups created only when the cluster in
// which the original primary ran is returned to service"); promoted
// quarterbacks otherwise run unprotected forever, so repair re-backs them
// too — the availability claim is "ready for the next failure", not "ready
// if the next failure spares the survivors".
func (s *System) rebackAll(c types.ClusterID) error {
	for _, pid := range s.dir.Procs() {
		if err := s.rebackOne(c, pid); err != nil {
			return err
		}
	}
	return nil
}

// rebackOne drives one process to a viable backup: initiate establishment
// on the repaired cluster if the process is unbacked, then wait for the
// backup shell to come up synced. It returns nil for processes that need
// nothing (already backed and viable) or that stop existing along the way.
//
// Until the backup is viable, every change retries the establishment. The
// directory is not the authority on whether a process is backed: it runs
// ahead of the kernels while they catch up with a crash notice, and behind
// them when an establishment finalizes after its target crashed, leaving a
// backup recorded on a dead life of that cluster. The primary's kernel is
// the authority, and EstablishBackup asks it: it refuses while the process
// is backed or mid-establishment, and starts one otherwise.
func (s *System) rebackOne(c types.ClusterID, pid types.PID) error {
	return s.awaitRepair(c, fmt.Sprintf("re-backing %s: backup not viable", pid), func() (string, error) {
		loc, ok := s.dir.Proc(pid)
		if !ok || loc.Cluster == types.NoCluster || loc.Cluster == c || s.dir.IsLost(pid) {
			// Exited, destroyed by a concurrent multiple failure, or
			// living on the repaired cluster itself.
			return "", nil
		}
		state := fmt.Sprintf("directory backup %v", loc.BackupCluster)
		if bk := s.kern(loc.BackupCluster); bk != nil && !bk.Crashed() {
			ep, viable, ok := bk.BackupStatus(pid)
			if ok && viable {
				return "", nil
			}
			state += fmt.Sprintf(": shell=%v viable=%v epoch=%v", ok, viable, ep)
		}
		pk := s.kern(loc.Cluster)
		if pk == nil || pk.Crashed() {
			return "", nil // its cluster just died; the next repair picks it up
		}
		switch err := pk.EstablishBackup(pid, c); {
		case err == nil:
			return state + "; establishment initiated", nil
		case errors.Is(err, types.ErrNoProcess), errors.Is(err, types.ErrExists), errors.Is(err, types.ErrNoCluster):
			// "Not promoted yet", "backed or establishing", "target not
			// attached": look again at the next change.
			return state + "; " + err.Error(), nil
		default:
			return "", fmt.Errorf("core: re-establishing backup for %s: %w", pid, err)
		}
	})
}

// awaitRepair is await for one step of c's repair: a new crash of c aborts
// the repair.
func (s *System) awaitRepair(c types.ClusterID, what string, cond func() (string, error)) error {
	return s.await(what, repairTimeout, func() (string, error) {
		s.mu.Lock()
		crashed := s.crashed[c]
		s.mu.Unlock()
		if crashed {
			// Crash handling has already aborted in-flight establishments
			// targeting c.
			return "", fmt.Errorf("core: %v crashed during repair: %w", c, ErrRepairAborted)
		}
		return cond()
	})
}

// RedundancyGaps reports everything still standing between the system and
// full redundancy — the machine-checked form of "ready for the next single
// failure". An empty slice means: every cluster is live, every live process
// has a viable backup at its primary's current epoch, every system server
// has a standby twin, every mirrored pair is block-identical, and both
// page-server replicas hold identical content. Transient gaps (a sync in
// flight, an establishment mid-protocol) are expected while traffic flows;
// WaitRedundant waits for them to close.
func (s *System) RedundancyGaps() []string {
	var gaps []string

	s.mu.Lock()
	for c := range s.crashed {
		gaps = append(gaps, fmt.Sprintf("%v is crashed", c))
	}
	s.mu.Unlock()

	for _, pid := range s.dir.Procs() {
		loc, ok := s.dir.Proc(pid)
		if !ok || loc.Cluster == types.NoCluster || s.dir.IsLost(pid) {
			continue
		}
		if loc.BackupCluster == types.NoCluster {
			gaps = append(gaps, fmt.Sprintf("%s has no backup", pid))
			continue
		}
		pk := s.kern(loc.Cluster)
		bk := s.kern(loc.BackupCluster)
		if pk == nil || pk.Crashed() || bk == nil || bk.Crashed() {
			gaps = append(gaps, fmt.Sprintf("%s placed on a dead cluster", pid))
			continue
		}
		pe, ok := pk.ProcEpoch(pid)
		if !ok {
			gaps = append(gaps, fmt.Sprintf("%s not yet running on %v", pid, loc.Cluster))
			continue
		}
		be, viable, ok := bk.BackupStatus(pid)
		switch {
		case !ok:
			gaps = append(gaps, fmt.Sprintf("%s backup record missing on %v", pid, loc.BackupCluster))
		case !viable:
			gaps = append(gaps, fmt.Sprintf("%s backup shell on %v awaits its establishment sync", pid, loc.BackupCluster))
		case be != pe:
			gaps = append(gaps, fmt.Sprintf("%s backup at epoch %d, primary at %d", pid, be, pe))
		}
	}

	for _, svc := range []types.PID{
		directory.PIDPageServer, directory.PIDFileServer,
		directory.PIDProcServer, directory.PIDTTYServer,
	} {
		loc, ok := s.dir.Service(svc)
		if !ok || loc.Primary == types.NoCluster {
			gaps = append(gaps, fmt.Sprintf("service %s has no primary", svc))
			continue
		}
		if loc.Backup == types.NoCluster {
			gaps = append(gaps, fmt.Sprintf("service %s has no standby twin", svc))
		}
	}

	for _, d := range s.mirroredDisks() {
		if !d.MirrorsEqual() {
			gaps = append(gaps, fmt.Sprintf("disk %s mirrors not block-identical", d.Name()))
		}
	}

	if s.pagers[0] != nil && s.pagers[1] != nil {
		if s.pagers[0].Fingerprint() != s.pagers[1].Fingerprint() {
			gaps = append(gaps, "page-server replicas diverged")
		}
	}
	return gaps
}

// WaitRedundant blocks until RedundancyGaps is empty; the watchdog error
// lists the gaps still open.
func (s *System) WaitRedundant(timeout time.Duration) error {
	return s.await("not redundant", timeout, func() (string, error) {
		if gaps := s.RedundancyGaps(); len(gaps) > 0 {
			return fmt.Sprint(gaps), nil
		}
		return "", nil
	})
}

// WaitBackups blocks until every given process has a backup cluster
// recorded.
func (s *System) WaitBackups(pids []types.PID, timeout time.Duration) error {
	return s.await("backups not established", timeout, func() (string, error) {
		for _, pid := range pids {
			if loc, ok := s.dir.Proc(pid); !ok || loc.BackupCluster == types.NoCluster {
				return pid.String() + " has no backup", nil
			}
		}
		return "", nil
	})
}
