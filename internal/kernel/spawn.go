package kernel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"auragen/internal/directory"
	"auragen/internal/guest"
	"auragen/internal/memory"
	"auragen/internal/routing"
	"auragen/internal/trace"
	"auragen/internal/types"
)

// SpawnOpts tunes process creation.
type SpawnOpts struct {
	Mode types.BackupMode
	// BackupCluster is where the backup lives; types.NoCluster runs the
	// process without fault tolerance.
	BackupCluster types.ClusterID
	// SyncReads/SyncTicks override the cluster defaults (§7.8); zero
	// keeps the default.
	SyncReads uint32
	SyncTicks uint64
	// FullCheckpoint selects the §2 baseline the paper argues against:
	// every synchronization copies the process's entire data space to the
	// page server instead of only the pages modified since the last sync.
	// Used by the E2 experiment to quantify the message-based scheme's
	// advantage.
	FullCheckpoint bool
}

// Spawn creates a head-of-family process on this cluster (§7.7: "Backups
// for heads of families are created when the primary is created"). The
// backup shell is created where the backup cluster dispatches the birth
// notice queued here, ahead of anything the process sends: in bus order, so
// every kernel that handles a crash notice for this cluster after the
// notice left has already created the shell it must promote, and a peer's
// reply to the process's first request finds the shell at the backup
// cluster. Spawn returns once the notice has left: if this cluster crashes
// first, the notice is lost with the outgoing queue, no cluster could run
// the process, and the spawn fails with types.ErrCrashed, as it does on a
// cluster that crashed before it began.
func (k *Kernel) Spawn(program string, args []byte, opts SpawnOpts) (*PCB, error) {
	if _, ok := k.reg.New(program); !ok {
		return nil, fmt.Errorf("kernel: spawn %q: %w", program, types.ErrNotFound)
	}
	pid := k.dir.AllocPID()

	k.mu.Lock()
	defer k.mu.Unlock()
	if k.crashed || k.stopped {
		return nil, types.ErrCrashed
	}
	p, bn := k.createProcessLocked(pid, program, args, opts.Mode, pid /*family*/, types.NoPID, opts.BackupCluster)
	if opts.SyncReads != 0 {
		p.syncReads = opts.SyncReads
	}
	if opts.SyncTicks != 0 {
		p.syncTicks = opts.SyncTicks
	}
	p.fullCheckpoint = opts.FullCheckpoint
	if opts.BackupCluster != types.NoCluster {
		birth := &types.Message{
			Kind:    types.KindBirthNotice,
			Dst:     pid,
			Route:   types.Route{Dst: opts.BackupCluster, DstBackup: types.NoCluster, SrcBackup: types.NoCluster},
			Payload: Encode(bn),
		}
		k.sendLocked(birth)
		// Whoever holds the transmitting flag offers everything queued
		// before dropping it, so once the flag is down and no hold stands
		// the notice has left unless the queue was lost. The bus stamps an
		// ID on what it takes.
		for k.transmitLocked(); k.transmitting || k.txHold.Load() && birth.ID == 0 && !k.crashed && !k.stopped; k.transmitLocked() {
			k.mu.Unlock()
			runtime.Gosched()
			k.mu.Lock()
		}
		if birth.ID == 0 && (k.crashed || k.stopped) {
			k.dir.RemoveProc(pid)
			return nil, types.ErrCrashed
		}
	}
	k.startProcessLocked(p)
	return p, nil
}

// createProcessLocked builds a PCB with its control channels (a channel to
// the file server, a channel to the process server, and a signal channel)
// and the matching local routing entries. It returns the birth notice that
// describes the process to its backup cluster.
func (k *Kernel) createProcessLocked(pid types.PID, program string, args []byte,
	mode types.BackupMode, family, parent types.PID, backupCluster types.ClusterID) (*PCB, *BirthNotice) {

	p := &PCB{
		pid:           pid,
		program:       program,
		args:          append([]byte(nil), args...),
		mode:          mode,
		family:        family,
		parent:        parent,
		cluster:       k.id,
		backupCluster: backupCluster,
		space:         memory.NewAddressSpace(k.pageSize),
		syncReads:     k.syncReads,
		syncTicks:     k.syncTicks,
		fds:           make(map[types.FD]types.ChannelID),
		nextFD:        2,
		sigIgnore:     make(map[types.Signal]bool),
		children:      make(map[types.PID]struct{}),
		done:          make(chan struct{}),
	}
	p.cond = sync.NewCond(&k.mu)
	g, _ := k.reg.New(program)
	p.g = g
	if rs, ok := g.(guest.ReadSafePointer); ok && rs.ReadSafePoint() {
		p.readSafe = true
	}

	fsLoc, _ := k.dir.Service(directory.PIDFileServer)
	procLoc, _ := k.dir.Service(directory.PIDProcServer)

	fsCh := k.dir.AllocChannel()
	procCh := k.dir.AllocChannel()
	sigCh := k.dir.AllocChannel()
	p.fds[0] = fsCh
	p.fds[1] = procCh
	p.signalCh = sigCh

	infos := []ChannelInfo{
		{Channel: fsCh, FD: 0, Peer: directory.PIDFileServer, PeerCluster: fsLoc.Primary, PeerBackupCluster: fsLoc.Backup, PeerIsServer: true},
		{Channel: procCh, FD: 1, Peer: directory.PIDProcServer, PeerCluster: procLoc.Primary, PeerBackupCluster: procLoc.Backup, PeerIsServer: true},
		{Channel: sigCh, FD: types.NoFD, Peer: directory.PIDKernel, PeerCluster: types.NoCluster, PeerBackupCluster: types.NoCluster},
	}
	for _, ci := range infos {
		k.table.Add(&routing.Entry{
			Channel:            ci.Channel,
			Owner:              pid,
			Peer:               ci.Peer,
			Role:               routing.Primary,
			PeerCluster:        ci.PeerCluster,
			PeerBackupCluster:  ci.PeerBackupCluster,
			OwnerBackupCluster: backupCluster,
			PeerIsServer:       ci.PeerIsServer,
		})
	}

	k.procs[pid] = p
	k.dir.SetProc(pid, directory.ProcLoc{
		Cluster:       k.id,
		BackupCluster: backupCluster,
		Mode:          mode,
		Family:        family,
	})

	bn := &BirthNotice{
		Parent:         parent,
		Child:          pid,
		Program:        program,
		Args:           p.args,
		Mode:           mode,
		Family:         family,
		PrimaryCluster: k.id,
		SignalChannel:  sigCh,
		Channels:       infos,
	}
	return p, bn
}

// applyBirthNoticeLocked records a child's identity and creates backup
// routing entries for its fork-time channels (§7.7: "A birth notice causes
// routing table entries to be made for channels which are created on fork;
// they must be there to receive backup copies of messages sent to the
// primary. ... The birth notice does not contain complete state information
// and does not cause the creation of a backup process.")
func (k *Kernel) applyBirthNoticeLocked(m *types.Message) {
	bn, err := Decode[BirthNotice](m.Payload)
	if err != nil {
		return
	}
	if _, ok := k.backups[bn.Child]; ok {
		return // duplicate (recovery resend)
	}
	b := &BackupPCB{
		pid:            bn.Child,
		program:        bn.Program,
		args:           bn.Args,
		mode:           bn.Mode,
		family:         bn.Family,
		parent:         bn.Parent,
		primaryCluster: bn.PrimaryCluster,
		fds:            make(map[types.FD]types.ChannelID),
		nextFD:         2,
		signalCh:       bn.SignalChannel,
		sigIgnore:      make(map[types.Signal]bool),
		requiresSync:   bn.Established,
	}
	for _, ci := range bn.Channels {
		if ci.FD != types.NoFD {
			b.fds[ci.FD] = ci.Channel
		}
		if _, ok := k.table.Lookup(ci.Channel, bn.Child, routing.Backup); !ok {
			k.table.Add(&routing.Entry{
				Channel:            ci.Channel,
				Owner:              bn.Child,
				Peer:               ci.Peer,
				Role:               routing.Backup,
				PeerCluster:        ci.PeerCluster,
				PeerBackupCluster:  ci.PeerBackupCluster,
				OwnerBackupCluster: k.id,
				PeerIsServer:       ci.PeerIsServer,
			})
		}
	}
	k.backups[bn.Child] = b
	if bn.Parent != types.NoPID {
		k.births[bn.Parent] = append(k.births[bn.Parent], bn)
	}
}

// startProcessLocked launches the process goroutine.
func (k *Kernel) startProcessLocked(p *PCB) {
	k.wg.Add(1)
	go k.runProcess(p)
}

// runProcess is the body of a process goroutine: restore state if this is
// a promoted backup, run the guest, then exit or unwind on crash.
func (k *Kernel) runProcess(p *PCB) {
	defer k.wg.Done()
	growStack()
	defer close(p.done)

	if p.recovered {
		if err := k.restorePages(p); err != nil {
			p.runErr = err
			if !errors.Is(err, types.ErrCrashed) && !errors.Is(err, types.ErrShutdown) {
				// The promoted backup cannot be brought back to life: its
				// page account is unreachable (the account's hosts died
				// too — a multiple failure). Remove the zombie PCB and
				// report the process lost instead of leaking it.
				k.abandonRecovery(p, err)
			}
			return
		}
		if p.promoteNanos != 0 {
			k.metrics.AddRecovery(time.Duration(k.nowNanos() - p.promoteNanos))
		}
	}

	proc := &Proc{k: k, p: p}
	err := p.g.Run(proc)
	k.mu.Lock()
	if p.crashed && err != nil {
		// Its routing entries went with it, so whatever failed, it failed
		// because the process crashed.
		err = types.ErrCrashed
	}
	k.mu.Unlock()
	p.runErr = err
	switch {
	case err == nil:
		k.exitProcess(p)
	case errors.Is(err, types.ErrCrashed), errors.Is(err, types.ErrShutdown):
		// The cluster died under the process; nothing to clean up — the
		// state died with the cluster.
	case errors.Is(err, types.ErrTooManyFailures):
		// A multiple failure cut the cluster off mid-run (degraded mode);
		// the process state can no longer be made globally consistent, so
		// leave it frozen for post-mortem inspection.
	default:
		// A guest error is a software fault, outside the paper's fault
		// model; treat it as an exit so the system stays consistent.
		k.log.Add(trace.EvNote, fmt.Sprintf("%s guest error: %v", p.pid, err))
		k.mu.Lock()
		k.recordGuestErrLocked(fmt.Sprintf("%s (%s): %v", p.pid, p.program, err))
		k.mu.Unlock()
		k.exitProcess(p)
	}
}

// restorePages fetches the backup page account from the page server and
// installs it (§7.10.2; we prefetch the account in one reply rather than
// demand-faulting page by page — see DESIGN.md substitutions).
func (k *Kernel) restorePages(p *PCB) error {
	pagerLoc, ok := k.dir.Service(directory.PIDPageServer)
	if !ok {
		return fmt.Errorf("kernel: no page server registered: %w", types.ErrNoProcess)
	}

	k.mu.Lock()
	if k.crashed || k.stopped || p.crashed {
		k.mu.Unlock()
		return types.ErrCrashed
	}
	p.pageWait = make(chan []memory.Page, 1)
	req := &PageRequest{PID: p.pid, ReplyTo: k.id}
	k.sendLocked(&types.Message{
		Kind:    types.KindPageRequest,
		Src:     p.pid,
		Dst:     directory.PIDPageServer,
		Route:   types.Route{Dst: pagerLoc.Primary, DstBackup: types.NoCluster, SrcBackup: types.NoCluster},
		Payload: Encode(req),
	})
	// About to block on the reply: the request leaves first.
	k.transmitLocked()
	k.mu.Unlock()

	select {
	case pages := <-p.pageWait:
		p.space.Install(pages)
		k.metrics.PagesFetched.Add(uint64(len(pages)))
	case <-k.dieCh:
		// The kernel died or degraded while we waited; unwind promptly
		// instead of riding out the watchdog.
		k.mu.Lock()
		degraded := k.degraded
		k.mu.Unlock()
		if degraded {
			return fmt.Errorf("kernel: page fetch for %s: cluster degraded: %w", p.pid, types.ErrTooManyFailures)
		}
		return types.ErrCrashed
	//lint:ignore AURO001 liveness watchdog against a wedged pager, not an input to execution: a healthy run never observes the timeout firing
	case <-time.After(k.pageFetchTimeout):
		return fmt.Errorf("kernel: page fetch for %s timed out: %w", p.pid, types.ErrTooManyFailures)
	}
	return nil
}

// abandonRecovery gives up on a promoted backup whose roll-forward cannot
// complete: the PCB is removed and the process reported lost in the
// directory, so facade waiters see types.ErrTooManyFailures rather than a
// hang or a phantom live process.
func (k *Kernel) abandonRecovery(p *PCB, cause error) {
	k.mu.Lock()
	if !p.exited {
		p.exited = true
		k.table.RemoveOwnedBy(p.pid, routing.Primary)
		delete(k.procs, p.pid)
	}
	k.mu.Unlock()
	k.dir.MarkLost(p.pid)
	k.log.Add(trace.EvNote, fmt.Sprintf("%s: recovery abandoned for %s: %v", k.id, p.pid, cause))
}

// exitProcess tears down a cleanly exited process and notifies the backup
// cluster and page server so its fault-tolerance state can be reclaimed.
func (k *Kernel) exitProcess(p *PCB) {
	pagerLoc, _ := k.dir.Service(directory.PIDPageServer)

	k.mu.Lock()
	defer k.mu.Unlock()
	if p.exited {
		return
	}
	p.exited = true
	if k.crashed || k.stopped || k.degraded || p.crashed {
		// A process that crashed alone has been promoted at its backup
		// cluster: this instance's exit must not announce its end.
		return
	}

	k.table.RemoveOwnedBy(p.pid, routing.Primary)
	delete(k.procs, p.pid)

	parent := types.NoPID
	if pp, ok := k.procs[p.parent]; ok && !pp.exited {
		parent = p.parent
		delete(pp.children, p.pid)
		pp.exitedChildren = append(pp.exitedChildren, p.pid)
	}

	en := &ExitNotice{
		PID:         p.pid,
		Parent:      parent,
		NeverSynced: p.epoch == 0,
		FreePIDs:    p.exitedChildren,
	}
	route := types.Route{
		Dst:       p.backupCluster,
		DstBackup: pagerLoc.Primary,
		SrcBackup: pagerMirror(pagerLoc.Primary),
	}
	if p.backupCluster != types.NoCluster || pagerLoc.Primary != types.NoCluster {
		k.sendLocked(&types.Message{
			Kind:    types.KindExitNotice,
			Src:     p.pid,
			Dst:     p.pid,
			Route:   route,
			Payload: Encode(en),
		})
	}
	k.dir.RemoveProc(p.pid)
	// The process's last output, and the notice behind it, leave with it.
	k.transmitLocked()
}

// forkLocked implements the fork syscall (§7.7): create the child locally,
// send a birth notice to the family's backup cluster, and defer backup
// creation to the child's first sync. During roll-forward it consults the
// birth records instead, giving the new child the same identity as its
// primary or avoiding the fork altogether (§7.10.2).
func (k *Kernel) forkLocked(parent *PCB, program string, args []byte) (types.PID, error) {
	if _, ok := k.reg.New(program); !ok {
		return types.NoPID, fmt.Errorf("kernel: fork %q: %w", program, types.ErrNotFound)
	}

	// Roll-forward: re-executed forks consume birth records in order.
	if records := k.births[parent.pid]; len(records) > 0 {
		bn := records[0]
		k.births[parent.pid] = records[1:]
		if len(k.births[parent.pid]) == 0 {
			delete(k.births, parent.pid)
		}
		if _, running := k.procs[bn.Child]; running {
			parent.children[bn.Child] = struct{}{}
			return bn.Child, nil
		}
		if b, ok := k.backups[bn.Child]; ok && b.exitedPending {
			// The child ran to completion before the crash; every effect
			// escaped, so the fork is avoided altogether.
			parent.exitedChildren = append(parent.exitedChildren, bn.Child)
			return bn.Child, nil
		}
		// The child was lost with a cluster that held no backup for it;
		// recreate it with the same identity.
		child, _ := k.createProcessLocked(bn.Child, bn.Program, bn.Args, bn.Mode, bn.Family, parent.pid, parent.backupCluster)
		parent.children[bn.Child] = struct{}{}
		k.startProcessLocked(child)
		return bn.Child, nil
	}

	pid := k.dir.AllocPID()
	child, bn := k.createProcessLocked(pid, program, args, parent.mode, parent.family, parent.pid, parent.backupCluster)
	child.syncReads = parent.syncReads
	child.syncTicks = parent.syncTicks
	parent.children[pid] = struct{}{}

	if parent.backupCluster != types.NoCluster {
		k.metrics.BirthNotices.Add(1)
		k.sendLocked(&types.Message{
			Kind:    types.KindBirthNotice,
			Src:     parent.pid,
			Dst:     pid,
			Route:   types.Route{Dst: parent.backupCluster, DstBackup: types.NoCluster, SrcBackup: types.NoCluster},
			Payload: Encode(bn),
		})
	}
	k.startProcessLocked(child)
	return pid, nil
}
