package kernel

import (
	"fmt"

	"auragen/internal/routing"
	"auragen/internal/trace"
	"auragen/internal/types"
)

// CrashProcess simulates an isolatable hardware failure that makes it
// impossible to continue executing one process — §3.1's "failure in an
// isolatable portion of memory" — without taking the whole cluster down.
// This is the first item of the paper's future work (§10): "Hardware
// failures which do not affect all processes in a cluster will not cause
// the cluster to crash, but will cause individual backups to be brought up
// for the affected processes."
//
// The process's volatile state (memory, queues, PCB) is lost; its backup
// takes over exactly as in a cluster crash. The rest of the cluster keeps
// running.
func (k *Kernel) CrashProcess(pid types.PID) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.crashed || k.stopped {
		return types.ErrCrashed
	}
	p, ok := k.procs[pid]
	if !ok {
		return fmt.Errorf("kernel: crash %s: %w", pid, types.ErrNoProcess)
	}
	p.crashed = true
	p.cond.Broadcast()
	delete(k.procs, pid)
	// The process's memory — including its queued messages — dies with it.
	k.table.RemoveOwnedBy(pid, routing.Primary)
	// Outgoing messages it already enqueued have, from the system's
	// perspective, left the process: they are on their way out (the
	// executive processor and its queue are unaffected hardware).
	k.logEv(trace.EvCrash, pid, uint64(k.id), "single-process crash")
	// The surviving executive processor announces the crash — through the
	// same outgoing queue, BEHIND everything the dead process had already
	// enqueued. The backup's promotion decision depends on this FIFO order:
	// if the notice overtook an in-flight sync, the backup would promote at
	// the previous epoch while counts for the newer epoch's sends were
	// still arriving, corrupting the §5.4 suppression budget.
	cn := k.queueLocked()
	cn.Kind, cn.Dst, cn.Payload = types.KindCrashNotice, pid, Encode(&CrashNotice{Crashed: k.id, PID: pid})
	k.transmitLocked()
	return nil
}

// handleProcCrashLocked is the per-process analogue of §7.10.1 crash
// handling, run at every kernel when a single-process crash notice
// arrives: notify the process's correspondents (fix routing entries and
// queued routes), roll its page account back, and make its backup runnable.
func (k *Kernel) handleProcCrashLocked(crashed types.ClusterID, pid types.PID) {
	start := k.clock.Now()

	// Correspondents: redirect entries that point at the dead primary.
	isFB := k.dir.IsFullback(pid)
	for _, e := range k.table.All() {
		if e.Peer != pid {
			continue
		}
		if e.PeerCluster == crashed {
			e.PeerCluster = e.PeerBackupCluster
			e.PeerBackupCluster = types.NoCluster
			if isFB {
				e.Unusable = true
			}
		}
	}

	// Outgoing queue fixup, scoped to this destination.
	k.outgoing.Retain(func(m *types.Message) bool {
		if m.Dst == pid && m.Route.Dst == crashed {
			loc, ok := k.dir.Proc(pid)
			if !ok || loc.Cluster == types.NoCluster {
				return false // unrecoverable: dropped
			}
			m.Route.Dst = loc.Cluster
			if isFB && loc.BackupCluster == types.NoCluster {
				k.held[pid] = append(k.held[pid], *m)
				return false
			}
			m.Route.DstBackup = loc.BackupCluster
		}
		return true
	})

	if k.pager != nil {
		k.pager.HandleCrashPID(pid)
	}

	// An in-flight establishment for the dead process is moot.
	if k.id == crashed {
		// The owning kernel already removed the PCB in CrashProcess.
		delete(k.births, pid)
	}

	if b, ok := k.backups[pid]; ok && b.primaryCluster == crashed && !b.exitedPending {
		if b.requiresSync && !b.synced {
			delete(k.backups, pid)
			k.table.RemoveOwnedBy(pid, routing.Backup)
		} else {
			k.promoteLocked(b, start)
		}
	}

	for _, p := range k.procs {
		p.cond.Broadcast()
	}
}
