package kernel

import (
	"fmt"
	"sort"

	"auragen/internal/routing"
	"auragen/internal/types"
)

// EstablishBackup creates a new backup for a live, currently-unbacked
// process — the halfback path of §7.3 ("Halfbacks have new backups created
// only when the cluster in which the original primary ran is returned to
// service"). The paper does not spell out the online protocol; ours is:
//
//  1. The primary's kernel marks the process "establishing". The process
//     pauses at its next state-capturable point (a reactor's handler
//     boundary; any instruction boundary for the VM) and stops consuming
//     input.
//  2. A shell (an Established birth notice carrying the current channel
//     set) goes to the target cluster, creating the backup record and
//     empty save queues. The shell is not viable for promotion until its
//     first sync arrives.
//  3. A BackupUp notice with NeedAck is broadcast; every kernel updates
//     its routing entries for the process and replies with a BackupAck.
//     Bus total order then guarantees that any message arriving at the
//     primary after the last ack was routed with the new backup cluster —
//     and therefore saved at the target.
//  4. On the last ack, the pending (unread) messages in the primary's
//     queues — which predate the cutover and were never saved at the
//     target — are forwarded to the target as save-only copies, in arrival
//     order.
//  5. The process resumes; its first action is an "establishment sync"
//     that reports zero reads (nothing in the target's queues has been
//     consumed), capturing its full state. From then on the backup is
//     exactly as §5 maintains it.
//
// The call is asynchronous; completion is visible as a non-NoCluster
// backup cluster in the directory. A promoted process is established only
// once its roll-forward has regenerated every send its dead primary let
// escape (its suppression debt is paid).
func (k *Kernel) EstablishBackup(pid types.PID, target types.ClusterID) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.crashed || k.stopped {
		return types.ErrCrashed
	}
	p, ok := k.procs[pid]
	if !ok {
		return fmt.Errorf("kernel: establish %s: %w", pid, types.ErrNoProcess)
	}
	if p.suppressTotal > 0 {
		// A promoted backup still regenerating what its dead primary let
		// escape: an establishment sync cut inside that replay gave the new
		// backup an input order the llft roll-forward did not reproduce.
		// writeLocked notifies the directory when the debt is paid.
		return fmt.Errorf("kernel: %s still rolling forward: %w", pid, types.ErrExists)
	}
	err := k.establishBackupLocked(p, target)
	k.transmitLocked()
	return err
}

// establishBackupLocked starts the protocol for a PCB the caller already
// holds. Caller holds k.mu.
func (k *Kernel) establishBackupLocked(p *PCB, target types.ClusterID) error {
	pid := p.pid
	if p.backupCluster != types.NoCluster {
		return fmt.Errorf("kernel: %s already has a backup on %v: %w", pid, p.backupCluster, types.ErrExists)
	}
	if p.establishing {
		return fmt.Errorf("kernel: %s establishment already in progress: %w", pid, types.ErrExists)
	}
	if target == k.id || !k.bus.IsLive(target) {
		return fmt.Errorf("kernel: bad establishment target %v: %w", target, types.ErrNoCluster)
	}

	p.establishing = true
	p.establishTarget = target
	p.establishAcks = k.liveSetLocked()

	bn := &BirthNotice{
		Parent:         p.parent,
		Child:          pid,
		Program:        p.program,
		Args:           p.args,
		Mode:           p.mode,
		Family:         p.family,
		PrimaryCluster: k.id,
		SignalChannel:  p.signalCh,
		Channels:       k.currentChannelInfosLocked(p),
		Established:    true,
	}
	birth := k.queueLocked()
	birth.Kind, birth.Dst, birth.Payload = types.KindBirthNotice, pid, Encode(bn)
	birth.Route = types.Route{Dst: target, DstBackup: types.NoCluster, SrcBackup: types.NoCluster}
	up := k.queueLocked()
	up.Kind, up.Dst = types.KindBackupUp, pid
	up.Payload = Encode(&BackupUp{PID: pid, BackupCluster: target, Origin: k.id, NeedAck: true})
	return nil
}

// liveSetLocked returns the live clusters, each of which is to ack a
// BackupUp notice.
func (k *Kernel) liveSetLocked() map[types.ClusterID]bool {
	acks := make(map[types.ClusterID]bool)
	for _, c := range k.bus.Live() {
		acks[c] = true
	}
	return acks
}

// currentChannelInfosLocked snapshots the process's open channels (plus the
// signal channel) for a shell or image.
func (k *Kernel) currentChannelInfosLocked(p *PCB) []ChannelInfo {
	var infos []ChannelInfo
	for _, fd := range p.openFDs() {
		ch := p.fds[fd]
		e, ok := k.table.Lookup(ch, p.pid, routing.Primary)
		if !ok {
			continue
		}
		infos = append(infos, ChannelInfo{
			Channel:           ch,
			FD:                fd,
			Peer:              e.Peer,
			PeerCluster:       e.PeerCluster,
			PeerBackupCluster: e.PeerBackupCluster,
			PeerIsServer:      e.PeerIsServer,
		})
	}
	if e, ok := k.table.Lookup(p.signalCh, p.pid, routing.Primary); ok {
		infos = append(infos, ChannelInfo{
			Channel: p.signalCh,
			FD:      types.NoFD,
			Peer:    e.Peer,
		})
	}
	return infos
}

// handleBackupAckLocked collects one establishment ack; the last one
// triggers finalization.
func (k *Kernel) handleBackupAckLocked(ba *BackupAck) {
	if _, ok := k.twinAcks[ba.PID]; ok {
		k.twinAckedLocked(ba.PID, ba.From)
		return
	}
	p, ok := k.procs[ba.PID]
	if !ok || !p.establishing {
		return
	}
	delete(p.establishAcks, ba.From)
	if len(p.establishAcks) == 0 {
		k.finalizeEstablishLocked(p)
	}
}

// finalizeEstablishLocked performs the cutover (step 4): bind the new
// backup cluster, forward the pending queues, and schedule the
// establishment sync before the process may read again.
func (k *Kernel) finalizeEstablishLocked(p *PCB) {
	target := p.establishTarget
	p.backupCluster = target
	k.dir.SetBackup(p.pid, target)

	entries := k.table.OwnedBy(p.pid, routing.Primary)
	type queued struct {
		seq types.Seq
		m   *types.Message // a queue slot: nothing below enqueues to these entries
	}
	var pending []queued
	for _, e := range entries {
		e.OwnerBackupCluster = target
		q := e.Queued()
		for i := range q {
			pending = append(pending, queued{seq: q[i].Seq, m: &q[i]})
		}
	}
	// Forward in original arrival order so the which/lowest-seq replay at
	// the target matches the primary's future read order.
	sort.Slice(pending, func(i, j int) bool { return pending[i].seq < pending[j].seq })
	// A pending message whose sender had already switched routes is also
	// saved directly at the target: count it so the establishment sync
	// can tell the target which direct copies are duplicates.
	dupes := make(map[types.ChannelID]uint32)
	for _, q := range pending {
		if q.m.Route.DstBackup == target {
			dupes[q.m.Channel]++
		}
		k.forwardLocked(q.m, target)
	}
	p.establishDupes = dupes

	p.establishing = false
	p.establishTarget = types.NoCluster
	p.establishAcks = nil
	p.establishSyncPending = true
	p.cond.Broadcast()
}

// abortEstablishLocked cancels an in-flight establishment (its target
// crashed): the process resumes without a backup.
func (k *Kernel) abortEstablishLocked(p *PCB) {
	p.establishing = false
	p.establishTarget = types.NoCluster
	p.establishAcks = nil
	p.cond.Broadcast()
}

// establishGateLocked blocks a state-capturable read point while an
// establishment is in flight, and runs the establishment sync before the
// first subsequent read. It returns (true, nil) when the caller must
// re-evaluate its read from the top (the lock was dropped), or an error if
// the process died while paused. Caller holds k.mu.
func (k *Kernel) establishGateLocked(p *PCB) (retry bool, err error) {
	for p.establishing {
		if p.crashed || k.crashed {
			return false, types.ErrCrashed
		}
		if k.stopped {
			return false, types.ErrShutdown
		}
		k.blockLocked(p)
	}
	if p.establishSyncPending {
		if err := k.syncProcessLocked(p, false); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// twinAckedLocked collects one ack of a server's new twin. After the last,
// the server's entries name the twin (one made from a request routed
// without it would not) and a request routed without it is forwarded.
func (k *Kernel) twinAckedLocked(pid types.PID, from types.ClusterID) {
	acks := k.twinAcks[pid]
	if delete(acks, from); len(acks) > 0 {
		return
	}
	delete(k.twinAcks, pid)
	svc, _ := k.dir.Service(pid)
	for _, e := range k.table.OwnedBy(pid, routing.Primary) {
		e.OwnerBackupCluster = svc.Backup
	}
}

// TwinsAcked reports whether no server's primary here awaits acks of a new
// twin. Core cuts a repaired twin's first sync once it holds, after a mark
// behind the BackupUp notices.
func (k *Kernel) TwinsAcked() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.twinAcks) == 0
}
