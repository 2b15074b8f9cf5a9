package kernel

import (
	"sort"

	"auragen/internal/directory"
	"auragen/internal/memory"
	"auragen/internal/routing"
	"auragen/internal/trace"
	"auragen/internal/types"
)

// syncProcessLocked synchronizes a primary with its backup (§7.8). It runs
// on the process's own goroutine ("the sync operation at the primary's
// end"); the caller holds k.mu, which is released while guest code runs and
// held again on return. Two parts:
//
//  1. The paging mechanism ships every page modified since the last sync to
//     the page server.
//  2. A sync message carrying the cluster-independent state and per-channel
//     information goes to the backup's cluster, the page server, and the
//     page server's backup — one atomic bus multicast, so "the page account
//     will not be updated unless the backup definitely is brought up to the
//     state of the primary."
//
// The primary continues as soon as both are on the outgoing queue. If the
// cluster crashes before the sync message leaves, the backup simply takes
// over from the previous sync; outgoing FIFO order guarantees no later
// message overtakes the sync message (§7.8).
//
// signalNext records that the process is about to handle an asynchronous
// signal (§7.5.2); the backup then handles that signal first on recovery,
// at exactly the same place as the primary.
func (k *Kernel) syncProcessLocked(p *PCB, signalNext bool) error {
	backup := p.backupCluster
	if p.crashed || k.crashed {
		return types.ErrCrashed
	}
	if backup == types.NoCluster {
		// No backup exists (quarterback after a crash, or fault tolerance
		// disabled): reset the trigger counters but KEEP the dirty set and
		// the channel/children deltas accumulating — a later online
		// establishment (§7.3 halfback re-backup) ships exactly the pages
		// modified since the last page-out, and must not find them
		// discarded.
		p.readsSinceSync = 0
		p.ticksSinceSync = 0
		for _, e := range k.table.OwnedBy(p.pid, routing.Primary) {
			e.Synced()
		}
		p.signalNext = p.signalNext || signalNext
		// An establishment sync still pending is for a backup that died
		// before the process got to it: moot, and the gate that called us
		// would otherwise come straight back without ever releasing k.mu.
		p.establishSyncPending = false
		return nil
	}

	// Part 1a: let the guest put all of its state into the address space.
	// Guest code runs outside the kernel lock, in "user mode".
	k.mu.Unlock()
	p.g.FlushState()
	regs := p.g.MarshalRegs()
	k.mu.Lock()
	if p.crashed || k.crashed {
		return types.ErrCrashed
	}

	pagerLoc, _ := k.dir.Service(directory.PIDPageServer)
	pagerMirror := pagerMirror(pagerLoc.Primary)
	epoch := p.epoch + 1

	// An establishment sync reports zero reads: the new backup's save
	// queues contain only unread messages (see establish.go).
	zeroReads := p.establishSyncPending
	p.establishSyncPending = false

	// Part 1b: ship the pages modified since the last sync to the page
	// server (primary account) as ONE PageOut message. The dirty set is
	// captured copy-on-write — the PageOut aliases frozen pages, the
	// primary resumes immediately, and only pages it rewrites before the
	// page-out has been encoded pay a copy. Serialization is deferred
	// (Message.Lazy) to offerBatch, which encodes into the transmit writer
	// off the kernel lock and then releases the capture. In the baseline
	// mode the entire resident data space goes instead, copied eagerly,
	// reproducing the §2 strawman's cost profile; copies need no release.
	var pages []memory.Page
	captured := p.space
	if p.fullCheckpoint || k.policy.FullImage {
		pages, captured = p.space.SnapshotAll(), nil
		p.space.ClearDirty()
	} else {
		pages = p.space.CaptureDirty()
	}
	if len(pages) > 0 {
		po := &PageOut{PID: p.pid, Epoch: epoch, From: k.id, Pages: pages, captured: captured}
		k.sendLocked(&types.Message{
			Kind:  types.KindPageOut,
			Src:   p.pid,
			Dst:   directory.PIDPageServer,
			Route: types.Route{Dst: pagerLoc.Primary, DstBackup: pagerMirror, SrcBackup: types.NoCluster},
			Lazy:  po,
		})
		k.metrics.PagesOut.Add(uint64(len(pages)))
		var pageBytes uint64
		for _, pg := range pages {
			pageBytes += uint64(len(pg.Data))
		}
		k.metrics.PageBytes.Add(pageBytes)
	}

	// Part 2: construct and send the sync message.
	sm := &SyncMsg{
		PID:            p.pid,
		Epoch:          epoch,
		Program:        p.program,
		Mode:           p.mode,
		Family:         p.family,
		Parent:         p.parent,
		Args:           p.args,
		PrimaryCluster: k.id,
		Regs:           regs,
		NextFD:         p.nextFD,
		SignalNext:     signalNext,
		SigIgnore:      sigSetToSlice(p.sigIgnore),
		SignalChannel:  p.signalCh,
		ClosedChannels: p.closedSinceSync,
		FreePIDs:       p.exitedChildren,
		TotalReads:     p.totalReads,
	}
	for _, fd := range p.openFDs() {
		ch := p.fds[fd]
		e, ok := k.table.Lookup(ch, p.pid, routing.Primary)
		if !ok {
			continue
		}
		reads := e.Synced()
		if zeroReads {
			reads = 0
		}
		sm.Channels = append(sm.Channels, ChannelInfo{
			Channel:           ch,
			FD:                fd,
			Reads:             reads,
			Peer:              e.Peer,
			PeerCluster:       e.PeerCluster,
			PeerBackupCluster: e.PeerBackupCluster,
			PeerIsServer:      e.PeerIsServer,
		})
	}
	if sigE, ok := k.table.Lookup(p.signalCh, p.pid, routing.Primary); ok {
		reads := sigE.Synced()
		if zeroReads {
			reads = 0
		}
		sm.Channels = append(sm.Channels, ChannelInfo{
			Channel: p.signalCh,
			FD:      types.NoFD,
			Reads:   reads,
			Peer:    directory.PIDKernel,
		})
	}
	if p.suppressTotal > 0 {
		sm.Suppress = make(map[types.ChannelID]uint32)
		for _, e := range k.table.OwnedBy(p.pid, routing.Primary) {
			if n := e.Unsent(); n > 0 {
				sm.Suppress[e.Channel] = n
			}
		}
	}
	if len(p.nondetLog) > 0 {
		sm.NondetRemaining = append([]uint64(nil), p.nondetLog...)
	}
	if zeroReads {
		sm.Establish = true
		sm.EstablishDupes = p.establishDupes
		p.establishDupes = nil
	}
	// Events captured by this sync need no log entry anymore.
	p.nondetPending = nil

	// The sync message is also encoded lazily: every SyncMsg field is
	// exclusively owned by the message (the delta slices were detached from
	// the PCB below; Args/Regs are immutable once marshaled), so
	// offerBatch can serialize it into the transmit writer.
	k.sendLocked(&types.Message{
		Kind:  types.KindSync,
		Src:   p.pid,
		Dst:   p.pid,
		Route: types.Route{Dst: backup, DstBackup: pagerLoc.Primary, SrcBackup: pagerMirror},
		Lazy:  sm,
	})

	p.epoch = epoch
	p.readsSinceSync = 0
	p.ticksSinceSync = 0
	p.closedSinceSync = nil
	p.exitedChildren = nil
	p.signalNext = signalNext
	k.metrics.Syncs.Add(1)
	if signalNext {
		k.metrics.SyncForced.Add(1)
	}
	k.logEv(trace.EvSync, p.pid, uint64(epoch), "")
	return nil
}

// pagerMirror returns the cluster hosting the page server's replication
// mirror: the OTHER server cluster, independent of the directory's backup
// slot. The replica set is structural — the twins live on clusters 0 and
// 1 (core wires them at boot and re-creates one at repair) — while the
// directory's Backup slot reflects availability: it is cleared the moment
// a server cluster crashes and restored only after repair has cloned a
// fresh replica. Pager STATE (page-outs, sync commits, frees) must keep
// routing to both server clusters through that window: while the crashed
// twin is detached the bus drops its copies harmlessly, and once repair
// re-attaches its inbox the stream queues there and replays into the
// clone idempotently. Routing off the availability slot instead loses
// every mutation transmitted between the clone cut and the directory
// update, and the replicas diverge permanently (found by the chaos soak).
func pagerMirror(primary types.ClusterID) types.ClusterID {
	if primary != 0 && primary != 1 {
		return types.NoCluster
	}
	return 1 - primary
}

// dispatchSync handles the arrival of a sync image, delta or full. The
// backup's kernel brings the backup record up to the primary's state; the
// page server and its mirror commit the backup page account for the same
// epoch, and read no more of the image than that takes. One cluster may play
// both roles.
func (k *Kernel) dispatchSync(m *types.Message) {
	if m.Route.Dst == k.id {
		sm, err := Decode[SyncMsg](m.Payload)
		if err != nil {
			return
		}
		k.applySyncLocked(sm)
	}
	if k.pager != nil && (m.Route.DstBackup == k.id || m.Route.SrcBackup == k.id) {
		pid, epoch, free, err := DecodeSyncCommit(m.Payload)
		if err != nil {
			return
		}
		k.pager.HandleSyncCommit(pid, epoch)
		if len(free) > 0 {
			k.pager.HandleFree(free)
		}
	}
}

// dispatchDecision appends a leader's decision-log entry (llft) to its
// follower's record: the absolute input position at which the leader chose
// to consume a queued signal. The EvSave event carries the position in Arg;
// the decision-prefix oracle matches it against the EvReplay events a later
// promotion emits. A decision for an already-promoted pid is a straggler
// from the dead leader — by the FIFO argument in NextEvent, nothing the
// dead leader sent after this delivery escaped either, so the promoted
// primary is free to re-decide and the straggler is dropped.
func (k *Kernel) dispatchDecision(m *types.Message) {
	dm, err := Decode[DecisionMsg](m.Payload)
	if err != nil {
		return
	}
	if _, promoted := k.procs[dm.PID]; promoted {
		return
	}
	b, ok := k.backups[dm.PID]
	if !ok {
		return
	}
	b.decisions = append(b.decisions, dm.Reads)
	k.metrics.BackupSaves.Add(1)
	k.logMsg(trace.EvSave, m, dm.PID, dm.Reads)
}

// applySyncLocked updates the backup record and its routing entries from a
// sync message (§7.8, backup side): bind new channels to fds, remove closed
// channels, discard messages the primary already read, and reset the
// writes-since-sync counts.
func (k *Kernel) applySyncLocked(sm *SyncMsg) {
	if _, promoted := k.procs[sm.PID]; promoted {
		// Straggler from the dead incarnation: the primary enqueued this
		// sync, crashed before it left the cluster, and the crash notice
		// overtook it in the bus total order — this cluster has already
		// promoted the backup. Applying it would resurrect a backup record
		// for a corpse and re-install Backup routing entries that swallow
		// the promoted primary's traffic.
		return
	}
	b, ok := k.backups[sm.PID]
	if !ok {
		// First sync of a process whose birth record was lost (or a
		// head-of-family spawned before this cluster joined): create the
		// record now — §7.7: "the first sync causes the backup to be
		// created."
		b = &BackupPCB{pid: sm.PID}
		k.backups[sm.PID] = b
	}
	if b.synced && sm.Epoch < b.epoch {
		// Stale sync: a lossy wire (delay faults, partition heals) can
		// release an old checkpoint behind a newer one. Applying it would
		// regress the backup image and discard the saved-message queue
		// the newer epoch already trimmed, so it is dropped — epochs only
		// move forward.
		return
	}
	if !b.synced {
		b.synced = true
		k.metrics.BackupsCreated.Add(1)
	}
	k.logEv(trace.EvSyncApply, sm.PID, uint64(sm.Epoch), "")
	b.program = sm.Program
	b.args = sm.Args
	b.mode = sm.Mode
	b.family = sm.Family
	b.parent = sm.Parent
	b.primaryCluster = sm.PrimaryCluster
	b.epoch = sm.Epoch
	b.regs = sm.Regs
	b.nextFD = sm.NextFD
	b.signalNext = sm.SignalNext
	b.sigIgnore = sigSliceToSet(sm.SigIgnore)
	b.signalCh = sm.SignalChannel
	b.fds = make(map[types.FD]types.ChannelID, len(sm.Channels))

	for _, ci := range sm.Channels {
		if ci.FD != types.NoFD {
			b.fds[ci.FD] = ci.Channel
		}
		e, ok := k.table.Lookup(ci.Channel, sm.PID, routing.Backup)
		if !ok {
			e = &routing.Entry{
				Channel:            ci.Channel,
				Owner:              sm.PID,
				Peer:               ci.Peer,
				Role:               routing.Backup,
				PeerCluster:        ci.PeerCluster,
				PeerBackupCluster:  ci.PeerBackupCluster,
				OwnerBackupCluster: k.id,
				PeerIsServer:       ci.PeerIsServer,
			}
			k.table.Add(e)
		}
		// Discard what the primary read, and reset the writes-since-sync
		// count: normally to zero, or to the still-recovering primary's
		// outstanding suppression debt.
		if n := e.Applied(ci.Reads, sm.Suppress[ci.Channel]); n > 0 {
			k.metrics.MessagesDiscarded.Add(uint64(n))
		}
	}
	for _, ch := range sm.ClosedChannels {
		k.table.Remove(ch, sm.PID, routing.Backup)
	}
	if sm.Establish {
		k.rebuildEstablishQueuesLocked(sm)
	}
	// The capture subsumes the decision log: signal deliveries pinned
	// before it are part of the captured state, and plan positions restart
	// from the capture's absolute input count. (llft followers only ever
	// receive establishment syncs — the policy takes no periodic captures —
	// so this resets the record to its base.)
	b.readsBase = sm.TotalReads
	b.decisions = nil
	// Likewise the nondet log (§10): events before the sync are part of
	// the captured state.
	if len(sm.NondetRemaining) > 0 {
		k.nondetLogs[sm.PID] = append([]uint64(nil), sm.NondetRemaining...)
	} else {
		delete(k.nondetLogs, sm.PID)
	}
	k.freePIDsLocked(sm.FreePIDs)
}

// rebuildEstablishQueuesLocked reorders a freshly established backup's
// saved queues after the establishment sync arrives: forwarded copies
// (save-only routes) represent the primary's pre-cutover queue and come
// first, in their original order; direct copies follow, minus the earliest
// EstablishDupes[ch] per channel, which double-cover forwarded originals
// (their senders had already switched routes). Sequence numbers are
// re-stamped so which/lowest-seq replay follows the rebuilt order.
func (k *Kernel) rebuildEstablishQueuesLocked(sm *SyncMsg) {
	entries := k.table.OwnedBy(sm.PID, routing.Backup)
	type saved struct {
		e *routing.Entry
		m *types.Message
	}
	var forwards, directs []saved
	for _, e := range entries {
		q := e.Take() // the queue is refilled below
		for i := range q {
			if m := &q[i]; m.Route.Dst == types.NoCluster {
				forwards = append(forwards, saved{e, m})
			} else {
				directs = append(directs, saved{e, m})
			}
		}
	}
	sort.SliceStable(forwards, func(i, j int) bool { return forwards[i].m.Seq < forwards[j].m.Seq })
	sort.SliceStable(directs, func(i, j int) bool { return directs[i].m.Seq < directs[j].m.Seq })
	drop := make(map[types.ChannelID]uint32, len(sm.EstablishDupes))
	for ch, n := range sm.EstablishDupes {
		drop[ch] = n
	}
	for _, s := range forwards {
		k.arrival++
		s.m.Seq = k.arrival
		s.e.Enqueue(s.m)
	}
	for _, s := range directs {
		if n := drop[s.m.Channel]; n > 0 {
			drop[s.m.Channel] = n - 1
			continue
		}
		k.arrival++
		s.m.Seq = k.arrival
		s.e.Enqueue(s.m)
	}
}
