package kernel

import (
	"sort"
	"sync"

	"auragen/internal/memory"
	"auragen/internal/routing"
	"auragen/internal/trace"
	"auragen/internal/types"
)

// handleCrashLocked performs the §7.10.1 crash-handling steps when a crash
// notice arrives. Because the notice travels on the totally ordered bus,
// every message that was distributed before the crash has already been
// dispatched here — in particular the latest sync message from every lost
// primary — so backups are brought up from consistent state.
//
// Steps (numbered as in the paper):
//  1. Search the routing table for references to the crashed cluster;
//     replace crashed primary destinations by their backups; mark fullback
//     channels unusable until the new backup's location is known.
//  2. Make backups for halfbacks and quarterbacks runnable.
//  3. Locate fullbacks and create their new backups before the new
//     primaries execute.
//  4. Adjust the outgoing queue like the routing table, holding messages
//     to fullback destinations.
//  5. Signal backups of peripheral servers to begin recovery.
func (k *Kernel) handleCrashLocked(crashed types.ClusterID) {
	if crashed == k.id {
		return
	}
	start := k.clock.Now()
	k.logEv(trace.EvCrash, types.NoPID, uint64(crashed), "")

	// Step 1: routing-table fixup.
	k.table.FixupCrash(crashed, k.dir.IsFullback)

	// Step 4 (done early so no message escapes with a stale route).
	k.fixOutgoingLocked(crashed)

	// The page server rolls uncommitted primary accounts back to the
	// committed backup accounts for processes that lived on the crashed
	// cluster.
	if k.pager != nil {
		k.pager.HandleCrash(crashed)
	}

	// Both walks below send messages (cutover syncs, birth notices, backup
	// images), so they run over a sorted copy of the process table: map
	// iteration order would otherwise randomize the emission order between
	// runs — and between a primary and a replica replaying it (AURO003).
	procs := k.sortedProcsLocked()

	// In-flight backup establishments: abort those whose target died;
	// stop waiting for acks from the dead cluster otherwise.
	for _, p := range procs {
		if !p.establishing {
			continue
		}
		if p.establishTarget == crashed {
			k.abortEstablishLocked(p)
		} else if p.establishAcks[crashed] {
			delete(p.establishAcks, crashed)
			if len(p.establishAcks) == 0 {
				k.finalizeEstablishLocked(p)
			}
		}
	}

	// Local primaries whose backups died on the crashed cluster run
	// unbacked from here on (§7.3: quarterbacks and halfbacks), except
	// fullbacks, which are "located and linked for backup creation"
	// (§7.10.1 step 3): a new backup is established online.
	for _, p := range procs {
		if p.backupCluster != crashed {
			continue
		}
		p.backupCluster = types.NoCluster
		if p.mode == types.Fullback {
			if target := k.chooseBackupClusterLocked(); target != types.NoCluster {
				if err := k.establishBackupLocked(p, target); err != nil {
					k.log.Add(trace.EvNote, "fullback re-establishment failed: "+err.Error())
				} else {
					k.metrics.BackupsCreated.Add(1)
				}
			}
		}
	}

	// Steps 2 and 3: promote local backups whose primaries were lost.
	// Establishment shells that never received their first sync are not
	// viable (their save queues do not reach back to birth): those
	// processes are lost, as if never backed up.
	var pids []types.PID
	for pid, b := range k.backups {
		if b.primaryCluster == crashed && !b.exitedPending {
			if b.requiresSync && !b.synced {
				delete(k.backups, pid)
				k.table.RemoveOwnedBy(pid, routing.Backup)
				continue
			}
			pids = append(pids, pid)
		}
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		k.promoteLocked(k.backups[pid], start)
	}

	// Step 5: peripheral-server backups begin recovery.
	var spids []types.PID
	for pid, host := range k.servers {
		if host.role == routing.Backup && host.primaryCluster == crashed {
			spids = append(spids, pid)
		}
	}
	sort.Slice(spids, func(i, j int) bool { return spids[i] < spids[j] })
	for _, pid := range spids {
		k.promoteServerLocked(k.servers[pid])
	}

	// A server's new twin no longer waits for the crashed cluster's ack.
	for pid := range k.twinAcks {
		k.twinAckedLocked(pid, crashed)
	}

	// Wake every process: channels may have become usable or peers may
	// have moved.
	for _, p := range k.procs {
		p.cond.Broadcast()
	}
}

// stepDownLocked is the self-fencing half of the incarnation protocol: the
// kernel has just learned (from a crash notice naming its own cluster with
// a higher incarnation) that the rest of the system declared it dead and
// promoted its backups. Every primary it still runs is superseded —
// continuing would produce divergent state the healed system could never
// reconcile — so the kernel demotes itself to silence: each live primary
// is killed with an EvStepDown record, volatile state is dropped, and the
// cluster leaves the bus exactly as if the wrongful declaration had been
// true. Recovery from here is the ordinary repair path, which boots a
// fresh kernel at the bumped incarnation.
//
// The caller holds k.mu (dispatch); the bus detach is a blocking
// cross-component call, so it runs on a tracked goroutine after this
// critical section unwinds.
func (k *Kernel) stepDownLocked(super types.Incarnation) {
	if k.crashed || k.stopped {
		return
	}
	k.logEv(trace.EvFence, types.NoPID, uint64(super), "own incarnation superseded; stepping down")
	pids := make([]types.PID, 0, len(k.procs)+len(k.servers))
	for pid := range k.procs {
		pids = append(pids, pid)
	}
	for pid, host := range k.servers {
		if host.role == routing.Primary {
			pids = append(pids, pid)
		}
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		k.metrics.StepDowns.Add(1)
		k.logEv(trace.EvStepDown, pid, uint64(super), "")
	}
	k.haltLocked()
	k.wg.Add(1)
	go func() {
		defer k.wg.Done()
		k.bus.Detach(k.id)
	}()
}

// replayableKind classifies every protocol kind for backup replay (§5.2):
// true means the kind is channel-carried program input that a saved queue
// may legitimately contain and a promoted backup must re-execute; false
// means it is control-plane traffic whose state travels through sync
// messages and backup images instead, never through replayed queues. The
// switch is deliberately exhaustive with no default clause: aurolint's
// AURO012 lists this function as a protocol dispatch point, so adding a
// message kind without deciding its replay class is a lint failure, not a
// silent misclassification. applyBackupImageLocked uses it as a fail-closed
// filter when installing saved queues from a backup image.
func replayableKind(kind types.Kind) bool {
	switch kind {
	case types.KindData, types.KindOpenRequest, types.KindOpenReply, types.KindSignal:
		return true
	case types.KindInvalid, types.KindSync, types.KindBirthNotice,
		types.KindPageOut, types.KindPageRequest, types.KindPageReply,
		types.KindCrashNotice, types.KindBackupUp, types.KindServerSync,
		types.KindHeartbeat, types.KindExitNotice,
		types.KindBackupCreate, types.KindBackupAck,
		types.KindDecision, types.KindMark:
		// A decision is control plane: it installs into BackupPCB.decisions
		// (replayed as the signal plan, not as a queued message). A mark is
		// core's barrier and concerns no process.
		return false
	}
	return false
}

// promoteLocked turns a backup record into a runnable primary (§6, §7.10.2):
// it has exactly the right messages available (the saved queues), is assured
// of reading them in the correct order (arrival sequence numbers), and has
// the address space of the primary as of the last synchronization via its
// page account. Messages already sent by the primary are not resent
// (suppression counts).
func (k *Kernel) promoteLocked(b *BackupPCB, noticeNanos int64) {
	pid := b.pid

	entries := k.table.OwnedBy(pid, routing.Backup)

	// Step 3: fullbacks get a new backup before the new primary runs.
	newBackup := types.NoCluster
	if b.mode == types.Fullback {
		newBackup = k.chooseBackupClusterLocked()
	}
	if newBackup != types.NoCluster {
		k.sendBackupImageLocked(b, entries, newBackup)
		k.dir.SetBackup(pid, newBackup)
		up := k.queueLocked()
		up.Kind, up.Dst, up.Payload = types.KindBackupUp, pid, Encode(&BackupUp{PID: pid, BackupCluster: newBackup})
	}

	guestObj, ok := k.reg.New(b.program)
	if !ok {
		k.log.Add(trace.EvNote, "unknown program "+b.program)
		return
	}
	if err := guestObj.UnmarshalRegs(b.regs); err != nil {
		k.log.Add(trace.EvNote, "bad regs for "+pid.String())
		return
	}

	p := &PCB{
		pid:           pid,
		program:       b.program,
		args:          b.args,
		mode:          b.mode,
		family:        b.family,
		parent:        b.parent,
		cluster:       k.id,
		backupCluster: newBackup,
		g:             guestObj,
		space:         memory.NewAddressSpace(memory.DefaultPageSize),
		syncReads:     k.syncReads,
		syncTicks:     k.syncTicks,
		epoch:         b.epoch,
		fds:           cloneFDs(b.fds),
		nextFD:        b.nextFD,
		signalCh:      b.signalCh,
		sigIgnore:     cloneSigSet(b.sigIgnore),
		signalNext:    b.signalNext,
		recovered:     true,
		children:      make(map[types.PID]struct{}),
		done:          make(chan struct{}),
		promoteNanos:  noticeNanos,
		totalReads:    b.readsBase,
		decisionSeq:   uint64(len(b.decisions)),
	}
	p.cond = sync.NewCond(&k.mu)
	if k.policy.Decisions && len(b.decisions) > 0 {
		// Install the recorded decision log as the roll-forward signal plan
		// (llft): each entry is the absolute input position at which the
		// dead leader consumed a queued signal, and the new primary must
		// take them at exactly the same positions.
		p.signalPlan = append([]uint64(nil), b.decisions...)
	}

	// Convert the backup routing entries into primary entries: the saved
	// queues become the input queues; the writes-since-sync counts become
	// the suppression budget (§5.4).
	replayed := 0
	for _, e := range k.table.RemoveOwnedBy(pid, routing.Backup) {
		p.suppressTotal += e.Promote(newBackup)
		if k.log != nil {
			// Record one replay step per saved message, in the order the
			// promoted primary will re-read them.
			q := e.Queued()
			for i := range q {
				m := &q[i]
				k.log.Append(trace.Event{
					Kind:    trace.EvReplay,
					Cluster: k.id,
					MsgID:   m.ID,
					MsgKind: m.Kind,
					PID:     pid,
					Channel: m.Channel,
				})
			}
		}
		replayed += e.QueueLen()
		k.table.Add(e)
	}

	p.nondetLog = k.nondetLogs[pid]
	delete(k.nondetLogs, pid)
	delete(k.backups, pid)
	k.procs[pid] = p
	k.metrics.Recoveries.Add(1)
	k.metrics.ReplayedMessages.Add(uint64(replayed))
	k.logEv(trace.EvRecover, pid, uint64(b.epoch), "")
	k.startProcessLocked(p)
}

// sendBackupImageLocked ships a complete backup image to the new backup
// cluster of a fullback. It is enqueued before the new primary executes, so
// FIFO outgoing order and bus total order guarantee the image reaches the
// new backup cluster before any message the new primary sends (or any peer
// sends after seeing the BackupUp notice).
func (k *Kernel) sendBackupImageLocked(b *BackupPCB, entries []*routing.Entry, target types.ClusterID) {
	sm := &SyncMsg{
		PID:            b.pid,
		Epoch:          b.epoch,
		Program:        b.program,
		Mode:           b.mode,
		Family:         b.family,
		Parent:         b.parent,
		Args:           b.args,
		PrimaryCluster: k.id,
		Regs:           b.regs,
		NextFD:         b.nextFD,
		SignalNext:     b.signalNext,
		SigIgnore:      sigSetToSlice(b.sigIgnore),
		SignalChannel:  b.signalCh,
		TotalReads:     b.readsBase,
	}
	fdByChannel := make(map[types.ChannelID]types.FD, len(b.fds))
	for fd, ch := range b.fds {
		fdByChannel[ch] = fd
	}
	img := &BackupImage{Sync: sm, Writes: make(map[types.ChannelID]uint32)}
	var queued []SavedMessage
	for _, e := range entries {
		fd, ok := fdByChannel[e.Channel]
		if !ok {
			fd = types.NoFD
		}
		sm.Channels = append(sm.Channels, ChannelInfo{
			Channel:           e.Channel,
			FD:                fd,
			Peer:              e.Peer,
			PeerCluster:       e.PeerCluster,
			PeerBackupCluster: e.PeerBackupCluster,
			PeerIsServer:      e.PeerIsServer,
		})
		if n := e.Unsent(); n > 0 {
			img.Writes[e.Channel] = n
		}
		q := e.Queued()
		for i := range q {
			m := &q[i]
			queued = append(queued, SavedMessage{
				Channel: m.Channel,
				Kind:    m.Kind,
				Src:     m.Src,
				Seq:     m.Seq,
				Payload: m.Payload,
			})
		}
	}
	sort.SliceStable(queued, func(i, j int) bool { return queued[i].Seq < queued[j].Seq })
	img.Queues = queued

	for _, bn := range k.births[b.pid] {
		img.BornChildren = append(img.BornChildren, Encode(bn))
	}
	img.NondetLog = append([]uint64(nil), k.nondetLogs[b.pid]...)
	// Carry the decision log so a second failure before the next capture
	// still replays the same signal plan (llft): the new backup's saved
	// queues are the forwarded full set, and these are their decisions.
	img.Decisions = append([]uint64(nil), b.decisions...)

	m := k.queueLocked()
	m.Kind, m.Dst, m.Payload = types.KindBackupCreate, b.pid, Encode(img)
	m.Route = types.Route{Dst: target, DstBackup: types.NoCluster, SrcBackup: types.NoCluster}
	k.metrics.BackupsCreated.Add(1)
}

// applyBackupImageLocked installs a fullback's new backup on this cluster.
func (k *Kernel) applyBackupImageLocked(m *types.Message) {
	img, err := Decode[BackupImage](m.Payload)
	if err != nil {
		return
	}
	sm := img.Sync
	b := &BackupPCB{
		pid:            sm.PID,
		program:        sm.Program,
		args:           sm.Args,
		mode:           sm.Mode,
		family:         sm.Family,
		parent:         sm.Parent,
		primaryCluster: sm.PrimaryCluster,
		epoch:          sm.Epoch,
		regs:           sm.Regs,
		nextFD:         sm.NextFD,
		signalCh:       sm.SignalChannel,
		signalNext:     sm.SignalNext,
		sigIgnore:      sigSliceToSet(sm.SigIgnore),
		fds:            make(map[types.FD]types.ChannelID),
		synced:         sm.Epoch > 0,
		readsBase:      sm.TotalReads,
		decisions:      append([]uint64(nil), img.Decisions...),
	}
	for _, ci := range sm.Channels {
		if ci.FD != types.NoFD {
			b.fds[ci.FD] = ci.Channel
		}
		if _, ok := k.table.Lookup(ci.Channel, sm.PID, routing.Backup); !ok {
			e := &routing.Entry{
				Channel:            ci.Channel,
				Owner:              sm.PID,
				Peer:               ci.Peer,
				Role:               routing.Backup,
				PeerCluster:        ci.PeerCluster,
				PeerBackupCluster:  ci.PeerBackupCluster,
				OwnerBackupCluster: k.id,
				PeerIsServer:       ci.PeerIsServer,
			}
			e.Applied(0, img.Writes[ci.Channel])
			k.table.Add(e)
		}
	}
	// Replay the saved queues in original arrival order, advancing the
	// local arrival clock past the carried sequence numbers so future
	// stamps sort after them.
	var maxSeq types.Seq
	for _, smsg := range img.Queues {
		if e, ok := k.table.Lookup(smsg.Channel, sm.PID, routing.Backup); ok && replayableKind(smsg.Kind) {
			e.Enqueue(&types.Message{
				Kind:    smsg.Kind,
				Channel: smsg.Channel,
				Src:     smsg.Src,
				Dst:     sm.PID,
				Seq:     smsg.Seq,
				Payload: smsg.Payload,
			})
		}
		if smsg.Seq > maxSeq {
			maxSeq = smsg.Seq
		}
	}
	if maxSeq > k.arrival {
		k.arrival = maxSeq
	}
	for _, raw := range img.BornChildren {
		if bn, err := Decode[BirthNotice](raw); err == nil {
			k.births[sm.PID] = append(k.births[sm.PID], bn)
		}
	}
	if len(img.NondetLog) > 0 {
		k.nondetLogs[sm.PID] = append([]uint64(nil), img.NondetLog...)
	}
	k.backups[sm.PID] = b
}

// handleBackupUpLocked processes the announcement of a fullback's new
// backup: channels marked unusable become usable, routing information is
// refreshed, and held outgoing messages are released (§7.10.1).
//
// A repair announces a server's new twin the same way, and the directory
// learns the twin from the first kernel to dispatch the notice, so every
// route that names it is ordered after the notice. The server's primary
// here starts the twin's ledger at the notice — the twin saved nothing
// before it — and collects the acks (establishment's step 3): once they are
// in, every request still routed without the twin has been serviced, and
// the sync cut then covers them all.
func (k *Kernel) handleBackupUpLocked(bu *BackupUp) {
	for _, e := range k.table.All() {
		if e.Peer == bu.PID {
			e.PeerBackupCluster = bu.BackupCluster
			e.Unusable = false
		}
	}
	if _, svc := k.dir.Service(bu.PID); svc && k.bus.IsLive(bu.BackupCluster) {
		k.dir.SetBackup(bu.PID, bu.BackupCluster)
		if host, ok := k.servers[bu.PID]; ok && host.role == routing.Backup && bu.BackupCluster == k.id {
			// The twin itself: what a route stale from this cluster's
			// last life saved here, the primary serviced before the notice.
			k.table.RemoveOwnedBy(bu.PID, routing.Backup)
		} else if ok && host.role == routing.Primary && bu.NeedAck {
			for _, e := range k.table.OwnedBy(bu.PID, routing.Primary) {
				e.Synced()
				e.OwnerBackupCluster = bu.BackupCluster
			}
			k.twinAcks[bu.PID] = k.liveSetLocked()
		}
	}
	if bu.NeedAck && bu.Origin != types.NoCluster {
		ack := k.queueLocked()
		ack.Kind, ack.Dst, ack.Payload = types.KindBackupAck, bu.PID, Encode(&BackupAck{PID: bu.PID, From: k.id})
		ack.Route = types.Route{Dst: bu.Origin, DstBackup: types.NoCluster, SrcBackup: types.NoCluster}
	}
	if held := k.held[bu.PID]; len(held) > 0 {
		delete(k.held, bu.PID)
		loc, ok := k.dir.Proc(bu.PID)
		for i := range held {
			m := k.queueLocked()
			*m = held[i]
			if ok {
				m.Route.Dst = loc.Cluster
			}
			m.Route.DstBackup = bu.BackupCluster
		}
	}
	for _, p := range k.procs {
		p.cond.Broadcast()
	}
}

// fixOutgoingLocked rewrites queued outgoing messages that reference the
// crashed cluster (§7.10.1 step 4): destinations move to their backups;
// messages to fullback destinations are held until the new backup's
// location is known.
func (k *Kernel) fixOutgoingLocked(crashed types.ClusterID) {
	k.outgoing.Retain(func(m *types.Message) bool {
		r := &m.Route
		if r.Dst == crashed {
			loc, ok := k.dir.Proc(m.Dst)
			if !ok || loc.Cluster == types.NoCluster {
				svc, sok := k.dir.Service(m.Dst)
				if !sok || svc.Primary == types.NoCluster {
					// Destination unrecoverable: the message is dropped
					// with the crashed cluster.
					return false
				}
				r.Dst = svc.Primary
				r.DstBackup = svc.Backup
				return true
			}
			r.Dst = loc.Cluster
			if k.dir.IsFullback(m.Dst) && loc.BackupCluster == types.NoCluster {
				k.held[m.Dst] = append(k.held[m.Dst], *m)
				return false
			}
			r.DstBackup = loc.BackupCluster
		}
		if r.DstBackup == crashed {
			r.DstBackup = types.NoCluster
		}
		if r.SrcBackup == crashed {
			r.SrcBackup = types.NoCluster
		}
		return true
	})
}

// sortedProcsLocked returns the live PCBs in ascending pid order, for
// deterministic iteration wherever the walk emits messages or events.
func (k *Kernel) sortedProcsLocked() []*PCB {
	procs := make([]*PCB, 0, len(k.procs))
	for _, p := range k.procs {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].pid < procs[j].pid })
	return procs
}

// chooseBackupClusterLocked picks the cluster for a fullback's new backup:
// the lowest-numbered live cluster other than this one. The paper delegates
// this placement decision to the process server; the directory stands in
// for its knowledge.
func (k *Kernel) chooseBackupClusterLocked() types.ClusterID {
	for _, c := range k.bus.Live() {
		if c != k.id {
			return c
		}
	}
	return types.NoCluster
}
