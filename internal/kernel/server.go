package kernel

import (
	"sort"

	"auragen/internal/directory"
	"auragen/internal/routing"
	"auragen/internal/trace"
	"auragen/internal/types"
)

// Server is a system or peripheral server process (§7.6, §7.9). Unlike user
// processes, peripheral servers are memory-resident, talk to devices
// directly, and are backed up by an *active* backup twin: the primary
// repeatedly reads, services, and responds to requests and periodically
// sends explicit sync information to its backup; the backup applies the
// sync and discards saved requests already serviced.
//
// Implementations run inside the kernel's dispatch loop (servers are part
// of the operating system) and keep their own state; the framework handles
// request saving, sync application ordering, reply-suppression counts, and
// promotion after a crash.
type Server interface {
	// PID returns the server's well-known pid.
	PID() types.PID
	// Receive services one request at the primary instance. Replies are
	// sent through ctx.
	Receive(ctx *ServerCtx, m *types.Message)
	// SyncBlob captures the server-specific state carried in an explicit
	// server sync (§7.9: "each can be written to send only that
	// information which is actually needed to update the internal tables
	// of the backup").
	SyncBlob() []byte
	// ApplySync installs a sync blob at the backup instance.
	ApplySync(blob []byte)
	// Promote runs at the backup twin when it becomes primary: saved are
	// the requests not yet covered by a sync, replayed in arrival order.
	// Replies regenerated during replay are suppressed by the framework
	// if the failed primary already sent them.
	Promote(ctx *ServerCtx, saved []*types.Message)
}

// ServerHost wraps one instance (primary or backup twin) of a server on one
// cluster. Its §5.4 ledger is not here: like a process's, it lives in the
// server's routing entries (§7.8) — a primary entry per channel counts the
// requests serviced since the last server sync, and the twin's backup entry
// per channel holds the saved requests and counts the replies sent since.
type ServerHost struct {
	impl Server
	role routing.Role
	// primaryCluster tracks where the primary instance currently runs.
	primaryCluster types.ClusterID
}

// RegisterServer installs a server instance on this kernel. Exactly one
// cluster registers the primary instance and one other the backup twin;
// the directory records which is which.
func (k *Kernel) RegisterServer(impl Server, role routing.Role, primaryCluster types.ClusterID) *ServerHost {
	host := &ServerHost{impl: impl, role: role, primaryCluster: primaryCluster}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.servers[impl.PID()] = host
	return host
}

// ServerCtx is the interface a server implementation uses to reply, sync,
// and consult global state. It is only valid during the call it was passed
// to (the kernel lock is held).
type ServerCtx struct {
	k    *Kernel
	host *ServerHost
}

func (k *Kernel) serverCtx(host *ServerHost) *ServerCtx {
	return &ServerCtx{k: k, host: host}
}

// Cluster returns the hosting cluster.
func (c *ServerCtx) Cluster() types.ClusterID { return c.k.id }

// Directory returns the shared directory.
func (c *ServerCtx) Directory() *directory.Directory { return c.k.dir }

// Now returns the local wall-clock time in nanoseconds. Servers may expose
// environmental state like this to user processes via message; user
// processes themselves may not read it (§7.5.1).
func (c *ServerCtx) Now() int64 { return c.k.nowNanos() }

// Reply sends a message on channel ch to user process dst, routed to the
// destination, the destination's backup, and this server's own backup twin
// (which counts it for §5.4-style reply suppression). During promotion
// replay, replies the failed primary already sent are suppressed.
//
// Routing uses the server's own routing-table entry for the channel, made
// from the request that first used it and kept current by crash handling
// and BackupUp notices, like a process's entries. Only a channel no request
// has reached here on (a listening channel, a terminal binding, a channel a
// repaired twin never saw) takes its entry from the directory.
func (c *ServerCtx) Reply(ch types.ChannelID, dst types.PID, kind types.Kind, payload []byte) {
	srv := c.host.impl.PID()
	e, ok := c.k.table.Lookup(ch, srv, routing.Primary)
	if !ok {
		svc, _ := c.k.dir.Service(srv)
		at := types.Route{Dst: types.NoCluster, DstBackup: types.NoCluster, SrcBackup: svc.Backup}
		if loc, lok := c.k.dir.Proc(dst); lok {
			at.Dst, at.DstBackup = loc.Cluster, loc.BackupCluster
		} else if peer, sok := c.k.dir.Service(dst); sok {
			at.Dst, at.DstBackup = peer.Primary, peer.Backup
		}
		e = c.k.ledgerEntryLocked(ch, srv, routing.Primary, dst, at)
	}
	if e.Resend() {
		c.k.metrics.SuppressedSends.Add(1)
		return
	}
	m := c.k.queueLocked()
	m.Kind, m.Channel, m.Src, m.Dst, m.Route, m.Payload = kind, ch, srv, dst, e.Route(), payload
}

// SendSignal queues an asynchronous signal on a process's signal channel
// (§7.5.2): the signal travels as a message to the process and its backup.
func (c *ServerCtx) SendSignal(pid types.PID, sig types.Signal) {
	c.k.signalLocked(pid, sig, c.host.impl.PID())
}

// Sync sends the server's explicit sync to its backup twin (§7.9): the
// state blob plus each channel's reads since the last sync, which the twin
// uses to discard saved requests.
func (c *ServerCtx) Sync() {
	srv := c.host.impl.PID()
	discards := make(map[types.ChannelID]uint32)
	for _, e := range c.k.table.OwnedBy(srv, routing.Primary) {
		if n := e.Synced(); n > 0 {
			discards[e.Channel] = n
		}
	}
	twin, _ := c.k.dir.Service(srv)
	if twin.Backup == types.NoCluster {
		return
	}
	ss := &ServerSyncMsg{PID: srv, Blob: c.host.impl.SyncBlob(), Discards: discards}
	m := c.k.queueLocked()
	m.Kind, m.Src, m.Dst, m.Payload = types.KindServerSync, srv, srv, Encode(ss)
	m.Route = types.Route{Dst: twin.Backup, DstBackup: types.NoCluster, SrcBackup: types.NoCluster}
	c.k.metrics.Syncs.Add(1)
}

// serviceLocked services a request at a primary server at once (§7.9). The
// request counts as read since sync — the next server sync has the twin
// discard its copy — exactly when the twin holds a copy: the request's
// route named the twin, or it is forwarded to the twin here. While a new
// twin's BackupUp acks are still due, a request routed without it is not
// forwarded: its effect reaches the twin in the sync cut once they are in.
func (k *Kernel) serviceLocked(host *ServerHost, m *types.Message) {
	at := types.Route{Dst: m.Origin, DstBackup: m.Route.SrcBackup, SrcBackup: m.Route.DstBackup}
	if at.SrcBackup == k.id {
		at.SrcBackup = types.NoCluster // a straggler to this cluster as the twin it was
	}
	e := k.ledgerEntryLocked(m.Channel, m.Dst, routing.Primary, m.Src, at)
	if twin := e.OwnerBackupCluster; twin != types.NoCluster {
		_, cutting := k.twinAcks[m.Dst]
		if m.Route.DstBackup != twin && !cutting {
			k.forwardLocked(m, twin)
		}
		if m.Route.DstBackup == twin || !cutting {
			e.Enqueue(m)
			e.Read()
		}
	}
	k.metrics.PrimaryDeliveries.Add(1)
	k.logMsg(trace.EvDeliver, m, m.Dst, 0)
	c := *m // the server's own: m is dispatchLocked's stack copy
	host.impl.Receive(k.serverCtx(host), &c)
}

// ledgerEntryLocked returns owner's entry of the given role for ch, making
// it, when this cluster has none, from at: the route a message owner writes
// on the channel would take, as the message that first used the channel
// here tells it. A request from a new peer on an existing entry (a terminal
// channel's user, after the file server's binding) moves the entry's peer.
func (k *Kernel) ledgerEntryLocked(ch types.ChannelID, owner types.PID, role routing.Role, peer types.PID, at types.Route) *routing.Entry {
	e, ok := k.table.Lookup(ch, owner, role)
	if !ok {
		e = &routing.Entry{Channel: ch, Owner: owner, Role: role, OwnerBackupCluster: at.SrcBackup}
		k.table.Add(e)
	}
	if !ok || e.Peer != peer {
		e.Peer, e.PeerCluster, e.PeerBackupCluster = peer, at.Dst, at.DstBackup
	}
	return e
}

// promoteServerLocked turns a backup twin into the primary after a crash
// (§7.10.2: servers must recover quickly — no page fetch is needed because
// peripheral servers are memory-resident). Each backup entry becomes a
// primary entry whose writes-since-sync count is its budget of replies to
// drop; the saved requests are replayed lowest arrival Seq first, the order
// across channels in which the failed primary serviced them.
func (k *Kernel) promoteServerLocked(host *ServerHost) {
	host.role = routing.Primary
	host.primaryCluster = k.id
	var saved []*types.Message
	for _, e := range k.table.RemoveOwnedBy(host.impl.PID(), routing.Backup) {
		q := e.Take()
		for i := range q {
			saved = append(saved, &q[i])
		}
		e.Promote(types.NoCluster)
		k.table.Add(e)
	}
	sort.Slice(saved, func(i, j int) bool { return saved[i].Seq < saved[j].Seq })
	k.metrics.Recoveries.Add(1)
	k.metrics.ReplayedMessages.Add(uint64(len(saved)))
	host.impl.Promote(k.serverCtx(host), saved)
}

// ServerInject runs fn against the named server instance under the kernel
// lock, giving device drivers (terminal input, timers) a way into the
// message world. Peripheral servers access their devices via special system
// calls unavailable to user processes (§4); this is that path. It returns
// once what fn sent has left the cluster (or the cluster can send nothing
// more), so a bus-ordered mark core sends next follows it everywhere.
func (k *Kernel) ServerInject(pid types.PID, fn func(*ServerCtx, Server)) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if host, ok := k.servers[pid]; ok && !k.crashed && !k.stopped {
		fn(k.serverCtx(host), host.impl)
		k.awaitSentLocked()
	}
}

// Signal sends an asynchronous signal to a process from outside (the
// system facade's kill, a terminal interrupt). It travels as a message so
// both the process and its backup see it (§7.5.2).
func (k *Kernel) Signal(pid types.PID, sig types.Signal) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.signalLocked(pid, sig, directory.PIDKernel)
	k.transmitLocked()
}

// signalLocked routes a signal message to pid's signal channel and its
// backup copy. src names the originating server or kernel.
func (k *Kernel) signalLocked(pid types.PID, sig types.Signal, src types.PID) {
	loc, ok := k.dir.Proc(pid)
	if !ok {
		return
	}
	var sigCh types.ChannelID
	if p, ok := k.procs[pid]; ok && loc.Cluster == k.id {
		sigCh = p.signalCh
	} else if b, ok := k.backups[pid]; ok && loc.BackupCluster == k.id {
		sigCh = b.signalCh
	} else {
		// Remote process: the signal channel id is not locally known;
		// consult the directory-backed location and let the owning
		// kernels resolve it. We carry NoChannel and resolve on arrival.
		sigCh = types.NoChannel
	}
	m := k.queueLocked()
	m.Kind, m.Channel, m.Src, m.Dst, m.Payload = types.KindSignal, sigCh, src, pid, []byte{byte(sig)}
	m.Route = types.Route{Dst: loc.Cluster, DstBackup: loc.BackupCluster, SrcBackup: types.NoCluster}
}
