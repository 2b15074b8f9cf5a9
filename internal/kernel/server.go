package kernel

import (
	"auragen/internal/directory"
	"auragen/internal/routing"
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
// cluster.
type ServerHost struct {
	impl Server
	role routing.Role
	// primaryCluster tracks where the primary instance currently runs.
	primaryCluster types.ClusterID
	// saved holds requests awaiting coverage by a server sync (backup
	// role only).
	saved []*types.Message
	// requestsHandled counts requests serviced since the last server
	// sync, per channel (primary role; becomes the Discards of the next
	// sync).
	requestsHandled map[types.ChannelID]uint32
	// servicedCum counts requests serviced over the server's lifetime,
	// per channel (primary role). Servers with durable state persist it
	// alongside their flushes so a promoted twin can reconcile its saved
	// queue against effects already on disk (see fileserver).
	servicedCum map[types.ChannelID]uint64
	// discardedCum counts saved requests this twin has discarded over its
	// lifetime, per channel (backup role).
	discardedCum map[types.ChannelID]uint64
	// suppress holds reply-suppression budgets during promotion replay.
	suppress map[types.ChannelID]uint32
}

// RegisterServer installs a server instance on this kernel. Exactly one
// cluster registers the primary instance and one other the backup twin;
// the directory records which is which.
func (k *Kernel) RegisterServer(impl Server, role routing.Role, primaryCluster types.ClusterID) *ServerHost {
	host := &ServerHost{
		impl:            impl,
		role:            role,
		primaryCluster:  primaryCluster,
		requestsHandled: make(map[types.ChannelID]uint32),
		servicedCum:     make(map[types.ChannelID]uint64),
		discardedCum:    make(map[types.ChannelID]uint64),
		suppress:        make(map[types.ChannelID]uint32),
	}
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

// ServicedCounts returns a copy of the cumulative per-channel counts of
// requests serviced by this (primary) instance.
func (c *ServerCtx) ServicedCounts() map[types.ChannelID]uint64 {
	out := make(map[types.ChannelID]uint64, len(c.host.servicedCum))
	for ch, n := range c.host.servicedCum {
		out[ch] = n
	}
	return out
}

// DiscardedCounts returns a copy of the cumulative per-channel counts of
// saved requests this (backup) instance has discarded.
func (c *ServerCtx) DiscardedCounts() map[types.ChannelID]uint64 {
	out := make(map[types.ChannelID]uint64, len(c.host.discardedCum))
	for ch, n := range c.host.discardedCum {
		out[ch] = n
	}
	return out
}

// NoteServiced bumps the cumulative serviced counters during a promote-time
// replay reconciliation (requests dropped because their effects are already
// on durable storage still count as serviced).
func (c *ServerCtx) NoteServiced(ch types.ChannelID, n uint64) {
	c.host.servicedCum[ch] += n
}

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
// Routing uses the server's own routing-table entry for the channel (kept
// current by crash handling, like user entries); the directory is consulted
// only to create a missing entry.
func (c *ServerCtx) Reply(ch types.ChannelID, dst types.PID, kind types.Kind, payload []byte) {
	if n := c.host.suppress[ch]; n > 0 {
		c.host.suppress[ch] = n - 1
		c.k.metrics.SuppressedSends.Add(1)
		return
	}
	srv := c.host.impl.PID()
	e, ok := c.k.table.Lookup(ch, srv, routing.Primary)
	if !ok {
		dstCluster, dstBackup := types.NoCluster, types.NoCluster
		if loc, lok := c.k.dir.Proc(dst); lok {
			dstCluster, dstBackup = loc.Cluster, loc.BackupCluster
		} else if svc, sok := c.k.dir.Service(dst); sok {
			dstCluster, dstBackup = svc.Primary, svc.Backup
		}
		e = &routing.Entry{
			Channel:            ch,
			Owner:              srv,
			Peer:               dst,
			Role:               routing.Primary,
			PeerCluster:        dstCluster,
			PeerBackupCluster:  dstBackup,
			OwnerBackupCluster: c.twinCluster(),
		}
		c.k.table.Add(e)
	}
	c.k.sendLocked(&types.Message{
		Kind:    kind,
		Channel: ch,
		Src:     srv,
		Dst:     dst,
		Route:   e.Route(),
		Payload: payload,
	})
}

// twinCluster returns the cluster of this server's twin instance, or
// NoCluster if the twin is gone.
func (c *ServerCtx) twinCluster() types.ClusterID {
	svc, ok := c.k.dir.Service(c.host.impl.PID())
	if !ok {
		return types.NoCluster
	}
	if c.host.role == routing.Primary {
		return svc.Backup
	}
	return svc.Primary
}

// SendSignal queues an asynchronous signal on a process's signal channel
// (§7.5.2): the signal travels as a message to the process and its backup.
func (c *ServerCtx) SendSignal(pid types.PID, sig types.Signal) {
	c.k.signalLocked(pid, sig, c.host.impl.PID())
}

// Sync sends the server's explicit sync to its backup twin (§7.9): the
// state blob plus the per-channel counts of requests handled since the last
// sync, which the twin uses to discard saved requests.
func (c *ServerCtx) Sync() {
	twin := c.twinCluster()
	if twin == types.NoCluster {
		c.host.requestsHandled = make(map[types.ChannelID]uint32)
		return
	}
	ss := &ServerSyncMsg{
		PID:      c.host.impl.PID(),
		Blob:     c.host.impl.SyncBlob(),
		Discards: c.host.requestsHandled,
	}
	c.host.requestsHandled = make(map[types.ChannelID]uint32)
	c.k.sendLocked(&types.Message{
		Kind:    types.KindServerSync,
		Src:     c.host.impl.PID(),
		Dst:     c.host.impl.PID(),
		Route:   types.Route{Dst: twin, DstBackup: types.NoCluster, SrcBackup: types.NoCluster},
		Payload: Encode(ss),
	})
	c.k.metrics.Syncs.Add(1)
}

// promoteServerLocked turns a backup twin into the primary after a crash
// (§7.10.2: servers must recover quickly — no page fetch is needed because
// peripheral servers are memory-resident).
func (k *Kernel) promoteServerLocked(host *ServerHost) {
	host.role = routing.Primary
	host.primaryCluster = k.id
	// Collect reply-suppression budgets from this server's backup entries.
	for _, e := range k.table.RemoveOwnedBy(host.impl.PID(), routing.Backup) {
		if n := e.Unsent(); n > 0 {
			host.suppress[e.Channel] = n
		}
	}
	saved := host.saved
	host.saved = nil
	for _, m := range saved {
		host.requestsHandled[m.Channel]++
		host.servicedCum[m.Channel]++
	}
	// The promoted instance inherits the discard history as its serviced
	// history baseline (everything it discarded was serviced upstream).
	for ch, n := range host.discardedCum {
		host.servicedCum[ch] += n
	}
	k.metrics.Recoveries.Add(1)
	k.metrics.ReplayedMessages.Add(uint64(len(saved)))
	host.impl.Promote(k.serverCtx(host), saved)
}

// ServerInject runs fn against the named server instance under the kernel
// lock, giving device drivers (terminal input, timers) a way into the
// message world. Peripheral servers access their devices via special system
// calls unavailable to user processes (§4); this is that path.
func (k *Kernel) ServerInject(pid types.PID, fn func(*ServerCtx, Server)) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if host, ok := k.servers[pid]; ok && !k.crashed && !k.stopped {
		fn(k.serverCtx(host), host.impl)
		k.transmitLocked()
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
	k.sendLocked(&types.Message{
		Kind:    types.KindSignal,
		Channel: sigCh,
		Src:     src,
		Dst:     pid,
		Route:   types.Route{Dst: loc.Cluster, DstBackup: loc.BackupCluster, SrcBackup: types.NoCluster},
		Payload: []byte{byte(sig)},
	})
}
