// Package routing implements the cluster-local routing table of §7.4.1.
//
// One end of a channel is a routing-table entry. An entry carries (1) all
// information needed to route a message to the primary destination and to
// the backups of both destination and sender, (2) a queue of incoming
// messages, and (3) status: the entry's role (primary end or backup end)
// and whether the peer is a server.
//
// A channel between two backed-up processes therefore consists of four
// entries: one for each primary and one for each backup, spread over up to
// four clusters. Primary entries count reads-since-sync (reported in the
// sync message so the backup can discard consumed messages); backup entries
// hold the saved message queue and the writes-since-sync count used to
// suppress redundant sends during roll-forward (§5.4).
package routing

import (
	"fmt"
	"sort"

	"auragen/internal/types"
)

// Role distinguishes the two kinds of routing-table entries.
type Role uint8

const (
	// Primary marks the entry serving a live (primary) process end.
	Primary Role = iota
	// Backup marks the entry maintained on behalf of a process's backup.
	Backup
)

func (r Role) String() string {
	if r == Primary {
		return "primary"
	}
	return "backup"
}

// Entry is one end of a channel in one cluster's routing table.
type Entry struct {
	Channel types.ChannelID
	// Owner is the process this entry belongs to (the reader/writer for a
	// Primary entry; the backed-up process for a Backup entry).
	Owner types.PID
	// Peer is the process at the other end of the channel.
	Peer types.PID
	Role Role

	// Routing information for messages the owner writes on this channel.
	PeerCluster        types.ClusterID
	PeerBackupCluster  types.ClusterID
	OwnerBackupCluster types.ClusterID

	// PeerIsServer records whether the other end is a system or peripheral
	// server (§7.4.1 status information).
	PeerIsServer bool

	// Unusable marks a channel whose peer was a fullback that crashed; it
	// stays unusable until notification arrives of the new backup's
	// location (§7.10.1 step 1).
	Unusable bool

	// Closed marks a channel whose peer end has closed.
	Closed bool

	// queue holds incoming messages by value, in arrival order (already
	// stamped with cluster arrival sequence numbers by the kernel): queuing
	// one copies it into a slot of an array the queue reuses, so a delivered
	// message costs no allocation of its own.
	queue Queue[types.Message]

	// ReadsSinceSync counts messages the owner has read from this channel
	// since its last sync (Primary entries; reported in sync messages).
	ReadsSinceSync uint32

	// WritesSinceSync counts messages the owner has written on this
	// channel since its last sync (Backup entries; incremented when the
	// sender's-backup copy arrives, decremented during roll-forward to
	// suppress resends).
	WritesSinceSync uint32
}

// Enqueue appends a copy of m to the entry's queue. m is not retained.
func (e *Entry) Enqueue(m *types.Message) { e.queue.Push(m) }

// Dequeue removes the oldest queued message and returns its payload, which
// is all a reader consumes. Kept out of line: clearing the vacated slot is a
// call, and inlined into a reader's wait predicate it would spill the
// payload into every reader's frame.
//
//go:noinline
func (e *Entry) Dequeue() ([]byte, bool) {
	if e.queue.Len() == 0 {
		return nil, false
	}
	p := e.queue.Live()[0].Payload
	e.queue.Drop(1)
	return p, true
}

// Peek returns the oldest queued message without removing it. The pointer
// is into the queue's slot: read it before the next Enqueue or Dequeue.
func (e *Entry) Peek() (*types.Message, bool) {
	if e.queue.Len() == 0 {
		return nil, false
	}
	return &e.queue.Live()[0], true
}

// QueueLen returns the number of queued messages.
func (e *Entry) QueueLen() int { return e.queue.Len() }

// Queued returns the queued messages, oldest first, without consuming them
// (roll-forward replay records, backup images, establishment forwarding).
// The slice aliases the queue: read it before the next Enqueue or Dequeue,
// and index it (m := &q[i]) rather than range over copies of its values.
func (e *Entry) Queued() []types.Message { return e.queue.Live() }

// DiscardFront drops up to n messages from the front of the queue and
// returns how many were dropped. Sync processing at the backup cluster uses
// it: "if the count of reads since sync is positive, that many messages are
// removed from the associated message queue" (§7.8).
func (e *Entry) DiscardFront(n uint32) uint32 {
	d := min(n, uint32(e.queue.Len()))
	e.queue.Drop(int(d))
	return d
}

// Route assembles the bus route for a message the owner writes on this
// channel.
func (e *Entry) Route() types.Route {
	return types.Route{
		Dst:       e.PeerCluster,
		DstBackup: e.PeerBackupCluster,
		SrcBackup: e.OwnerBackupCluster,
	}
}

func (e *Entry) String() string {
	return fmt.Sprintf("%s %s owner=%s peer=%s@%v/%v ownerBackup=%v q=%d r=%d w=%d unusable=%v closed=%v",
		e.Channel, e.Role, e.Owner, e.Peer, e.PeerCluster, e.PeerBackupCluster,
		e.OwnerBackupCluster, e.queue.Len(), e.ReadsSinceSync, e.WritesSinceSync, e.Unusable, e.Closed)
}

// owned holds one owner's entries, one slice per role, each sorted by
// channel. A process has three to five channels, so finding one is a short
// search of a few adjacent words rather than the hash of a 24-byte key.
type owned [2][]*Entry

// find returns the position of ch in s (sorted by channel), or where it
// would be inserted. Written out rather than slices.BinarySearchFunc: the
// generic call and its comparison closure cost 4 % of echo_ft's processor
// time here, this loop 1 %.
func find(s []*Entry, ch types.ChannelID) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].Channel < ch {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && s[lo].Channel == ch
}

// Find returns the entry for ch among entries, one owner's entries of one
// role as OwnedBy returns them.
func Find(entries []*Entry, ch types.ChannelID) (*Entry, bool) {
	if i, ok := find(entries, ch); ok {
		return entries[i], true
	}
	return nil, false
}

// Table is one cluster's routing table, indexed by owner. It resides in
// kernel space and is maintained by message-system code running on the work
// or executive processors; it has no lock of its own — the kernel mutex is
// the kernel-mode mutual exclusion, and every access is made under it.
type Table struct {
	owners map[types.PID]*owned
	n      int
}

// NewTable returns an empty routing table.
func NewTable() *Table {
	return &Table{owners: make(map[types.PID]*owned)}
}

// Add inserts an entry. Adding a duplicate (channel, owner, role) replaces
// the previous entry and returns it, which happens only when an open reply
// is replayed during recovery.
func (t *Table) Add(e *Entry) *Entry {
	o := t.owners[e.Owner]
	if o == nil {
		o = new(owned)
		t.owners[e.Owner] = o
	}
	s := o[e.Role]
	i, ok := find(s, e.Channel)
	if ok {
		old := s[i]
		s[i] = e
		return old
	}
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = e
	o[e.Role] = s
	t.n++
	return nil
}

// Lookup finds the entry for (channel, owner, role).
func (t *Table) Lookup(ch types.ChannelID, owner types.PID, role Role) (*Entry, bool) {
	if o := t.owners[owner]; o != nil {
		return Find(o[role], ch)
	}
	return nil, false
}

// Remove deletes the entry for (channel, owner, role) and returns it.
func (t *Table) Remove(ch types.ChannelID, owner types.PID, role Role) (*Entry, bool) {
	o := t.owners[owner]
	if o == nil {
		return nil, false
	}
	s := o[role]
	i, ok := find(s, ch)
	if !ok {
		return nil, false
	}
	e := s[i]
	copy(s[i:], s[i+1:])
	s[len(s)-1] = nil
	o[role] = s[:len(s)-1]
	t.n--
	return e, true
}

// OwnedBy returns every entry owned by pid with the given role, sorted by
// channel. The slice is the table's own: read it, do not modify it, and do
// not hold it across an Add or Remove for the same owner.
func (t *Table) OwnedBy(pid types.PID, role Role) []*Entry {
	if o := t.owners[pid]; o != nil {
		return o[role]
	}
	return nil
}

// RemoveOwnedBy deletes every entry owned by pid with the given role and
// returns them (sorted by channel; the caller owns the slice). Used when a
// process exits or when a backup is promoted — the end of every owner's
// life in a role, so this is where an owner with nothing left is forgotten.
func (t *Table) RemoveOwnedBy(pid types.PID, role Role) []*Entry {
	o := t.owners[pid]
	if o == nil {
		return nil
	}
	out := o[role]
	o[role] = nil
	if len(o[1-role]) == 0 {
		delete(t.owners, pid)
	}
	t.n -= len(out)
	return out
}

// Len returns the number of entries.
func (t *Table) Len() int { return t.n }

// All returns every entry, sorted by (channel, owner, role) for
// deterministic iteration.
func (t *Table) All() []*Entry {
	out := make([]*Entry, 0, t.n)
	for _, o := range t.owners {
		out = append(append(out, o[Primary]...), o[Backup]...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Channel != b.Channel {
			return a.Channel < b.Channel
		}
		if a.Owner != b.Owner {
			return a.Owner < b.Owner
		}
		return a.Role < b.Role
	})
	return out
}

// FixupCrash rewrites routing information after cluster crashed has failed
// (§7.10.1 step 1): wherever the crashed cluster appears as a peer's
// primary location, the peer's backup location takes its place; channels
// whose peers are fullbacks are marked unusable until a BackupUp notice
// arrives. fullback reports whether a pid's process runs in fullback mode.
func (t *Table) FixupCrash(crashed types.ClusterID, fullback func(types.PID) bool) {
	for _, e := range t.All() {
		if e.PeerCluster == crashed {
			e.PeerCluster = e.PeerBackupCluster
			e.PeerBackupCluster = types.NoCluster
			if fullback != nil && fullback(e.Peer) {
				e.Unusable = true
			}
		} else if e.PeerBackupCluster == crashed {
			// Peer survives but lost its backup; stop routing copies there.
			e.PeerBackupCluster = types.NoCluster
			if fullback != nil && fullback(e.Peer) {
				// Peer is a fullback whose backup must be recreated before
				// we resume sending it backup copies; sends stay usable.
				e.Unusable = false
			}
		}
		if e.OwnerBackupCluster == crashed {
			e.OwnerBackupCluster = types.NoCluster
		}
	}
}
