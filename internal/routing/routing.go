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
// four clusters. Each entry is also its end's share of the §5.4 ledger,
// kept behind the operations the paper names (see Entry).
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

// Entry is one end of a channel in one cluster's routing table, and the one
// owner of that end's §5.4 ledger (§7.8):
//
//   - a primary end counts the reads since its owner's last sync (Read),
//     which the sync reports and zeroes (Synced);
//   - a backup end keeps the saved queue and counts the owner's writes
//     since sync (Count); an applied sync discards the front of the queue
//     the primary has read and resets the count (Applied);
//   - at promotion that count becomes the primary end's budget of re-sends
//     to drop (Promote), one per re-sent write (Resend).
//
// The counters are unexported: nothing outside this file changes them but
// those operations.
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
	// message costs no allocation of its own. At a backup end it is the
	// saved queue.
	queue Queue[types.Message]

	// reads is the primary end's reads since sync.
	reads uint32
	// unsent is the backup end's writes since sync and, after Promote, the
	// primary end's budget of re-sends still to drop: the sends that
	// escaped the failed primary since its last applied sync.
	unsent uint32
}

// Enqueue appends a copy of m to the entry's queue. m is not retained.
func (e *Entry) Enqueue(m *types.Message) { e.queue.Push(m) }

// Read removes the oldest queued message, counts it as read since sync, and
// returns its payload, which is all a reader consumes. Kept out of line:
// clearing the vacated slot is a call, and inlined into a reader's wait
// predicate it would spill the payload into every reader's frame.
//
//go:noinline
func (e *Entry) Read() ([]byte, bool) {
	if e.queue.Len() == 0 {
		return nil, false
	}
	p := e.queue.Live()[0].Payload
	e.queue.Drop(1)
	e.reads++
	return p, true
}

// Dequeue is Read under its older name, which bench/layers.go's routing
// probe calls.
func (e *Entry) Dequeue() ([]byte, bool) { return e.Read() }

// Peek returns the oldest queued message without removing it. The pointer
// is into the queue's slot: read it before the next Enqueue or Read.
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
// The slice aliases the queue: read it before the next Enqueue or Read,
// and index it (m := &q[i]) rather than range over copies of its values.
func (e *Entry) Queued() []types.Message { return e.queue.Live() }

// Take removes and returns every queued message; the caller owns the slice.
// Establishment uses it to rebuild a new backup's saved queue.
func (e *Entry) Take() []types.Message { return e.queue.Take() }

// Count records, at the sender's backup, one write the owner transmitted on
// this channel: the third of a message's three deliveries (§5.1), which
// keeps nothing but the count.
func (e *Entry) Count() { e.unsent++ }

// Synced returns the reads since sync and zeroes them: the primary end's
// share of a sync capture.
func (e *Entry) Synced() uint32 {
	n := e.reads
	e.reads = 0
	return n
}

// Applied is a sync's effect at the backup end: "if the count of reads since
// sync is positive, that many messages are removed from the associated
// message queue" (§7.8), and the writes-since-sync count is reset — to zero,
// or to debt, the re-sends a still-recovering primary has yet to drop. It
// returns how many messages were discarded.
func (e *Entry) Applied(reads, debt uint32) uint32 {
	d := min(reads, uint32(e.queue.Len()))
	e.queue.Drop(int(d))
	e.unsent = debt
	return d
}

// Promote turns a backup end into its owner's primary end (§7.10.2): the
// saved queue becomes the input queue, newBackup the owner's backup
// cluster, and the writes-since-sync count the budget of re-sends to drop,
// which it returns.
func (e *Entry) Promote(newBackup types.ClusterID) uint32 {
	e.Role = Primary
	e.OwnerBackupCluster = newBackup
	return e.unsent
}

// Resend spends one unit of the re-send budget and reports whether there
// was one: true means the failed primary already sent this write, so it is
// dropped (§5.4).
func (e *Entry) Resend() bool {
	if e.unsent == 0 {
		return false
	}
	e.unsent--
	return true
}

// Unsent returns the backup end's writes since sync, or the primary end's
// remaining re-send budget.
func (e *Entry) Unsent() uint32 { return e.unsent }

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
		e.OwnerBackupCluster, e.queue.Len(), e.reads, e.unsent, e.Unusable, e.Closed)
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
