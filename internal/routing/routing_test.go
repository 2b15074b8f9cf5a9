package routing

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"auragen/internal/types"
)

func entry(ch types.ChannelID, owner, peer types.PID, role Role) *Entry {
	return &Entry{
		Channel:            ch,
		Owner:              owner,
		Peer:               peer,
		Role:               role,
		PeerCluster:        1,
		PeerBackupCluster:  2,
		OwnerBackupCluster: 3,
	}
}

func msg(seq types.Seq) *types.Message {
	return &types.Message{Kind: types.KindData, Seq: seq, Payload: []byte{byte(seq)}}
}

func TestQueueFIFO(t *testing.T) {
	e := entry(1, 10, 20, Primary)
	for i := 1; i <= 3; i++ {
		e.Enqueue(msg(types.Seq(i)))
	}
	if p, ok := e.Peek(); !ok || p.Seq != 1 {
		t.Fatal("Peek wrong")
	}
	for i := 1; i <= 3; i++ {
		p, ok := e.Read()
		if !ok || len(p) != 1 || p[0] != byte(i) {
			t.Fatalf("read %d: got payload %v ok=%v", i, p, ok)
		}
	}
	if _, ok := e.Read(); ok {
		t.Fatal("read from empty succeeded")
	}
	if n := e.Synced(); n != 3 {
		t.Fatalf("Synced = %d after three reads and one empty read, want 3", n)
	}
	if n := e.Synced(); n != 0 {
		t.Fatalf("Synced = %d straight after a sync, want 0", n)
	}
}

func TestApplied(t *testing.T) {
	e := entry(1, 10, 20, Backup)
	for i := 1; i <= 5; i++ {
		e.Enqueue(msg(types.Seq(i)))
		e.Count()
	}
	if n := e.Applied(3, 0); n != 3 || e.Unsent() != 0 {
		t.Fatalf("Applied(3, 0) discarded %d and left %d writes since sync", n, e.Unsent())
	}
	if m, _ := e.Peek(); m.Seq != 4 {
		t.Fatalf("front after discard = %d", m.Seq)
	}
	// Discarding more than queued drops what exists; a debt is kept.
	if n := e.Applied(10, 2); n != 2 || e.Unsent() != 2 {
		t.Fatalf("Applied(10, 2) discarded %d and left %d writes since sync, want 2 and 2", n, e.Unsent())
	}
	if e.QueueLen() != 0 {
		t.Fatal("queue not empty")
	}
}

func TestRoute(t *testing.T) {
	e := entry(1, 10, 20, Primary)
	r := e.Route()
	if r.Dst != 1 || r.DstBackup != 2 || r.SrcBackup != 3 {
		t.Fatalf("Route = %+v", r)
	}
}

func TestTableAddLookupRemove(t *testing.T) {
	tb := NewTable()
	e := entry(5, 10, 20, Primary)
	if old := tb.Add(e); old != nil {
		t.Fatal("Add returned an old entry for a fresh key")
	}
	got, ok := tb.Lookup(5, 10, Primary)
	if !ok || got != e {
		t.Fatal("Lookup failed")
	}
	if _, ok := tb.Lookup(5, 10, Backup); ok {
		t.Fatal("Lookup found wrong role")
	}
	if _, ok := tb.Lookup(5, 99, Primary); ok {
		t.Fatal("Lookup found wrong owner")
	}
	removed, ok := tb.Remove(5, 10, Primary)
	if !ok || removed != e || tb.Len() != 0 {
		t.Fatal("Remove failed")
	}
}

func TestTableAddReplaces(t *testing.T) {
	tb := NewTable()
	e1 := entry(5, 10, 20, Primary)
	e2 := entry(5, 10, 20, Primary)
	tb.Add(e1)
	if old := tb.Add(e2); old != e1 {
		t.Fatal("Add did not return replaced entry")
	}
	got, _ := tb.Lookup(5, 10, Primary)
	if got != e2 {
		t.Fatal("replacement not installed")
	}
}

func TestOwnedBySortedByChannel(t *testing.T) {
	tb := NewTable()
	tb.Add(entry(9, 10, 20, Primary))
	tb.Add(entry(3, 10, 20, Primary))
	tb.Add(entry(6, 10, 20, Primary))
	tb.Add(entry(4, 10, 20, Backup))  // different role
	tb.Add(entry(5, 11, 20, Primary)) // different owner
	got := tb.OwnedBy(10, Primary)
	if len(got) != 3 {
		t.Fatalf("OwnedBy returned %d entries", len(got))
	}
	for i, want := range []types.ChannelID{3, 6, 9} {
		if got[i].Channel != want {
			t.Errorf("entry %d channel = %d, want %d", i, got[i].Channel, want)
		}
	}
}

func TestRemoveOwnedBy(t *testing.T) {
	tb := NewTable()
	tb.Add(entry(1, 10, 20, Backup))
	tb.Add(entry(2, 10, 20, Backup))
	tb.Add(entry(3, 10, 20, Primary))
	out := tb.RemoveOwnedBy(10, Backup)
	if len(out) != 2 || tb.Len() != 1 {
		t.Fatalf("RemoveOwnedBy: got %d removed, %d left", len(out), tb.Len())
	}
}

func TestFixupCrashPromotesBackupCluster(t *testing.T) {
	tb := NewTable()
	e := entry(1, 10, 20, Primary) // peer primary on cluster 1, backup on 2
	tb.Add(e)
	tb.FixupCrash(1, nil)
	if e.PeerCluster != 2 || e.PeerBackupCluster != types.NoCluster {
		t.Fatalf("after fixup: peer=%v peerBackup=%v", e.PeerCluster, e.PeerBackupCluster)
	}
	if e.Unusable {
		t.Fatal("non-fullback peer marked unusable")
	}
}

func TestFixupCrashMarksFullbackUnusable(t *testing.T) {
	tb := NewTable()
	e := entry(1, 10, 20, Primary)
	tb.Add(e)
	tb.FixupCrash(1, func(p types.PID) bool { return p == 20 })
	if !e.Unusable {
		t.Fatal("fullback peer not marked unusable")
	}
}

func TestFixupCrashClearsLostBackups(t *testing.T) {
	tb := NewTable()
	e := entry(1, 10, 20, Primary) // owner backup on cluster 3
	tb.Add(e)
	tb.FixupCrash(3, nil)
	if e.OwnerBackupCluster != types.NoCluster {
		t.Fatal("owner's lost backup still routed")
	}
	if e.PeerCluster != 1 {
		t.Fatal("peer cluster should be untouched")
	}
}

func TestFixupCrashPeerLostBackup(t *testing.T) {
	tb := NewTable()
	e := entry(1, 10, 20, Primary) // peer backup on cluster 2
	tb.Add(e)
	tb.FixupCrash(2, nil)
	if e.PeerBackupCluster != types.NoCluster {
		t.Fatal("crashed peer-backup cluster still routed")
	}
	if e.PeerCluster != 1 || e.Unusable {
		t.Fatal("peer primary must remain reachable")
	}
}

func TestAllSortedDeterministically(t *testing.T) {
	tb := NewTable()
	tb.Add(entry(2, 10, 20, Backup))
	tb.Add(entry(2, 10, 20, Primary))
	tb.Add(entry(1, 11, 20, Primary))
	tb.Add(entry(1, 10, 20, Primary))
	all := tb.All()
	if len(all) != 4 {
		t.Fatalf("All returned %d", len(all))
	}
	if all[0].Channel != 1 || all[0].Owner != 10 {
		t.Fatal("sort order wrong at 0")
	}
	if all[1].Channel != 1 || all[1].Owner != 11 {
		t.Fatal("sort order wrong at 1")
	}
	if all[2].Role != Primary || all[3].Role != Backup {
		t.Fatal("role tiebreak wrong")
	}
}

// referenceTable is the flat-map table this package shipped before the
// owner-indexed one, kept as the executable specification: one map keyed by
// (channel, owner, role), every per-owner query a scan and a sort of the
// whole table. (Its FixupCrash also returned the entries it marked unusable,
// which no caller read; the marks themselves are compared through All.)
type referenceKey struct {
	ch    types.ChannelID
	owner types.PID
	role  Role
}

type referenceTable map[referenceKey]*Entry

func (t referenceTable) Add(e *Entry) *Entry {
	k := referenceKey{e.Channel, e.Owner, e.Role}
	old := t[k]
	t[k] = e
	return old
}

func (t referenceTable) Lookup(ch types.ChannelID, owner types.PID, role Role) (*Entry, bool) {
	e, ok := t[referenceKey{ch, owner, role}]
	return e, ok
}

func (t referenceTable) Remove(ch types.ChannelID, owner types.PID, role Role) (*Entry, bool) {
	k := referenceKey{ch, owner, role}
	e, ok := t[k]
	delete(t, k)
	return e, ok
}

func (t referenceTable) OwnedBy(pid types.PID, role Role) []*Entry {
	var out []*Entry
	for k, e := range t {
		if k.owner == pid && k.role == role {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Channel < out[j].Channel })
	return out
}

func (t referenceTable) RemoveOwnedBy(pid types.PID, role Role) []*Entry {
	out := t.OwnedBy(pid, role)
	for _, e := range out {
		delete(t, referenceKey{e.Channel, pid, role})
	}
	return out
}

func (t referenceTable) All() []*Entry {
	out := make([]*Entry, 0, len(t))
	for _, e := range t {
		out = append(out, e)
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

func (t referenceTable) FixupCrash(crashed types.ClusterID, fullback func(types.PID) bool) {
	for _, e := range t {
		if e.PeerCluster == crashed {
			e.PeerCluster = e.PeerBackupCluster
			e.PeerBackupCluster = types.NoCluster
			if fullback(e.Peer) {
				e.Unusable = true
			}
		} else if e.PeerBackupCluster == crashed {
			e.PeerBackupCluster = types.NoCluster
			if fullback(e.Peer) {
				e.Unusable = false
			}
		}
		if e.OwnerBackupCluster == crashed {
			e.OwnerBackupCluster = types.NoCluster
		}
	}
}

// TestTableMatchesReference drives the owner-indexed table and the flat-map
// reference with the same seeded random operation streams. The two hold
// separate but equal entries, paired by a serial number in Peer's high bits
// and compared by their rendering, so FixupCrash's field rewrites are
// checked too: every result, every order and Len must agree after every
// operation.
func TestTableMatchesReference(t *testing.T) {
	const (
		seeds    = 48
		ops      = 500
		owners   = 8
		channels = 6
	)
	fullback := func(p types.PID) bool { return p%2 == 0 }
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb, ref := NewTable(), referenceTable{}
		serial := types.PID(0)
		same := func(op string, i int, got, want []*Entry) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("seed %d op %d %s: %d entries, reference has %d", seed, i, op, len(got), len(want))
			}
			for j := range got {
				if got[j].String() != want[j].String() {
					t.Fatalf("seed %d op %d %s: entry %d is %v, reference has %v", seed, i, op, j, got[j], want[j])
				}
			}
		}
		one := func(e *Entry, ok bool) []*Entry {
			if !ok || e == nil {
				return nil
			}
			return []*Entry{e}
		}
		for i := 0; i < ops; i++ {
			ch := types.ChannelID(1 + rng.Intn(channels))
			owner := types.PID(100 + rng.Intn(owners))
			role := Role(rng.Intn(2))
			switch op := rng.Intn(16); {
			case op < 6: // Add, replacing about as often as not once the table fills
				serial++
				a := entry(ch, owner, serial<<8|types.PID(rng.Intn(4)), role)
				a.PeerCluster = types.ClusterID(rng.Intn(4))
				a.PeerBackupCluster = types.ClusterID(rng.Intn(4))
				a.OwnerBackupCluster = types.ClusterID(rng.Intn(4))
				b := new(Entry)
				*b = *a
				same("Add", i, one(tb.Add(a), true), one(ref.Add(b), true))
			case op < 9:
				ge, gok := tb.Lookup(ch, owner, role)
				we, wok := ref.Lookup(ch, owner, role)
				if gok != wok {
					t.Fatalf("seed %d op %d Lookup: found=%v, reference %v", seed, i, gok, wok)
				}
				same("Lookup", i, one(ge, gok), one(we, wok))
			case op < 11:
				ge, gok := tb.Remove(ch, owner, role)
				we, wok := ref.Remove(ch, owner, role)
				if gok != wok {
					t.Fatalf("seed %d op %d Remove: found=%v, reference %v", seed, i, gok, wok)
				}
				same("Remove", i, one(ge, gok), one(we, wok))
			case op < 13:
				same("OwnedBy", i, tb.OwnedBy(owner, role), ref.OwnedBy(owner, role))
			case op < 14:
				same("RemoveOwnedBy", i, tb.RemoveOwnedBy(owner, role), ref.RemoveOwnedBy(owner, role))
			case op < 15:
				same("All", i, tb.All(), ref.All())
			default:
				crashed := types.ClusterID(rng.Intn(4))
				tb.FixupCrash(crashed, fullback)
				ref.FixupCrash(crashed, fullback)
				same("All after FixupCrash", i, tb.All(), ref.All())
			}
			if tb.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len %d, reference %d", seed, i, tb.Len(), len(ref))
			}
		}
		same("final All", ops, tb.All(), ref.All())
	}
}

// TestConsumedMessagesAreCollectable is the dead-pointer regression: once a
// message is read or discarded the queue's backing array must not keep
// its payload reachable. Re-slicing from the front did. Slots hold message
// values, so the finalizers watch the payloads.
func TestConsumedMessagesAreCollectable(t *testing.T) {
	e := entry(1, 10, 20, Primary)
	var freed atomic.Int32
	const n = 8
	for i := 0; i < n; i++ {
		payload := new([1024]byte)
		runtime.SetFinalizer(payload, func(*[1024]byte) { freed.Add(1) })
		e.Enqueue(&types.Message{Seq: types.Seq(i + 1), Payload: payload[:]})
	}
	e.Read()
	e.Applied(n-2, 0) // one message stays queued, so the array stays live
	for i := 0; i < 20 && freed.Load() < n-1; i++ {
		runtime.GC()
		// Finalizers run on the runtime's own goroutine and announce
		// nothing, so the count is polled.
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got != n-1 {
		t.Fatalf("%d of %d consumed messages were collected", got, n-1)
	}
	if m, ok := e.Peek(); !ok || m.Seq != n || e.QueueLen() != 1 {
		t.Fatalf("queue after consuming: front %v, len %d", m, e.QueueLen())
	}
	runtime.KeepAlive(e)
}

// TestQueueReusesItsArray checks the two ways a head-indexed queue stops
// growing: draining restarts it at the array's start, and a queue that
// never quite drains slides its live part down instead of re-allocating.
func TestQueueReusesItsArray(t *testing.T) {
	var q Queue
	next, want := types.Seq(0), types.Seq(0)
	push := func() { next++; q.Push(msg(next)) }
	pop := func() {
		t.Helper()
		want++
		if q.Len() == 0 || q.Live()[0].Seq != want {
			t.Fatalf("front of %v, want seq %d", q.Live(), want)
		}
		q.Drop(1)
	}
	for i := 0; i < 4; i++ {
		push()
	}
	for i := 0; i < 4; i++ {
		pop()
	}
	if q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("drained queue did not reset: head %d len %d", q.head, len(q.buf))
	}
	// Ping-pong with one message always left behind: 10 000 messages must
	// pass through a bounded array.
	push()
	for i := 0; i < 10000; i++ {
		push()
		pop()
	}
	if c := cap(q.buf); c > 16 {
		t.Fatalf("array grew to %d slots for a queue never longer than 2", c)
	}
	for i := range q.buf[:q.head] {
		if q.buf[i].Payload != nil {
			t.Fatal("consumed slot still holds its message's payload")
		}
	}
	push()
	if all := q.Take(); len(all) != 2 || q.Len() != 0 {
		t.Fatalf("Take = %v, %d left", all, q.Len())
	}
}

// TestQueueAlloc: a slot Alloc hands out is zeroed, also where a consumed
// message lived, and messages built in their slots keep FIFO order with
// pushed ones through both ways the array makes room: sliding the live part
// down, and growing.
func TestQueueAlloc(t *testing.T) {
	var q Queue
	next, front := types.Seq(0), types.Seq(1)
	add := func() {
		t.Helper()
		next++
		if next%2 == 0 {
			q.Push(msg(next))
			return
		}
		m := q.Alloc()
		if !reflect.DeepEqual(*m, types.Message{}) {
			t.Fatalf("Alloc for seq %d returned a slot holding %+v", next, *m)
		}
		m.Kind, m.Seq, m.Payload = types.KindData, next, []byte{byte(next)}
	}
	check := func(what string) {
		t.Helper()
		live := q.Live()
		if len(live) != int(next-front+1) {
			t.Fatalf("%s: %d live messages, want seqs %d..%d", what, len(live), front, next)
		}
		for i := range live {
			if want := front + types.Seq(i); live[i].Seq != want || live[i].Payload[0] != byte(want) {
				t.Fatalf("%s: live[%d] is seq %d, want %d", what, i, live[i].Seq, want)
			}
		}
	}
	drop := func(n int) { q.Drop(n); front += types.Seq(n) }

	// Growing from empty, Alloc and Push alternating.
	for i := 0; i < 5; i++ {
		add()
		check("growing from empty")
	}
	// Drained: the array restarts at its start, every slot reused.
	drop(q.Len())
	for i := 0; i < 5; i++ {
		add()
	}
	check("reusing a drained array")

	// Full, with at least half of it consumed: the live part slides down.
	for len(q.buf) < cap(q.buf) {
		add()
	}
	c := cap(q.buf)
	drop(c/2 + 1)
	add()
	if q.head != 0 || cap(q.buf) != c {
		t.Fatalf("slide: head %d, cap %d; want 0 and %d", q.head, cap(q.buf), c)
	}
	check("sliding down")

	// Full, with less than half consumed: the array grows.
	for len(q.buf) < cap(q.buf) {
		add()
	}
	drop(1)
	add()
	if cap(q.buf) <= c {
		t.Fatalf("grow: cap %d, want more than %d", cap(q.buf), c)
	}
	check("growing with a consumed slot")
}

// TestQueueRetain: Retain keeps the messages it is told to, in order, as
// rewritten in place, and clears the slots it vacates; keeping none resets
// the queue to its array's start.
func TestQueueRetain(t *testing.T) {
	var q Queue
	for seq := types.Seq(1); seq <= 6; seq++ {
		q.Push(msg(seq))
	}
	q.Drop(1)
	q.Retain(func(m *types.Message) bool {
		m.Route.Dst = types.ClusterID(m.Seq)
		return m.Seq%2 == 0
	})
	var got []types.Seq
	for _, m := range q.Live() {
		if m.Route.Dst != types.ClusterID(m.Seq) {
			t.Fatalf("seq %d kept without its rewrite", m.Seq)
		}
		got = append(got, m.Seq)
	}
	if !reflect.DeepEqual(got, []types.Seq{2, 4, 6}) {
		t.Fatalf("kept %v, want [2 4 6]", got)
	}
	if tail := q.buf[len(q.buf):cap(q.buf)]; len(tail) < 2 || tail[0].Payload != nil || tail[1].Payload != nil {
		t.Fatal("a slot Retain vacated still holds a payload")
	}
	q.Retain(func(*types.Message) bool { return false })
	if q.Len() != 0 || q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("nothing kept: len %d, head %d, buf %d", q.Len(), q.head, len(q.buf))
	}
}
