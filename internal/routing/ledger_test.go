package routing

import (
	"fmt"
	"slices"
	"testing"

	"auragen/internal/types"
)

// The §5.4 ledger of one channel, checked whole: S writes to R, both backed
// up, so the channel is four real entries — S's and R's primary ends and
// their backup ends. ledgerWorld drives them the way the kernels do and keeps
// a reference model beside them: positions in S's and R's deterministic
// executions, and how many of S's messages the bus has carried.

const (
	ledgerS, ledgerR types.PID       = 101, 102
	ledgerCh         types.ChannelID = 7
)

// The operations. S's writes and sync captures go onto its outgoing queue,
// which the bus empties in FIFO order one message per opTransmit; a crash of
// S's cluster loses whatever is still queued there — every truncation of a
// transmitted batch. R's syncs are applied at once: nothing of R's is in
// flight that the model needs.
const (
	opWrite    = 'w' // S writes: dropped as a re-send, or queued
	opTransmit = 't' // the bus delivers the head of S's outgoing queue
	opSyncS    = 's' // S captures a sync onto its outgoing queue
	opRead     = 'r' // R reads
	opSyncR    = 'y' // R syncs
	opCrashS   = 'S' // S's cluster fails: S's backup is promoted and replays
	opCrashR   = 'R' // R's cluster fails: R's backup is promoted and replays
)

var ledgerOps = []byte{opWrite, opTransmit, opSyncS, opRead, opSyncR, opCrashS, opCrashR}

// pending is one item on S's outgoing queue: message idx, or a sync capture
// of S's write position and re-send debt.
type pending struct {
	sync      bool
	idx       uint32
	pos, debt uint32
}

type ledgerWorld struct {
	sP, sB, rP, rB *Entry
	out            []pending
	budget         uint32 // S's PCB.suppressTotal
	crashed        bool

	// The reference model.
	ws, wsSynced  uint32 // S's writes executed; its position at its backup's last applied sync
	h             uint32 // S's messages the bus has carried: the next index to transmit
	rpos, rSynced uint32 // R's reads; its position at its backup's last applied sync
	suppressed    int    // re-sends dropped, for the coverage count
}

func newLedgerWorld() *ledgerWorld {
	end := func(owner, peer types.PID, role Role) *Entry {
		return &Entry{Channel: ledgerCh, Owner: owner, Peer: peer, Role: role}
	}
	return &ledgerWorld{
		sP: end(ledgerS, ledgerR, Primary), sB: end(ledgerS, ledgerR, Backup),
		rP: end(ledgerR, ledgerS, Primary), rB: end(ledgerR, ledgerS, Backup),
	}
}

func (w *ledgerWorld) clone() *ledgerWorld {
	c := *w
	c.sP, c.sB, c.rP, c.rB = cloneEntry(w.sP), cloneEntry(w.sB), cloneEntry(w.rP), cloneEntry(w.rB)
	c.out = slices.Clone(w.out)
	return &c
}

func cloneEntry(e *Entry) *Entry {
	c := *e
	c.queue = Queue{buf: slices.Clone(e.queue.Live())}
	return &c
}

// image is the new backup a fullback's promotion ships before the promoted
// primary runs (kernel.sendBackupImageLocked): the saved queue, and the
// write count as the image's Writes.
func image(e *Entry) *Entry {
	b := &Entry{Channel: e.Channel, Owner: e.Owner, Peer: e.Peer, Role: Backup}
	q := e.Queued()
	for i := range q {
		b.Enqueue(&q[i])
	}
	b.Applied(0, e.Unsent())
	return b
}

// applies reports whether op can happen next.
func (w *ledgerWorld) applies(op byte) bool {
	switch op {
	case opTransmit:
		return len(w.out) > 0
	case opRead:
		return w.rP.QueueLen() > 0
	case opCrashS, opCrashR:
		return !w.crashed
	}
	return true
}

// step performs op on the entries as the kernels do, and checks the step's
// own outcome against the model.
func (w *ledgerWorld) step(op byte) error {
	switch op {
	case opWrite: // kernel.writeLocked
		idx := w.ws
		w.ws++
		if w.sP.Resend() {
			w.budget--
			w.suppressed++
			if idx >= w.h {
				return fmt.Errorf("write %d dropped as a re-send, but only %d escaped", idx, w.h)
			}
			return nil
		}
		if idx < w.h {
			return fmt.Errorf("write %d sent again: it escaped before the crash", idx)
		}
		w.out = append(w.out, pending{idx: idx})
	case opTransmit:
		m := w.out[0]
		w.out = w.out[1:]
		if m.sync { // kernel.dispatchSync at S's backup
			w.sB.Applied(0, m.debt)
			w.wsSynced = m.pos
			break
		}
		// One bus delivery reaches all three roles (§5.1).
		msg := &types.Message{Kind: types.KindData, Channel: ledgerCh, Src: ledgerS, Dst: ledgerR,
			Seq: types.Seq(m.idx + 1), Payload: []byte{byte(m.idx)}}
		w.rP.Enqueue(msg)
		w.rB.Enqueue(msg)
		w.sB.Count()
		w.h++
	case opSyncS: // kernel.syncProcessLocked: one critical section
		w.sP.Synced()
		w.out = append(w.out, pending{sync: true, pos: w.ws, debt: w.sP.Unsent()})
	case opRead:
		p, _ := w.rP.Read()
		if got := uint32(p[0]); got != w.rpos {
			return fmt.Errorf("R read message %d at position %d", got, w.rpos)
		}
		w.rpos++
	case opSyncR:
		reads := w.rP.Synced()
		if reads != w.rpos-w.rSynced {
			return fmt.Errorf("R's sync reports %d reads, R made %d", reads, w.rpos-w.rSynced)
		}
		w.rB.Applied(reads, w.rP.Unsent())
		w.rSynced = w.rpos
	case opCrashS: // kernel.promoteLocked; S restarts from its last applied sync
		w.crashed = true
		w.out = nil // lost with the cluster
		next := image(w.sB)
		w.budget = w.sB.Promote(3)
		if want := w.h - w.wsSynced; w.budget != want {
			return fmt.Errorf("promotion gives S a budget of %d; %d sends escaped since its last applied sync", w.budget, want)
		}
		w.sP, w.sB = w.sB, next
		w.ws = w.wsSynced
	case opCrashR:
		w.crashed = true
		next := image(w.rB)
		if n := w.rB.Promote(4); n != 0 {
			return fmt.Errorf("promotion gives R, which never wrote, a budget of %d", n)
		}
		w.rP, w.rB = w.rB, next
		w.rpos = w.rSynced
	}
	return nil
}

// check holds after every step: each backup end is what a promotion at this
// point needs, and each primary end is what the model says.
func (w *ledgerWorld) check() error {
	if got, want := w.sB.Unsent(), w.h-w.wsSynced; got != want {
		return fmt.Errorf("S's backup counts %d writes since sync; %d escaped since its last applied sync", got, want)
	}
	var debt uint32
	if w.ws < w.h {
		debt = w.h - w.ws
	}
	if w.sP.Unsent() != debt || w.budget != debt {
		return fmt.Errorf("S's re-send budget is %d on its entry and %d in total; the replay has %d escaped sends ahead", w.sP.Unsent(), w.budget, debt)
	}
	if w.rP.reads != w.rpos-w.rSynced {
		return fmt.Errorf("R's entry counts %d reads since sync; R made %d", w.rP.reads, w.rpos-w.rSynced)
	}
	if err := holds(w.rP, w.rpos, w.h); err != nil {
		return fmt.Errorf("R's input queue: %v", err)
	}
	if err := holds(w.rB, w.rSynced, w.h); err != nil {
		return fmt.Errorf("R's saved queue: %v", err)
	}
	return nil
}

// holds checks that e's queue is messages from..to-1, in order.
func holds(e *Entry, from, to uint32) error {
	q := e.Queued()
	got := make([]uint32, len(q))
	for i := range q {
		got[i] = uint32(q[i].Payload[0])
	}
	var want []uint32
	for i := from; i < to; i++ {
		want = append(want, i)
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("holds messages %v, want %v", got, want)
	}
	return nil
}

// TestLedgerAgainstReferenceModel runs every sequence of up to ledgerDepth
// operations with at most one crash. R must consume each of S's messages
// exactly once, in order, across its own replay, and S's replay must drop
// exactly the sends that escaped since its last applied sync — whatever
// prefix of its outgoing queue the crash let out. The server channel is the
// same ledger kept by a server and its active twin (§7.9).
func TestLedgerAgainstReferenceModel(t *testing.T) {
	t.Run("process channel", testProcessLedger)
	t.Run("server channel", testServerLedger)
}

func testProcessLedger(t *testing.T) {
	const ledgerDepth = 9
	var sequences, replaysS, replaysR, drops int
	var walk func(w *ledgerWorld, trail []byte)
	walk = func(w *ledgerWorld, trail []byte) {
		sequences++
		if w.crashed {
			if slices.Contains(trail, opCrashS) {
				replaysS++
			} else {
				replaysR++
			}
		}
		if w.suppressed > 0 {
			drops++
		}
		if len(trail) == ledgerDepth {
			return
		}
		for _, op := range ledgerOps {
			if !w.applies(op) {
				continue
			}
			c := w.clone()
			next := append(trail, op)
			err := c.step(op)
			if err == nil {
				err = c.check()
			}
			if err != nil {
				t.Fatalf("after %q: %v", next, err)
			}
			walk(c, next)
		}
	}
	walk(newLedgerWorld(), make([]byte, 0, ledgerDepth))
	t.Logf("%d sequences: %d after S's crash, %d after R's, %d with a re-send dropped", sequences, replaysS, replaysR, drops)
	if replaysS == 0 || replaysR == 0 || drops == 0 {
		t.Fatal("the enumeration missed a crash of either end, or never dropped a re-send")
	}
}

// serverWorld is one client channel of a server V and its active twin: V's
// primary entry vP and the twin's backup entry vB. A request is serviced at
// once and saved at the twin; its one reply goes onto V's outgoing queue
// with V's sync captures, which the bus empties in FIFO order.
type serverWorld struct {
	vP, vB  *Entry
	out     []pending
	crashed bool

	// The reference model: requests serviced, serviced as of the twin's
	// last applied sync, and replies the bus has carried.
	n, nSynced, h uint32
}

// Server-channel operations, beside opTransmit.
const (
	opRequest  = 'q' // the bus carries the client's next request
	opSyncV    = 'v' // V captures a server sync onto its outgoing queue
	opCrashV   = 'V' // V's cluster fails: the twin is promoted and replays
	serverPeer = ledgerS
	serverPID  = ledgerR
)

var serverOps = []byte{opRequest, opTransmit, opSyncV, opCrashV}

func (w *serverWorld) clone() *serverWorld {
	c := *w
	c.vP, c.vB = cloneEntry(w.vP), cloneEntry(w.vB)
	c.out = slices.Clone(w.out)
	return &c
}

func (w *serverWorld) applies(op byte) bool {
	if w.crashed {
		return false
	}
	return op != opTransmit || len(w.out) > 0
}

// step performs op as the kernels do (kernel.serviceLocked, ServerCtx.Sync,
// dispatchServerSync, promoteServerLocked and ServerCtx.Reply).
func (w *serverWorld) step(op byte) error {
	switch op {
	case opRequest:
		msg := &types.Message{Kind: types.KindData, Channel: ledgerCh, Src: serverPeer, Dst: serverPID,
			Seq: types.Seq(w.n + 1), Payload: []byte{byte(w.n)}}
		w.vB.Enqueue(msg)
		w.vP.Enqueue(msg)
		if p, _ := w.vP.Read(); uint32(p[0]) != w.n {
			return fmt.Errorf("V serviced request %d at position %d", p[0], w.n)
		}
		w.out = append(w.out, pending{idx: w.n})
		w.n++
	case opTransmit:
		m := w.out[0]
		w.out = w.out[1:]
		if m.sync {
			if d := w.vB.Applied(m.debt, 0); d != m.debt {
				return fmt.Errorf("the twin discarded %d of the %d requests the sync covers", d, m.debt)
			}
			w.nSynced = m.pos
			break
		}
		w.vB.Count()
		w.h++
	case opSyncV:
		// A server sync carries reads (its Discards) where a process sync
		// carries a debt.
		w.out = append(w.out, pending{sync: true, pos: w.n, debt: w.vP.Synced()})
	case opCrashV:
		w.crashed = true
		w.out = nil
		budget := w.vB.Promote(types.NoCluster)
		if want := w.h - w.nSynced; budget != want {
			return fmt.Errorf("the promoted twin's budget is %d; %d replies escaped since its last applied sync", budget, want)
		}
		for _, m := range w.vB.Take() {
			idx := uint32(m.Payload[0])
			if dropped := w.vB.Resend(); dropped != (idx < w.h) {
				return fmt.Errorf("replayed request %d's reply dropped=%v; %d replies had escaped", idx, dropped, w.h)
			}
		}
	}
	return nil
}

// check holds after every step before the crash: the twin saves exactly the
// requests since its last applied sync and counts the replies since.
func (w *serverWorld) check() error {
	if w.crashed {
		return nil
	}
	if err := holds(w.vB, w.nSynced, w.n); err != nil {
		return fmt.Errorf("the twin's saved queue: %v", err)
	}
	if got, want := w.vB.Unsent(), w.h-w.nSynced; got != want {
		return fmt.Errorf("the twin counts %d replies since sync; %d escaped", got, want)
	}
	return nil
}

func testServerLedger(t *testing.T) {
	const depth = 10
	var sequences, drops int
	var walk func(w *serverWorld, trail []byte)
	walk = func(w *serverWorld, trail []byte) {
		sequences++
		if w.crashed && w.h > w.nSynced {
			drops++
		}
		if len(trail) == depth {
			return
		}
		for _, op := range serverOps {
			if !w.applies(op) {
				continue
			}
			c := w.clone()
			next := append(trail, op)
			err := c.step(op)
			if err == nil {
				err = c.check()
			}
			if err != nil {
				t.Fatalf("after %q: %v", next, err)
			}
			walk(c, next)
		}
	}
	walk(&serverWorld{
		vP: &Entry{Channel: ledgerCh, Owner: serverPID, Peer: serverPeer, Role: Primary},
		vB: &Entry{Channel: ledgerCh, Owner: serverPID, Peer: serverPeer, Role: Backup},
	}, make([]byte, 0, depth))
	t.Logf("%d sequences, %d promotions with a reply to drop", sequences, drops)
	if drops == 0 {
		t.Fatal("the enumeration never promoted the twin with a reply to drop")
	}
}
