package kernel

import (
	"fmt"
	"time"

	"auragen/internal/guest"
	"auragen/internal/memory"
	"auragen/internal/routing"
	"auragen/internal/trace"
	"auragen/internal/types"
	"auragen/internal/wire"
)

// Proc is the kernel's implementation of the guest.API syscall surface. One
// Proc serves one process goroutine; it is not safe for concurrent use by
// multiple goroutines, matching the single thread of control of a UNIX
// process.
type Proc struct {
	k *Kernel
	p *PCB
}

var _ guest.API = (*Proc)(nil)

// PID implements guest.API.
func (pr *Proc) PID() types.PID { return pr.p.pid }

// Args implements guest.API.
func (pr *Proc) Args() []byte { return pr.p.args }

// Recovered implements guest.API.
func (pr *Proc) Recovered() bool { return pr.p.recovered }

// Space implements guest.API.
func (pr *Proc) Space() *memory.AddressSpace { return pr.p.space }

// Tick implements guest.API.
func (pr *Proc) Tick(n uint64) {
	pr.k.mu.Lock()
	pr.p.ticksSinceSync += n
	pr.k.mu.Unlock()
}

// IgnoreSignal implements guest.API.
func (pr *Proc) IgnoreSignal(sig types.Signal, ignore bool) error {
	pr.k.mu.Lock()
	defer pr.k.mu.Unlock()
	if ignore {
		pr.p.sigIgnore[sig] = true
	} else {
		delete(pr.p.sigIgnore, sig)
	}
	return nil
}

// Write implements guest.API (§7.4.2: the message is placed on the
// cluster's outgoing queue and the call returns). The message stays queued
// until the process next blocks, reaches a sync point or exits, unless it is
// the one that fills a batch.
func (pr *Proc) Write(fd types.FD, data []byte) error {
	k, p := pr.k, pr.p
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.writeLocked(p, fd, types.KindData, data)
}

// writeLocked routes one outgoing message, applying the §5.4 redundant-send
// suppression: if the channel's entry has re-send budget left, the failed
// primary already sent the message, so a unit is spent and it is discarded.
func (k *Kernel) writeLocked(p *PCB, fd types.FD, kind types.Kind, data []byte) error {
	ch, ok := p.fds[fd]
	if !ok {
		return fmt.Errorf("kernel: %s fd %d: %w", p.pid, fd, types.ErrBadFD)
	}
	e, ok := k.table.Lookup(ch, p.pid, routing.Primary)
	if !ok || e.Closed {
		return fmt.Errorf("kernel: %s %s: %w", p.pid, ch, types.ErrChannelClosed)
	}
	// A fullback peer that lost its backup is unusable until its new
	// backup is announced (§7.10.1).
	if e.Unusable {
		if err := k.waitLocked(p, func() bool { return !e.Unusable }); err != nil {
			return err
		}
	}
	if e.Resend() {
		p.suppressTotal--
		if p.suppressTotal == 0 {
			k.dir.Notify() // the roll-forward caught up: EstablishBackup may go ahead
		}
		k.metrics.SuppressedSends.Add(1)
		if k.log != nil {
			// The hash pairs this suppression with the EvTransmit of the
			// original send by the failed primary.
			k.log.Append(trace.Event{
				Kind:    trace.EvSuppress,
				Cluster: k.id,
				MsgKind: kind,
				PID:     p.pid,
				Channel: ch,
				Arg:     trace.HashPayload(data),
			})
		}
		return nil
	}
	// The message is built in its outgoing slot; only the copy of the
	// guest's bytes is its own allocation.
	msg := k.queueLocked()
	msg.Kind, msg.Channel, msg.Src, msg.Dst, msg.Route = kind, ch, p.pid, e.Peer, e.Route()
	msg.Payload = make([]byte, len(data))
	copy(msg.Payload, data)
	// Piggyback pending nondeterministic-event results (§10): the copy
	// at the sender's backup logs them.
	if len(p.nondetPending) > 0 && msg.Route.SrcBackup != types.NoCluster {
		msg.Nondet = p.nondetPending
		p.nondetPending = nil
	}
	if k.outgoing.Len() >= DefaultTxBatch {
		k.transmitLocked()
	}
	return nil
}

// Read implements guest.API: block until a message arrives on fd (§7.5.1:
// reads are synchronous; a read cannot return "no message found" because
// the backup on roll-forward might not find its queue in the same state).
func (pr *Proc) Read(fd types.FD) ([]byte, error) {
	return pr.read(fd, true)
}

// read implements Read; gated selects whether this call is an
// establishment pause point (true for direct guest reads by read-safe
// guests; false for the reply half of Call, whose request half has already
// escaped and must not be re-executed by a replay from a pause here).
func (pr *Proc) read(fd types.FD, gated bool) ([]byte, error) {
	k, p := pr.k, pr.p
	k.mu.Lock()
	defer k.mu.Unlock()
	ch, ok := p.fds[fd]
	if !ok {
		return nil, fmt.Errorf("kernel: %s fd %d: %w", p.pid, fd, types.ErrBadFD)
	}
	var payload []byte
	for read := false; !read; {
		// For guests whose reads are state-capturable points (the VM),
		// a read is also an establishment pause point.
		if gated && p.readSafe && (p.establishing || p.establishSyncPending) {
			if _, err := k.establishGateLocked(p); err != nil {
				return nil, err
			}
			continue
		}
		interrupted := false
		err := k.waitLocked(p, func() bool {
			if gated && p.readSafe && (p.establishing || p.establishSyncPending) {
				interrupted = true
				return true
			}
			e, ok := k.table.Lookup(ch, p.pid, routing.Primary)
			if !ok {
				return false
			}
			if payload, read = e.Read(); !read {
				return false
			}
			p.readsSinceSync++
			p.totalReads++
			return true
		})
		if err != nil {
			return nil, err
		}
		if interrupted {
			continue
		}
	}
	return payload, nil
}

// ReadAny implements guest.API: the bunch/which multiplexed read (§7.5.1).
// Arrival sequence numbers make the choice deterministic and replicable by
// the backup.
func (pr *Proc) ReadAny(fds []types.FD) (types.FD, []byte, error) {
	k, p := pr.k, pr.p
	k.mu.Lock()
	defer k.mu.Unlock()
	var gotFD types.FD
	var payload []byte
	err := k.waitLocked(p, func() bool {
		fd, e := lowestSeq(p, k.table.OwnedBy(p.pid, routing.Primary), fds)
		if e == nil {
			return false
		}
		payload, _ = e.Read()
		p.readsSinceSync++
		p.totalReads++
		gotFD = fd
		return true
	})
	if err != nil {
		return types.NoFD, nil, err
	}
	return gotFD, payload, nil
}

// lowestSeq finds the open descriptor among fds whose head message has the
// lowest arrival sequence number. entries is the process's primary entries
// (one table access per call, not one per descriptor); the caller holds the
// kernel mutex.
func lowestSeq(p *PCB, entries []*routing.Entry, fds []types.FD) (types.FD, *routing.Entry) {
	var bestFD types.FD = types.NoFD
	var bestEntry *routing.Entry
	var bestSeq types.Seq
	for _, fd := range fds {
		ch, ok := p.fds[fd]
		if !ok {
			continue
		}
		e, ok := routing.Find(entries, ch)
		if !ok {
			continue
		}
		if m, ok := e.Peek(); ok && (bestEntry == nil || m.Seq < bestSeq) {
			bestFD, bestEntry, bestSeq = fd, e, m.Seq
		}
	}
	return bestFD, bestEntry
}

// Call implements guest.API: a write requiring an answer cannot return
// until that answer arrives (§7.5.1).
func (pr *Proc) Call(fd types.FD, req []byte) ([]byte, error) {
	if err := pr.Write(fd, req); err != nil {
		return nil, err
	}
	return pr.read(fd, false)
}

// callKind is Call with an explicit message kind (open requests).
func (pr *Proc) callKind(fd types.FD, kind types.Kind, req []byte) ([]byte, error) {
	k, p := pr.k, pr.p
	k.mu.Lock()
	err := k.writeLocked(p, fd, kind, req)
	k.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return pr.read(fd, false)
}

// Open implements guest.API (§7.4.1): an open request travels on the
// preexisting file-server channel; the reply creates the routing entries
// and is paired with a fresh descriptor.
func (pr *Proc) Open(name string) (types.FD, error) {
	k, p := pr.k, pr.p
	k.mu.Lock()
	backup := p.backupCluster // crash handling rewrites it under k.mu
	k.mu.Unlock()
	req := &OpenRequest{
		Opener:              p.pid,
		Name:                name,
		OpenerCluster:       k.id,
		OpenerBackupCluster: backup,
	}
	replyBytes, err := pr.callKind(0, types.KindOpenRequest, Encode(req))
	if err != nil {
		return types.NoFD, err
	}
	reply, err := Decode[OpenReply](replyBytes)
	if err != nil {
		return types.NoFD, err
	}
	if reply.Err != "" {
		return types.NoFD, fmt.Errorf("kernel: open %q: %s", name, reply.Err)
	}

	return pr.bindChannel(reply)
}

// bindChannel installs the routing entry for a freshly opened or accepted
// channel and assigns the next descriptor.
func (pr *Proc) bindChannel(reply *OpenReply) (types.FD, error) {
	k, p := pr.k, pr.p
	k.mu.Lock()
	defer k.mu.Unlock()
	// The entry normally exists already (created when the open reply was
	// dispatched); create it defensively otherwise.
	if _, ok := k.table.Lookup(reply.Channel, p.pid, routing.Primary); !ok {
		peerCluster, peerBackup := k.freshPeerLoc(reply)
		k.table.Add(&routing.Entry{
			Channel:            reply.Channel,
			Owner:              p.pid,
			Peer:               reply.Peer,
			Role:               routing.Primary,
			PeerCluster:        peerCluster,
			PeerBackupCluster:  peerBackup,
			OwnerBackupCluster: p.backupCluster,
			PeerIsServer:       reply.PeerIsServer,
		})
	}
	fd := p.nextFD
	p.nextFD++
	p.fds[fd] = reply.Channel
	p.fdOrder = nil
	return fd, nil
}

// Accept implements guest.API: bind the channel announced by an accept
// notice (an open reply delivered on a listening channel) to a fresh
// descriptor.
func (pr *Proc) Accept(notice []byte) (types.FD, error) {
	reply, err := Decode[OpenReply](notice)
	if err != nil {
		return types.NoFD, err
	}
	if reply.Err != "" {
		return types.NoFD, fmt.Errorf("kernel: accept: %s", reply.Err)
	}
	return pr.bindChannel(reply)
}

// Close implements guest.API. The entry is removed locally and reported in
// the next sync message so the backup removes its entry too (§7.8).
func (pr *Proc) Close(fd types.FD) error {
	k, p := pr.k, pr.p
	k.mu.Lock()
	defer k.mu.Unlock()
	ch, ok := p.fds[fd]
	if !ok {
		return fmt.Errorf("kernel: %s fd %d: %w", p.pid, fd, types.ErrBadFD)
	}
	delete(p.fds, fd)
	p.fdOrder = nil
	k.table.Remove(ch, p.pid, routing.Primary)
	p.closedSinceSync = append(p.closedSinceSync, ch)
	return nil
}

// NextEvent implements guest.API: the deterministic main-loop input point.
//
// Rules (in order):
//  1. Ignored signals are consumed immediately and counted as reads
//     (§7.5.2). They are NOT counted as guest-visible input events
//     (totalReads): their consumption timing is scheduler-dependent and
//     invisible to the guest, so a decision-log position that counted
//     them would be unmatchable on replay.
//  2. If the last capture or decision recorded "a signal is next"
//     (signalNext), deliver it first — this reproduces the primary's
//     handling point exactly.
//     2a. (llft roll-forward) If a signal plan is installed and the input
//     position has reached its head, replay the pinned delivery — even
//     while suppression counts remain: sends the dead leader's decision
//     let escape may sit BEHIND this delivery in the regeneration order,
//     so holding the signal back would deadlock the replay. If the pinned
//     signal has not arrived yet (an in-flight straggler), wait rather
//     than let a later input overtake the pinned position.
//  3. Otherwise a pending unignored signal is pinned just prior to
//     handling, per the policy: a forced capture (threeway §7.5.2, and
//     msglog), or a streamed decision-log entry pinning the position with
//     no state capture (llft). Not while roll-forward suppression counts
//     remain, because the escaped send prefix must be regenerated from the
//     same read sequence the primary executed before signals may reorder
//     it. If a recorded decision is lost with its leader, outgoing FIFO
//     order guarantees nothing sent after the delivery escaped either, so
//     the promoted follower re-deciding at a different position is
//     externally unobservable.
//  4. Otherwise deliver the lowest-arrival-sequence message across all
//     open channels (bunch/which semantics, §7.5.1).
func (pr *Proc) NextEvent() (guest.Event, error) {
	k, p := pr.k, pr.p
	k.mu.Lock()
	defer k.mu.Unlock()

	for {
		if p.crashed || k.crashed {
			return guest.Event{}, types.ErrCrashed
		}
		if k.stopped {
			return guest.Event{}, types.ErrShutdown
		}
		if k.degraded {
			return guest.Event{}, types.ErrTooManyFailures
		}

		// NextEvent is a state-capturable boundary: pause here during
		// online backup establishment, and run the establishment sync
		// before consuming anything afterwards.
		if p.establishing || p.establishSyncPending {
			retry, err := k.establishGateLocked(p)
			if err != nil {
				return guest.Event{}, err
			}
			if retry {
				continue
			}
		}

		// One table access serves the whole pass: the signal channel's
		// entry and every open descriptor's are among the owner's entries.
		// Every path below that drops the lock or changes the table starts
		// the loop again.
		entries := k.table.OwnedBy(p.pid, routing.Primary)
		sigEntry, _ := routing.Find(entries, p.signalCh)

		// Rule 1: consume ignored signals.
		if sigEntry != nil {
			for {
				m, ok := sigEntry.Peek()
				if !ok {
					break
				}
				sig := decodeSignal(m.Payload)
				if !p.sigIgnore[sig] {
					break
				}
				sigEntry.Read()
				p.readsSinceSync++
			}
		}

		// Rule 2: a capture or decision recorded the signal-handling point.
		if p.signalNext {
			if sigEntry != nil {
				if sig, ok := sigEntry.Read(); ok {
					p.readsSinceSync++
					p.totalReads++
					p.signalNext = false
					return guest.Event{Signal: decodeSignal(sig), IsSignal: true}, nil
				}
			}
			p.signalNext = false
		}

		// Rule 2a: replay a planned delivery at its pinned position (llft).
		if len(p.signalPlan) > 0 {
			if p.totalReads >= p.signalPlan[0] {
				pos := p.signalPlan[0]
				if sigEntry != nil {
					if m, ok := sigEntry.Peek(); ok {
						id := m.ID
						sig, _ := sigEntry.Read()
						p.readsSinceSync++
						p.totalReads++
						p.signalPlan = p.signalPlan[1:]
						if k.log != nil {
							k.log.Append(trace.Event{
								Kind:    trace.EvReplay,
								Cluster: k.id,
								MsgID:   id,
								MsgKind: types.KindDecision,
								PID:     p.pid,
								Channel: p.signalCh,
								Arg:     pos,
							})
						}
						return guest.Event{Signal: decodeSignal(sig), IsSignal: true}, nil
					}
				}
				// Position reached but the pinned signal is still in flight:
				// block so no later input overtakes the recorded order.
				k.blockLocked(p)
				continue
			}
		} else if p.suppressTotal == 0 && sigEntry != nil && sigEntry.QueueLen() > 0 {
			// Rule 3: pin the pending signal just prior to handling.
			if k.policy.Decisions {
				// llft: stream the decision to the follower and deliver via
				// rule 2 on the next iteration. The entry rides the same
				// FIFO outgoing queue as the process's sends, which is the
				// output-commit argument above.
				dm := &DecisionMsg{PID: p.pid, Seq: p.decisionSeq, Reads: p.totalReads}
				p.decisionSeq++
				if p.backupCluster != types.NoCluster {
					m := k.queueLocked()
					m.Kind, m.Src, m.Dst, m.Lazy = types.KindDecision, p.pid, p.pid, dm
					m.Route = types.Route{Dst: p.backupCluster, DstBackup: types.NoCluster, SrcBackup: types.NoCluster}
				}
				p.signalNext = true
				continue
			}
			// threeway/msglog: force a capture; the signal is the first
			// event of the new interval.
			if err := k.syncProcessLocked(p, true); err != nil {
				return guest.Event{}, err
			}
			continue
		}

		// Rule 4: lowest-sequence message across open channels.
		if fd, e := lowestSeq(p, entries, p.openFDs()); e != nil {
			data, _ := e.Read()
			p.readsSinceSync++
			p.totalReads++
			return guest.Event{FD: fd, Data: data}, nil
		}

		k.blockLocked(p)
	}
}

// SyncPoint implements guest.API: take a periodic capture if one is due at
// the policy's CaptureScale times the process's read/tick cadence (§7.8; a
// zero scale, llft, never captures after establishment). It is also the
// universal establishment pause point — the guest has declared its state
// capturable here. Whether or not a capture was due, the process's queued
// output leaves the cluster before SyncPoint returns.
func (pr *Proc) SyncPoint() error {
	k, p := pr.k, pr.p
	k.mu.Lock()
	for p.establishing || p.establishSyncPending {
		if _, err := k.establishGateLocked(p); err != nil {
			k.mu.Unlock()
			return err
		}
	}
	var err error
	if s := k.policy.CaptureScale; s > 0 && (uint64(p.readsSinceSync) >= s*uint64(p.syncReads) || p.ticksSinceSync >= s*p.syncTicks) {
		err = k.syncProcessLocked(p, false)
	}
	k.transmitLocked()
	k.mu.Unlock()
	return err
}

// Time implements guest.API (§7.5.1: "Time sends a request via message,
// and receives its answer via message. The backup will have the same
// response available.")
func (pr *Proc) Time() (int64, error) {
	reply, err := pr.Call(1, Encode(&ProcMsg{Op: ProcOpTime}))
	if err != nil {
		return 0, err
	}
	rep, err := Decode[ProcMsg](reply)
	if err != nil || rep.Op != ProcOpTime {
		return 0, fmt.Errorf("kernel: bad time reply: %v", err)
	}
	return int64(rep.Arg), nil
}

// Alarm implements guest.API (§7.5.2).
func (pr *Proc) Alarm(d time.Duration) error {
	return pr.Write(1, Encode(&ProcMsg{Op: ProcOpAlarm, Arg: uint64(d)}))
}

// Nondet implements guest.API (§10): log-and-replay for nondeterministic
// events, piggybacked on outgoing messages.
func (pr *Proc) Nondet(compute func() uint64) (uint64, error) {
	k, p := pr.k, pr.p
	k.mu.Lock()
	if p.crashed || k.crashed {
		k.mu.Unlock()
		return 0, types.ErrCrashed
	}
	if k.degraded {
		k.mu.Unlock()
		return 0, types.ErrTooManyFailures
	}
	if len(p.nondetLog) > 0 {
		v := p.nondetLog[0]
		p.nondetLog = p.nondetLog[1:]
		k.mu.Unlock()
		return v, nil
	}
	k.mu.Unlock()
	// Run the event outside the kernel lock (it is guest code).
	v := compute()
	k.mu.Lock()
	p.nondetPending = append(p.nondetPending, v)
	k.mu.Unlock()
	return v, nil
}

// Fork implements guest.API (§7.7).
func (pr *Proc) Fork(program string, args []byte) (types.PID, error) {
	k, p := pr.k, pr.p
	k.mu.Lock()
	defer k.mu.Unlock()
	if p.crashed || k.crashed {
		return types.NoPID, types.ErrCrashed
	}
	if k.degraded {
		return types.NoPID, types.ErrTooManyFailures
	}
	return k.forkLocked(p, program, args)
}

// decodeSignal extracts the signal number from a KindSignal message payload.
func decodeSignal(payload []byte) types.Signal {
	if len(payload) == 0 {
		return types.SigNone
	}
	return types.Signal(payload[0])
}

// Process-server request ops, shared by the kernel syscalls and the
// process server implementation.
const (
	// ProcOpTime asks for the current time in nanoseconds.
	ProcOpTime uint8 = 1
	// ProcOpAlarm schedules a SigAlarm after the given number of
	// nanoseconds.
	ProcOpAlarm uint8 = 2
	// ProcOpWhere asks for the cluster currently hosting a pid.
	ProcOpWhere uint8 = 3
	// ProcOpCount asks for the number of known processes.
	ProcOpCount uint8 = 4
)

// ProcMsg is a process-server request (Arg is the op's argument) or reply
// (Arg is its result).
type ProcMsg struct {
	Op  uint8
	Arg uint64
}

func (m *ProcMsg) codec(c *wire.Codec) {
	c.U8(&m.Op)
	c.U64(&m.Arg)
}
