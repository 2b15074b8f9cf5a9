package types

import (
	"fmt"

	"auragen/internal/wire"
)

// Kind discriminates message types carried over the intercluster bus.
//
// User data and server protocols ride KindData on ordinary channels; the
// remaining kinds are kernel-to-kernel traffic (sync messages, birth
// notices, crash notices, page traffic) exactly as in §5–§7 of the paper.
type Kind uint8

const (
	// KindInvalid is the zero value; never transmitted.
	KindInvalid Kind = iota

	// KindData is an ordinary interprocess message written on a channel.
	KindData

	// KindOpenRequest asks a file server to open a name (file or channel
	// rendezvous); carried on a preexisting channel to the server (§7.4.1).
	KindOpenRequest

	// KindOpenReply is sent by the file server to the opener and its
	// backup; its arrival at the backup cluster creates the backup routing
	// table entry (§7.4.1).
	KindOpenReply

	// KindSync is the synchronization message sent directly to the kernel
	// of the backup's cluster, the page server, and the page server's
	// backup (§5.2, §7.8).
	KindSync

	// KindBirthNotice is sent to the cluster of the forking process's
	// backup on fork; it creates backup routing entries for channels made
	// by the fork and records the child's global pid (§7.7).
	KindBirthNotice

	// KindSignal carries an asynchronous signal, queued on the target
	// process's signal channel (§7.5.2).
	KindSignal

	// KindPageOut carries one modified page from a syncing primary to the
	// page server (§7.6).
	KindPageOut

	// KindPageRequest asks the page server for pages of a backup account
	// during recovery.
	KindPageRequest

	// KindPageReply returns pages from the page server.
	KindPageReply

	// KindCrashNotice announces that a cluster has crashed. It is
	// broadcast through the bus so that every surviving kernel processes
	// the same prefix of messages before beginning crash handling
	// (§7.10.1).
	KindCrashNotice

	// KindBackupUp announces the creation and location of a new backup
	// for a fullback, unblocking channels marked unusable during crash
	// handling (§7.10.1).
	KindBackupUp

	// KindServerSync is the explicit, application-level sync a peripheral
	// server sends to its active backup (§7.9).
	KindServerSync

	// Reserved: the retired kernel load report. The slot stays so every
	// later kind keeps its wire number.
	_

	// KindHeartbeat is the failure detector's liveness probe (§7.10:
	// "Periodic polling of every cluster will discover the shutdown").
	KindHeartbeat

	// KindExitNotice announces that a process exited, so its backup state
	// and page accounts can be reclaimed.
	KindExitNotice

	// KindBackupCreate carries the complete backup image (state, saved
	// queues, counts) used to create a new backup for a fullback before
	// its new primary begins executing (§7.3, §7.10.1).
	KindBackupCreate

	// KindBackupAck acknowledges that a kernel has processed a BackupUp
	// notice; the online backup-establishment protocol for halfbacks
	// collects one from every live cluster before resuming the primary
	// (§7.3: halfbacks get new backups when the original cluster returns
	// to service).
	KindBackupAck

	// KindDecision is a leader-follower (llft policy) decision-log entry:
	// the leader pins the input position at which it chose to take a queued
	// asynchronous signal, so the follower replays the same interleaving
	// during crash promotion instead of relying on write suppression.
	KindDecision

	// Reserved: the retired full-image checkpoint manifest (a full image
	// now travels as KindSync). The slot keeps KindMark's wire number.
	_

	// KindMark is core's bus-ordered marker (Origin NoCluster, reaching
	// every live cluster). A kernel records the highest mark it has
	// dispatched, so a mark is a barrier: everything ordered before it has
	// been dispatched where it has. Repair cuts the page-server resilver at
	// one (Chandy–Lamport with a single marker), and Settle waits on them.
	KindMark
)

func (k Kind) String() string {
	switch k {
	case KindInvalid:
		return "invalid"
	case KindData:
		return "data"
	case KindOpenRequest:
		return "open-request"
	case KindOpenReply:
		return "open-reply"
	case KindSync:
		return "sync"
	case KindBirthNotice:
		return "birth-notice"
	case KindSignal:
		return "signal"
	case KindPageOut:
		return "page-out"
	case KindPageRequest:
		return "page-request"
	case KindPageReply:
		return "page-reply"
	case KindCrashNotice:
		return "crash-notice"
	case KindBackupUp:
		return "backup-up"
	case KindServerSync:
		return "server-sync"
	case KindHeartbeat:
		return "heartbeat"
	case KindExitNotice:
		return "exit-notice"
	case KindBackupCreate:
		return "backup-create"
	case KindBackupAck:
		return "backup-ack"
	case KindDecision:
		return "decision"
	case KindMark:
		return "mark"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Route carries the cluster addresses a message must reach. The executive
// processor transmits the message once; every cluster whose address appears
// here picks it up (§7.4.2). NoCluster entries are skipped.
type Route struct {
	// Dst is the cluster of the primary destination process.
	Dst ClusterID
	// DstBackup is the cluster of the destination's backup, where the
	// message is queued and saved.
	DstBackup ClusterID
	// SrcBackup is the cluster of the sender's backup, where a
	// writes-since-sync count is incremented and the message discarded.
	SrcBackup ClusterID
}

// Targets returns the distinct live destination clusters in a fixed order.
func (r Route) Targets() []ClusterID {
	return r.AppendTargets(make([]ClusterID, 0, 3))
}

// AppendTargets appends the distinct delivery targets to dst and returns
// the result — the allocation-free form of Targets for hot paths, which
// pass a stack-backed buffer.
func (r Route) AppendTargets(dst []ClusterID) []ClusterID {
	for _, c := range [3]ClusterID{r.Dst, r.DstBackup, r.SrcBackup} {
		if c == NoCluster {
			continue
		}
		dup := false
		for _, seen := range dst {
			if seen == c {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, c)
		}
	}
	return dst
}

// Message is the unit of interprocess and kernel-to-kernel communication.
// One Message is transmitted once over the bus and interpreted differently
// at each destination cluster depending on whether that cluster hosts the
// primary destination, the destination's backup, or the sender's backup
// (§5.1).
type Message struct {
	// ID is the bus-minted monotonic transmission ID, assigned once per
	// transmission and shared by every per-cluster copy of it.
	// Zero until the bus accepts the message. Trace events carry it so the
	// causal history of one message can be followed across clusters.
	ID uint64

	Kind Kind
	// Channel is the channel the message was written on (KindData,
	// KindSignal, KindOpenReply); NoChannel for kernel-to-kernel kinds.
	Channel ChannelID
	// Src and Dst are the sending and receiving processes. Kernel-to-
	// kernel messages may leave these as NoPID or use Dst to name the
	// process the message concerns (e.g. the backup being synced).
	Src PID
	Dst PID
	// Route lists the clusters that must receive the transmission.
	Route Route
	// Origin is the cluster whose executive transmitted the message, and
	// Inc that cluster's incarnation at transmit time. Receivers fence
	// messages whose Inc is stale for Origin — the stamp is what makes a
	// superseded primary's traffic inert after a wrongful promotion.
	// Origin NoCluster / Inc 0 marks unfenced control traffic (core
	// facade, detector) that carries no cluster identity.
	Origin ClusterID
	Inc    Incarnation
	// Seq is assigned by the receiving kernel on arrival (cluster-local,
	// monotone). Zero until delivery.
	Seq Seq
	// Payload is the message body. Kernel kinds encode structured payloads
	// with package wire.
	Payload []byte
	// Nondet piggybacks the results of nondeterministic events performed
	// by the sender since its last message (§10): the copy seen by the
	// sender's backup logs them for deterministic re-creation during
	// roll-forward.
	Nondet []uint64
	// Lazy, when non-nil, supplies Payload at transmit time: the sending
	// executive encodes it into its transmit writer just before offering
	// the message to the bus, then clears it. It lets a
	// syncing primary enqueue captured state by reference; the
	// serialization cost moves out of the kernel's critical section. The
	// encoder must be safe to run without the kernel lock, on whichever
	// goroutine transmits (exclusively owned or immutable data). A message must never reach
	// the bus with Lazy still set.
	Lazy PayloadEncoder
}

// PayloadEncoder is implemented by structured payloads whose serialization
// is deferred to transmit time (see Message.Lazy).
type PayloadEncoder interface {
	// EncodePayload appends the payload bytes to w.
	EncodePayload(w *wire.Writer)
}

// PayloadRetirer is implemented by a PayloadEncoder that borrows what it
// encodes (a page-out's captured pages): the sending executive calls
// RetirePayload once, right after EncodePayload, to hand the loan back. A
// message that dies before it is encoded is never retired.
type PayloadRetirer interface {
	RetirePayload()
}

// Clone returns a deep copy of m. The bus hands independent copies to each
// destination cluster so that kernels can annotate (e.g. assign Seq)
// without racing.
func (m *Message) Clone() *Message {
	c := *m
	if m.Payload != nil {
		c.Payload = make([]byte, len(m.Payload))
		copy(c.Payload, m.Payload)
	}
	if m.Nondet != nil {
		c.Nondet = make([]uint64, len(m.Nondet))
		copy(c.Nondet, m.Nondet)
	}
	return &c
}

func (m *Message) String() string {
	return fmt.Sprintf("%s %s->%s %s seq=%d len=%d", m.Kind, m.Src, m.Dst, m.Channel, m.Seq, len(m.Payload))
}
