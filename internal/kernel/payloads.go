package kernel

import (
	"fmt"

	"auragen/internal/memory"
	"auragen/internal/types"
	"auragen/internal/wire"
)

// Payload is a kernel message body. Its codec method is its one wire
// description — the order of its calls is the wire order — and serves
// Encode and Decode alike (wire.Codec).
type Payload interface {
	codec(c *wire.Codec)
}

// Encode serializes p into a fresh buffer the caller may retain.
func Encode(p Payload) []byte { return wire.Encode(p.codec) }

// Decode parses b as one T. Truncation, an impossible count and trailing
// bytes all fail it.
func Decode[T any, P interface {
	*T
	Payload
}](b []byte) (*T, error) {
	p := P(new(T))
	r := wire.NewReader(b)
	p.codec(wire.DecodeFrom(r))
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("kernel: decoding %T: %w", p, err)
	}
	return p, nil
}

// channelCounts codes a per-channel count map: suppression debts,
// establishment duplicates, writes-since-sync, serviced requests.
func channelCounts(c *wire.Codec, m *map[types.ChannelID]uint32) {
	wire.Map(c, m, 12, func(ch *types.ChannelID, n *uint32) {
		c.U64((*uint64)(ch))
		c.U32(n)
	})
}

// ChannelInfo describes one channel end in a sync message, birth notice, or
// backup image: the fd binding, routing information (so the backup cluster
// can create a missing entry), and the reads-since-sync count the backup
// uses to discard consumed messages (§7.8).
type ChannelInfo struct {
	Channel types.ChannelID
	FD      types.FD
	Reads   uint32

	Peer              types.PID
	PeerCluster       types.ClusterID
	PeerBackupCluster types.ClusterID
	PeerIsServer      bool
}

// channelInfoSize is a ChannelInfo's encoded size.
const channelInfoSize = 33

func (ci *ChannelInfo) codec(c *wire.Codec) {
	c.U64((*uint64)(&ci.Channel))
	c.I32((*int32)(&ci.FD))
	c.U32(&ci.Reads)
	c.U64((*uint64)(&ci.Peer))
	c.I32((*int32)(&ci.PeerCluster))
	c.I32((*int32)(&ci.PeerBackupCluster))
	c.Bool(&ci.PeerIsServer)
}

// SyncMsg is the payload of a KindSync message (§5.2, §7.8): the
// cluster-independent process state, the per-channel deltas, and the list
// of exited children whose backup state may now be reclaimed.
type SyncMsg struct {
	PID            types.PID
	Epoch          types.Epoch
	Program        string
	Mode           types.BackupMode
	Family         types.PID
	Parent         types.PID
	Args           []byte
	PrimaryCluster types.ClusterID

	// Regs is the guest control state (VM registers and PC, or a
	// reactor's phase flag).
	Regs []byte

	NextFD        types.FD
	SignalNext    bool
	SigIgnore     []types.Signal
	SignalChannel types.ChannelID

	// Channels lists every open channel with its fd binding and
	// reads-since-sync count.
	Channels []ChannelInfo
	// ClosedChannels lists channels closed since the last sync; the
	// backup removes their entries.
	ClosedChannels []types.ChannelID
	// FreePIDs lists children that exited since the last sync; their
	// backup records, entries, and page accounts are reclaimed (the fork
	// that created them is now part of this captured state and will never
	// be replayed).
	FreePIDs []types.PID
	// Suppress carries the primary's remaining roll-forward suppression
	// counts. Normally empty, so the backup zeroes its writes-since-sync
	// counts (§5.2); a primary that syncs while still rolling forward
	// instead transfers its outstanding debt, keeping a subsequent
	// failure correct.
	Suppress map[types.ChannelID]uint32
	// NondetRemaining carries an unconsumed roll-forward nondet log (§10),
	// for the same reason as Suppress.
	NondetRemaining []uint64
	// Establish marks the first sync after an online backup
	// establishment; EstablishDupes gives, per channel, how many saved
	// messages are covered both by a forwarded copy and a direct copy
	// (their senders had already switched routes when they sent, yet the
	// originals reached the primary before the cutover). The target drops
	// that many of its earliest direct copies and orders forwards first.
	Establish      bool
	EstablishDupes map[types.ChannelID]uint32
	// TotalReads is the primary's absolute input-event count as of this
	// capture — the base the llft decision log's positions are measured
	// from (see PCB.totalReads).
	TotalReads uint64
}

// EncodePayload appends the sync message to w. SyncMsg implements
// types.PayloadEncoder so the executive can serialize it into its
// transmit writer at transmit time, outside the kernel lock; every field
// is exclusively owned by the message (or immutable, like Args) once the
// sync is enqueued.
func (s *SyncMsg) EncodePayload(w *wire.Writer) { s.codec(wire.EncodeTo(w)) }

// syncCommit codes the head of a sync image: whose page account to commit,
// at which epoch, and which exited children's accounts to free. It goes
// first, so that DecodeSyncCommit can stop there.
func syncCommit(c *wire.Codec, pid *types.PID, epoch *types.Epoch, free *[]types.PID) {
	c.U64((*uint64)(pid))
	c.U32((*uint32)(epoch))
	wire.U64s(c, free)
}

func (s *SyncMsg) codec(c *wire.Codec) {
	syncCommit(c, &s.PID, &s.Epoch, &s.FreePIDs)
	c.String(&s.Program)
	c.U8((*uint8)(&s.Mode))
	c.U64((*uint64)(&s.Family))
	c.U64((*uint64)(&s.Parent))
	c.Bytes32(&s.Args)
	c.I32((*int32)(&s.PrimaryCluster))
	c.Bytes32(&s.Regs)
	c.I32((*int32)(&s.NextFD))
	c.Bool(&s.SignalNext)
	for i := range wire.Grow(c, &s.SigIgnore, 1) {
		c.U8((*uint8)(&s.SigIgnore[i]))
	}
	c.U64((*uint64)(&s.SignalChannel))
	for i := range wire.Grow(c, &s.Channels, channelInfoSize) {
		s.Channels[i].codec(c)
	}
	wire.U64s(c, &s.ClosedChannels)
	channelCounts(c, &s.Suppress)
	wire.U64s(c, &s.NondetRemaining)
	c.Bool(&s.Establish)
	channelCounts(c, &s.EstablishDupes)
	c.U64(&s.TotalReads)
}

// DecodeSyncCommit reads a sync image the way a page-server cluster needs
// it: the commit and nothing after it — no program, registers or channel
// list is built, and with no child to free nothing is allocated. Only the
// commit is validated; what follows it is the backup's kernel's business
// (Decode[SyncMsg]), and both read these three fields with one codec.
func DecodeSyncCommit(b []byte) (pid types.PID, epoch types.Epoch, free []types.PID, err error) {
	r := wire.NewReader(b)
	syncCommit(wire.DecodeFrom(r), &pid, &epoch, &free)
	if err := r.Err(); err != nil {
		return 0, 0, nil, fmt.Errorf("kernel: sync commit: %w", err)
	}
	return pid, epoch, free, nil
}

// DecisionMsg is the payload of a KindDecision message (llft policy):
// one decision-log entry. The leader streams it to its follower's cluster
// just before consuming a queued asynchronous signal, pinning the delivery
// at an absolute input position so promotion replays the same
// interleaving. Seq numbers the leader's decisions; Reads is the leader's
// totalReads at the decision point (the position the delivery replays at).
type DecisionMsg struct {
	PID   types.PID
	Seq   uint64
	Reads uint64
}

// EncodePayload appends the decision entry to w (types.PayloadEncoder: the
// entry is immutable once enqueued, so the executive may serialize it into
// its transmit writer at transmit time).
func (d *DecisionMsg) EncodePayload(w *wire.Writer) { d.codec(wire.EncodeTo(w)) }

func (d *DecisionMsg) codec(c *wire.Codec) {
	c.U64((*uint64)(&d.PID))
	c.U64(&d.Seq)
	c.U64(&d.Reads)
}

// BirthNotice is the payload of a KindBirthNotice message (§7.7): enough
// information for the backup cluster to create routing entries for the
// child's fork-time channels and to give a re-executed fork the same child
// identity, but not a full backup.
type BirthNotice struct {
	Parent  types.PID
	Child   types.PID
	Program string
	Args    []byte
	Mode    types.BackupMode
	Family  types.PID
	// PrimaryCluster is where the child runs.
	PrimaryCluster types.ClusterID
	// SignalChannel is the child's signal channel.
	SignalChannel types.ChannelID
	// Channels are the child's initial channels (control channels created
	// at fork; inherited channels already have backup entries).
	Channels []ChannelInfo
	// Established marks a shell created by the online backup
	// re-establishment protocol (halfbacks, §7.3): such a shell is not
	// viable for promotion until its first sync arrives, because its
	// saved queues do not reach back to the process's birth.
	Established bool
}

func (bn *BirthNotice) codec(c *wire.Codec) {
	c.U64((*uint64)(&bn.Parent))
	c.U64((*uint64)(&bn.Child))
	c.String(&bn.Program)
	c.Bytes32(&bn.Args)
	c.U8((*uint8)(&bn.Mode))
	c.U64((*uint64)(&bn.Family))
	c.I32((*int32)(&bn.PrimaryCluster))
	c.U64((*uint64)(&bn.SignalChannel))
	for i := range wire.Grow(c, &bn.Channels, channelInfoSize) {
		bn.Channels[i].codec(c)
	}
	c.Bool(&bn.Established)
}

// OpenRequest is the payload of a KindOpenRequest message sent to a file,
// tty, or process server on a preexisting channel (§7.4.1).
type OpenRequest struct {
	Opener types.PID
	Name   string
	// OpenerCluster/OpenerBackupCluster let the server build routing
	// information for the new channel's other end.
	OpenerCluster       types.ClusterID
	OpenerBackupCluster types.ClusterID
}

func (o *OpenRequest) codec(c *wire.Codec) {
	c.U64((*uint64)(&o.Opener))
	c.String(&o.Name)
	c.I32((*int32)(&o.OpenerCluster))
	c.I32((*int32)(&o.OpenerBackupCluster))
}

// OpenReply is the payload of a KindOpenReply message, sent to the opener
// and its backup; its arrival at the backup cluster creates the backup
// routing-table entry (§7.4.1).
type OpenReply struct {
	// Channel is the newly created channel (NoChannel on error).
	Channel types.ChannelID
	// Peer describes the other end of the channel.
	Peer              types.PID
	PeerCluster       types.ClusterID
	PeerBackupCluster types.ClusterID
	PeerIsServer      bool
	// Err is a non-empty error string if the open failed.
	Err string
}

func (o *OpenReply) codec(c *wire.Codec) {
	c.U64((*uint64)(&o.Channel))
	c.U64((*uint64)(&o.Peer))
	c.I32((*int32)(&o.PeerCluster))
	c.I32((*int32)(&o.PeerBackupCluster))
	c.Bool(&o.PeerIsServer)
	c.String(&o.Err)
}

// PageOut is the payload of a KindPageOut message: the modified pages of
// one sync on their way to the page server (sync part one, §7.8). A whole
// dirty set travels as ONE bus transmission — the pages ride as checksummed
// wire batch frames — so the bus ordering lock is taken once per sync, and
// the page server applies the set atomically under one lock.
type PageOut struct {
	PID   types.PID
	Epoch types.Epoch
	// From is the cluster of the syncing primary; the page server uses it
	// to decide which accounts to roll back after a crash.
	From types.ClusterID
	// Pages is the dirty set in ascending page order. With copy-on-write
	// capture these slices alias frozen pages of the live address space;
	// they are immutable, so deferring the encode to transmit time
	// (via Message.Lazy) is race-free. In a decoded PageOut they alias the
	// message payload instead (see DecodePageOut).
	Pages []memory.Page

	// captured is the address space Pages was captured from, nil when they
	// are copies (a full image) or decoded: RetirePayload releases the
	// capture there.
	captured *memory.AddressSpace
}

// RetirePayload ends the copy-on-write capture once the pages have been
// encoded (types.PayloadRetirer): from here on the primary writes them in
// place again.
func (p *PageOut) RetirePayload() {
	if p.captured != nil {
		p.captured.Release(p.Pages)
	}
}

// head codes the page-out's fixed header; the page batch follows it.
func (p *PageOut) head(c *wire.Codec) {
	c.U64((*uint64)(&p.PID))
	c.U32((*uint32)(&p.Epoch))
	c.I32((*int32)(&p.From))
}

// EncodePayload appends the page-out to w: the header followed by a wire
// batch with one checksummed frame per page. PageOut implements
// types.PayloadEncoder; syncs enqueue it lazily so serialization of the
// page data happens on the transmit goroutine, off the syncing process's
// critical path.
func (p *PageOut) EncodePayload(w *wire.Writer) {
	p.head(wire.EncodeTo(w))
	bw := wire.NewBatchWriter(w)
	for _, pg := range p.Pages {
		bw.BeginFrame()
		w.U32(uint32(pg.No))
		w.Bytes32(pg.Data)
		bw.EndFrame()
	}
	bw.Finish()
}

// DecodePageOut parses a page-out payload. It fails closed: a truncated or
// corrupted page batch yields an error and no pages, never a partial
// prefix. The decoded pages alias b, so they are valid only as long as b
// is: a delivered payload is read-only and its buffer is never reused, and
// the page server keeps only the copies its disk makes.
func DecodePageOut(b []byte) (*PageOut, error) {
	r := wire.NewReader(b)
	p := &PageOut{}
	p.head(wire.DecodeFrom(r))
	if r.Err() != nil {
		return nil, fmt.Errorf("kernel: page-out: %w", r.Err())
	}
	br := wire.NewBatchReader(r.Rest())
	// One allocation for the page list, not one per doubling. The frame
	// count is input: a page frame is at least 12 bytes, which bounds it.
	p.Pages = make([]memory.Page, 0, min(br.Len(), len(b)/12))
	for {
		f, ok := br.Next()
		if !ok {
			break
		}
		fr := wire.NewReader(f)
		pg := memory.Page{No: memory.PageNo(fr.U32()), Data: fr.View32()}
		if err := fr.Done(); err != nil {
			return nil, fmt.Errorf("kernel: page-out frame: %w", err)
		}
		p.Pages = append(p.Pages, pg)
	}
	if err := br.Done(); err != nil {
		return nil, fmt.Errorf("kernel: page-out: %w", err)
	}
	return p, nil
}

// PageRequest is the payload of a KindPageRequest message: a recovering
// kernel asking the page server for a backup page account.
type PageRequest struct {
	PID     types.PID
	ReplyTo types.ClusterID
}

func (p *PageRequest) codec(c *wire.Codec) {
	c.U64((*uint64)(&p.PID))
	c.I32((*int32)(&p.ReplyTo))
}

// PageReply is the payload of a KindPageReply message: the backup page
// account of one process.
type PageReply struct {
	PID   types.PID
	Pages []memory.Page
}

func (p *PageReply) codec(c *wire.Codec) {
	c.U64((*uint64)(&p.PID))
	for i := range wire.Grow(c, &p.Pages, 8) {
		c.U32((*uint32)(&p.Pages[i].No))
		c.Bytes32(&p.Pages[i].Data)
	}
}

// ExitNotice is the payload of a KindExitNotice message.
type ExitNotice struct {
	PID types.PID
	// Parent is the exiting process's parent (NoPID for heads of family).
	Parent types.PID
	// NeverSynced reports that the process exited without ever syncing, so
	// no real backup was ever created for it (the §7.7/§8.2 win).
	NeverSynced bool
	// FreePIDs lists this process's own exited-pending children, released
	// along with it.
	FreePIDs []types.PID
}

func (e *ExitNotice) codec(c *wire.Codec) {
	c.U64((*uint64)(&e.PID))
	c.U64((*uint64)(&e.Parent))
	c.Bool(&e.NeverSynced)
	wire.U64s(c, &e.FreePIDs)
}

// CrashNotice is the payload of a KindCrashNotice message. PID == NoPID
// announces a whole-cluster failure (§7.10); a non-zero PID announces an
// isolatable failure affecting a single process (§10: "Hardware failures
// which do not affect all processes in a cluster will not cause the
// cluster to crash, but will cause individual backups to be brought up").
type CrashNotice struct {
	Crashed types.ClusterID
	PID     types.PID
	// Inc is the incarnation the crashed cluster's next service life will
	// carry (the directory bumps it when the crash is declared). Receivers
	// learn the bump from the notice; the crashed cluster itself — if it is
	// in fact alive behind a wrongful declaration — sees its own id with a
	// higher incarnation and fences itself.
	Inc types.Incarnation
}

func (cn *CrashNotice) codec(c *wire.Codec) {
	c.I32((*int32)(&cn.Crashed))
	c.U64((*uint64)(&cn.PID))
	c.U32((*uint32)(&cn.Inc))
}

// Mark is the payload of a KindMark message: core's mark number N.
type Mark struct {
	N uint64
}

func (mk *Mark) codec(c *wire.Codec) { c.U64(&mk.N) }

// BackupUp is the payload of a KindBackupUp message: a fullback's new
// backup exists at the given cluster, so channels to it are usable again
// (§7.10.1).
type BackupUp struct {
	PID           types.PID
	BackupCluster types.ClusterID
	// Origin is the cluster running the pid's primary; when NeedAck is
	// set, every kernel replies to Origin with a KindBackupAck after
	// updating its routing tables (the halfback re-establishment
	// handshake).
	Origin  types.ClusterID
	NeedAck bool
}

func (b *BackupUp) codec(c *wire.Codec) {
	c.U64((*uint64)(&b.PID))
	c.I32((*int32)(&b.BackupCluster))
	c.I32((*int32)(&b.Origin))
	c.Bool(&b.NeedAck)
}

// BackupAck is the payload of a KindBackupAck message: cluster From has
// processed the BackupUp notice for PID.
type BackupAck struct {
	PID  types.PID
	From types.ClusterID
}

func (b *BackupAck) codec(c *wire.Codec) {
	c.U64((*uint64)(&b.PID))
	c.I32((*int32)(&b.From))
}

// SavedMessage is one saved queue element inside a BackupImage.
type SavedMessage struct {
	Channel types.ChannelID
	Kind    types.Kind
	Src     types.PID
	Seq     types.Seq
	Payload []byte
}

// BackupImage is the payload of a KindBackupCreate message: everything the
// target cluster needs to become the new backup of a fullback — the state
// as of the last sync, the saved message queues, and the remaining
// writes-since-sync counts (§7.3).
type BackupImage struct {
	Sync *SyncMsg
	// Queues are the saved per-channel message queues, in arrival order.
	Queues []SavedMessage
	// Writes are the per-channel writes-since-sync counts.
	Writes map[types.ChannelID]uint32
	// BornChildren carries unconsumed birth records for the process's
	// children, so a doubly-promoted backup can still replay forks.
	BornChildren [][]byte
	// NondetLog carries the logged nondeterministic-event results (§10).
	NondetLog []uint64
	// Decisions carries the recorded decision log (llft): absolute input
	// positions of announced signal deliveries since Sync.TotalReads.
	Decisions []uint64
}

func (bi *BackupImage) codec(c *wire.Codec) {
	if bi.Sync == nil { // decoding
		bi.Sync = new(SyncMsg)
	}
	c.Embed(bi.Sync.codec)
	for i := range wire.Grow(c, &bi.Queues, 29) {
		q := &bi.Queues[i]
		c.U64((*uint64)(&q.Channel))
		c.U8((*uint8)(&q.Kind))
		c.U64((*uint64)(&q.Src))
		c.U64((*uint64)(&q.Seq))
		c.Bytes32(&q.Payload)
	}
	channelCounts(c, &bi.Writes)
	for i := range wire.Grow(c, &bi.BornChildren, 4) {
		c.Bytes32(&bi.BornChildren[i])
	}
	wire.U64s(c, &bi.NondetLog)
	wire.U64s(c, &bi.Decisions)
}

// ServerSyncMsg is the payload of a KindServerSync message: the explicit,
// application-level synchronization a peripheral server sends its active
// backup (§7.9). Blob is server-specific state; Discards tells the backup
// how many saved requests per channel are already serviced.
type ServerSyncMsg struct {
	PID      types.PID
	Blob     []byte
	Discards map[types.ChannelID]uint32
}

func (s *ServerSyncMsg) codec(c *wire.Codec) {
	c.U64((*uint64)(&s.PID))
	c.Bytes32(&s.Blob)
	channelCounts(c, &s.Discards)
}
