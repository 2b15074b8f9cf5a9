package kernel

import (
	"fmt"

	"auragen/internal/memory"
	"auragen/internal/types"
	"auragen/internal/wire"
)

// newPayloadWriter allocates a fresh Writer for the cold-path Encode()
// methods below. Their product is a retained []byte (stored in
// Message.Payload, saved queues, backup images), so it must NOT alias a
// pooled buffer — returning one to the pool while the payload lives would
// corrupt it. Hot paths defer encoding via types.PayloadEncoder instead and
// let Kernel.offerBatch use wire.GetWriter/PutWriter. Keeping the one
// sanctioned allocation in this funnel is what lets aurolint's AURO009 flag
// any other wire.NewWriter in this package.
func newPayloadWriter(capHint int) *wire.Writer {
	//lint:ignore AURO009 cold-path payload encoding builds retained []byte values that must not alias pooled buffers
	return wire.NewWriter(capHint)
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

func (ci ChannelInfo) encode(w *wire.Writer) {
	w.U64(uint64(ci.Channel))
	w.I32(int32(ci.FD))
	w.U32(ci.Reads)
	w.U64(uint64(ci.Peer))
	w.I32(int32(ci.PeerCluster))
	w.I32(int32(ci.PeerBackupCluster))
	w.Bool(ci.PeerIsServer)
}

func decodeChannelInfo(r *wire.Reader) ChannelInfo {
	return ChannelInfo{
		Channel:           types.ChannelID(r.U64()),
		FD:                types.FD(r.I32()),
		Reads:             r.U32(),
		Peer:              types.PID(r.U64()),
		PeerCluster:       types.ClusterID(r.I32()),
		PeerBackupCluster: types.ClusterID(r.I32()),
		PeerIsServer:      r.Bool(),
	}
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

// Encode serializes the sync message.
func (s *SyncMsg) Encode() []byte {
	w := newPayloadWriter(256)
	s.EncodePayload(w)
	return w.Bytes()
}

// EncodePayload appends the sync message to w. SyncMsg implements
// types.PayloadEncoder so the executive can serialize it into a pooled
// buffer at transmit time, outside the kernel lock; every field
// is exclusively owned by the message (or immutable, like Args) once the
// sync is enqueued.
func (s *SyncMsg) EncodePayload(w *wire.Writer) {
	// The commit — all the page-server pair reads — goes first, so that
	// DecodeSyncCommit can stop there.
	w.U64(uint64(s.PID))
	w.U32(uint32(s.Epoch))
	w.U32(uint32(len(s.FreePIDs)))
	for _, p := range s.FreePIDs {
		w.U64(uint64(p))
	}
	w.String(s.Program)
	w.U8(uint8(s.Mode))
	w.U64(uint64(s.Family))
	w.U64(uint64(s.Parent))
	w.Bytes32(s.Args)
	w.I32(int32(s.PrimaryCluster))
	w.Bytes32(s.Regs)
	w.I32(int32(s.NextFD))
	w.Bool(s.SignalNext)
	w.U32(uint32(len(s.SigIgnore)))
	for _, sg := range s.SigIgnore {
		w.U8(uint8(sg))
	}
	w.U64(uint64(s.SignalChannel))
	w.U32(uint32(len(s.Channels)))
	for _, ci := range s.Channels {
		ci.encode(w)
	}
	w.U32(uint32(len(s.ClosedChannels)))
	for _, ch := range s.ClosedChannels {
		w.U64(uint64(ch))
	}
	w.U32(uint32(len(s.Suppress)))
	for _, ch := range sortedChannels(s.Suppress) {
		w.U64(uint64(ch))
		w.U32(s.Suppress[ch])
	}
	w.U32(uint32(len(s.NondetRemaining)))
	for _, v := range s.NondetRemaining {
		w.U64(v)
	}
	w.Bool(s.Establish)
	w.U32(uint32(len(s.EstablishDupes)))
	for _, ch := range sortedChannels(s.EstablishDupes) {
		w.U64(uint64(ch))
		w.U32(s.EstablishDupes[ch])
	}
	w.U64(s.TotalReads)
}

// decodeSyncCommit reads the head of a sync image: whose page account to
// commit, at which epoch, and which exited children's accounts to free.
func decodeSyncCommit(r *wire.Reader) (pid types.PID, epoch types.Epoch, free []types.PID) {
	pid, epoch = types.PID(r.U64()), types.Epoch(r.U32())
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		free = append(free, types.PID(r.U64()))
	}
	return pid, epoch, free
}

// DecodeSyncCommit reads a sync image the way a page-server cluster needs
// it: the commit and nothing after it — no program, registers or channel
// list is built, and with no child to free nothing is allocated. Only the
// commit is validated; what follows it is the backup's kernel's business
// (DecodeSyncMsg), and both read the same bytes for these three fields.
func DecodeSyncCommit(b []byte) (types.PID, types.Epoch, []types.PID, error) {
	r := wire.NewReader(b)
	pid, epoch, free := decodeSyncCommit(r)
	if err := r.Err(); err != nil {
		return 0, 0, nil, fmt.Errorf("kernel: sync commit: %w", err)
	}
	return pid, epoch, free, nil
}

// DecodeSyncMsg parses a sync message payload.
func DecodeSyncMsg(b []byte) (*SyncMsg, error) {
	r := wire.NewReader(b)
	pid, epoch, free := decodeSyncCommit(r)
	s := &SyncMsg{
		PID:            pid,
		Epoch:          epoch,
		FreePIDs:       free,
		Program:        r.String(),
		Mode:           types.BackupMode(r.U8()),
		Family:         types.PID(r.U64()),
		Parent:         types.PID(r.U64()),
		Args:           r.Bytes32(),
		PrimaryCluster: types.ClusterID(r.I32()),
		Regs:           r.Bytes32(),
		NextFD:         types.FD(r.I32()),
		SignalNext:     r.Bool(),
	}
	nIgn := r.U32()
	for i := uint32(0); i < nIgn && r.Err() == nil; i++ {
		s.SigIgnore = append(s.SigIgnore, types.Signal(r.U8()))
	}
	s.SignalChannel = types.ChannelID(r.U64())
	nCh := r.U32()
	for i := uint32(0); i < nCh && r.Err() == nil; i++ {
		s.Channels = append(s.Channels, decodeChannelInfo(r))
	}
	nCl := r.U32()
	for i := uint32(0); i < nCl && r.Err() == nil; i++ {
		s.ClosedChannels = append(s.ClosedChannels, types.ChannelID(r.U64()))
	}
	nSup := r.U32()
	if nSup > 0 {
		s.Suppress = make(map[types.ChannelID]uint32, nSup)
	}
	for i := uint32(0); i < nSup && r.Err() == nil; i++ {
		ch := types.ChannelID(r.U64())
		s.Suppress[ch] = r.U32()
	}
	nND := r.U32()
	for i := uint32(0); i < nND && r.Err() == nil; i++ {
		s.NondetRemaining = append(s.NondetRemaining, r.U64())
	}
	s.Establish = r.Bool()
	nDup := r.U32()
	if nDup > 0 {
		s.EstablishDupes = make(map[types.ChannelID]uint32, nDup)
	}
	for i := uint32(0); i < nDup && r.Err() == nil; i++ {
		ch := types.ChannelID(r.U64())
		s.EstablishDupes[ch] = r.U32()
	}
	s.TotalReads = r.U64()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("kernel: sync message: %w", err)
	}
	return s, nil
}

// DecisionMsg is the payload of a KindDecision message (llft strategy):
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

// Encode serializes the decision entry.
func (d *DecisionMsg) Encode() []byte {
	w := newPayloadWriter(32)
	d.EncodePayload(w)
	return w.Bytes()
}

// EncodePayload appends the decision entry to w (types.PayloadEncoder: the
// entry is immutable once enqueued, so the executive may serialize it into
// a pooled buffer at transmit time).
func (d *DecisionMsg) EncodePayload(w *wire.Writer) {
	w.U64(uint64(d.PID))
	w.U64(d.Seq)
	w.U64(d.Reads)
}

// DecodeDecisionMsg parses a decision-log entry payload.
func DecodeDecisionMsg(b []byte) (*DecisionMsg, error) {
	r := wire.NewReader(b)
	d := &DecisionMsg{
		PID:   types.PID(r.U64()),
		Seq:   r.U64(),
		Reads: r.U64(),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("kernel: decision message: %w", err)
	}
	return d, nil
}

// CheckpointMsg is the payload of a KindCheckpoint message (msglog
// strategy): a manifest wrapping a full-image sync. Pages/Bytes describe
// the page-out that traveled ahead of it on the same FIFO stream, so
// traces can attribute checkpoint weight without joining against page-out
// events.
type CheckpointMsg struct {
	Sync  *SyncMsg
	Pages uint32
	Bytes uint64
}

// Encode serializes the checkpoint manifest.
func (c *CheckpointMsg) Encode() []byte {
	w := newPayloadWriter(256)
	c.EncodePayload(w)
	return w.Bytes()
}

// checkpointManifestLen is the manifest's fixed head (Pages, Bytes); the
// wrapped sync image follows it.
const checkpointManifestLen = 4 + 8

// checkpointImage returns the sync image a checkpoint manifest wraps, nil
// for a payload too short to hold one.
func checkpointImage(b []byte) []byte {
	if len(b) < checkpointManifestLen {
		return nil
	}
	return b[checkpointManifestLen:]
}

// EncodePayload appends the manifest to w (types.PayloadEncoder, same
// exclusive-ownership argument as SyncMsg).
func (c *CheckpointMsg) EncodePayload(w *wire.Writer) {
	w.U32(c.Pages)
	w.U64(c.Bytes)
	c.Sync.EncodePayload(w)
}

// DecodeCheckpointMsg parses a checkpoint manifest payload.
func DecodeCheckpointMsg(b []byte) (*CheckpointMsg, error) {
	sm, err := DecodeSyncMsg(checkpointImage(b))
	if err != nil {
		return nil, fmt.Errorf("kernel: checkpoint message: %w", err)
	}
	r := wire.NewReader(b) // long enough: it holds an image behind the head
	return &CheckpointMsg{Pages: r.U32(), Bytes: r.U64(), Sync: sm}, nil
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

// Encode serializes the birth notice.
func (bn *BirthNotice) Encode() []byte {
	w := newPayloadWriter(128)
	w.U64(uint64(bn.Parent))
	w.U64(uint64(bn.Child))
	w.String(bn.Program)
	w.Bytes32(bn.Args)
	w.U8(uint8(bn.Mode))
	w.U64(uint64(bn.Family))
	w.I32(int32(bn.PrimaryCluster))
	w.U64(uint64(bn.SignalChannel))
	w.U32(uint32(len(bn.Channels)))
	for _, ci := range bn.Channels {
		ci.encode(w)
	}
	w.Bool(bn.Established)
	return w.Bytes()
}

// DecodeBirthNotice parses a birth notice payload.
func DecodeBirthNotice(b []byte) (*BirthNotice, error) {
	r := wire.NewReader(b)
	bn := &BirthNotice{
		Parent:         types.PID(r.U64()),
		Child:          types.PID(r.U64()),
		Program:        r.String(),
		Args:           r.Bytes32(),
		Mode:           types.BackupMode(r.U8()),
		Family:         types.PID(r.U64()),
		PrimaryCluster: types.ClusterID(r.I32()),
		SignalChannel:  types.ChannelID(r.U64()),
	}
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		bn.Channels = append(bn.Channels, decodeChannelInfo(r))
	}
	bn.Established = r.Bool()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("kernel: birth notice: %w", err)
	}
	return bn, nil
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

// Encode serializes the open request.
func (o *OpenRequest) Encode() []byte {
	w := newPayloadWriter(64)
	w.U64(uint64(o.Opener))
	w.String(o.Name)
	w.I32(int32(o.OpenerCluster))
	w.I32(int32(o.OpenerBackupCluster))
	return w.Bytes()
}

// DecodeOpenRequest parses an open request payload.
func DecodeOpenRequest(b []byte) (*OpenRequest, error) {
	r := wire.NewReader(b)
	o := &OpenRequest{
		Opener:              types.PID(r.U64()),
		Name:                r.String(),
		OpenerCluster:       types.ClusterID(r.I32()),
		OpenerBackupCluster: types.ClusterID(r.I32()),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("kernel: open request: %w", err)
	}
	return o, nil
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

// Encode serializes the open reply.
func (o *OpenReply) Encode() []byte {
	w := newPayloadWriter(64)
	w.U64(uint64(o.Channel))
	w.U64(uint64(o.Peer))
	w.I32(int32(o.PeerCluster))
	w.I32(int32(o.PeerBackupCluster))
	w.Bool(o.PeerIsServer)
	w.String(o.Err)
	return w.Bytes()
}

// DecodeOpenReply parses an open reply payload.
func DecodeOpenReply(b []byte) (*OpenReply, error) {
	r := wire.NewReader(b)
	o := &OpenReply{
		Channel:           types.ChannelID(r.U64()),
		Peer:              types.PID(r.U64()),
		PeerCluster:       types.ClusterID(r.I32()),
		PeerBackupCluster: types.ClusterID(r.I32()),
		PeerIsServer:      r.Bool(),
		Err:               r.String(),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("kernel: open reply: %w", err)
	}
	return o, nil
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

// EncodePayload appends the page-out to w: a fixed header followed by a
// wire batch with one frame per page. PageOut implements
// types.PayloadEncoder; syncs enqueue it lazily so serialization of the
// page data happens on the transmit goroutine, off the syncing process's
// critical path.
func (p *PageOut) EncodePayload(w *wire.Writer) {
	w.U64(uint64(p.PID))
	w.U32(uint32(p.Epoch))
	w.I32(int32(p.From))
	bw := wire.NewBatchWriter(w)
	for _, pg := range p.Pages {
		bw.BeginFrame()
		w.U32(uint32(pg.No))
		w.Bytes32(pg.Data)
		bw.EndFrame()
	}
	bw.Finish()
}

// Encode serializes the page-out (cold path; see EncodePayload).
func (p *PageOut) Encode() []byte {
	size := 32
	for _, pg := range p.Pages {
		size += 12 + len(pg.Data)
	}
	w := newPayloadWriter(size)
	p.EncodePayload(w)
	return w.Bytes()
}

// DecodePageOut parses a page-out payload. It fails closed: a truncated or
// corrupted page batch yields an error and no pages, never a partial
// prefix. The decoded pages alias b, so they are valid only as long as b
// is: a delivered payload is read-only and its buffer is never reused, and
// the page server keeps only the copies its disk makes.
func DecodePageOut(b []byte) (*PageOut, error) {
	r := wire.NewReader(b)
	p := &PageOut{
		PID:   types.PID(r.U64()),
		Epoch: types.Epoch(r.U32()),
		From:  types.ClusterID(r.I32()),
	}
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

// Encode serializes the page request.
func (p *PageRequest) Encode() []byte {
	w := newPayloadWriter(16)
	w.U64(uint64(p.PID))
	w.I32(int32(p.ReplyTo))
	return w.Bytes()
}

// DecodePageRequest parses a page request payload.
func DecodePageRequest(b []byte) (*PageRequest, error) {
	r := wire.NewReader(b)
	p := &PageRequest{
		PID:     types.PID(r.U64()),
		ReplyTo: types.ClusterID(r.I32()),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("kernel: page request: %w", err)
	}
	return p, nil
}

// PageReply is the payload of a KindPageReply message: the backup page
// account of one process.
type PageReply struct {
	PID   types.PID
	Pages []memory.Page
}

// Encode serializes the page reply.
func (p *PageReply) Encode() []byte {
	size := 16
	for _, pg := range p.Pages {
		size += 8 + len(pg.Data)
	}
	w := newPayloadWriter(size)
	w.U64(uint64(p.PID))
	w.U32(uint32(len(p.Pages)))
	for _, pg := range p.Pages {
		w.U32(uint32(pg.No))
		w.Bytes32(pg.Data)
	}
	return w.Bytes()
}

// DecodePageReply parses a page reply payload.
func DecodePageReply(b []byte) (*PageReply, error) {
	r := wire.NewReader(b)
	p := &PageReply{PID: types.PID(r.U64())}
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		var pg memory.Page
		pg.No = memory.PageNo(r.U32())
		pg.Data = r.Bytes32()
		p.Pages = append(p.Pages, pg)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("kernel: page reply: %w", err)
	}
	return p, nil
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

// Encode serializes the exit notice.
func (e *ExitNotice) Encode() []byte {
	w := newPayloadWriter(32)
	w.U64(uint64(e.PID))
	w.U64(uint64(e.Parent))
	w.Bool(e.NeverSynced)
	w.U32(uint32(len(e.FreePIDs)))
	for _, p := range e.FreePIDs {
		w.U64(uint64(p))
	}
	return w.Bytes()
}

// DecodeExitNotice parses an exit notice payload.
func DecodeExitNotice(b []byte) (*ExitNotice, error) {
	r := wire.NewReader(b)
	e := &ExitNotice{
		PID:         types.PID(r.U64()),
		Parent:      types.PID(r.U64()),
		NeverSynced: r.Bool(),
	}
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		e.FreePIDs = append(e.FreePIDs, types.PID(r.U64()))
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("kernel: exit notice: %w", err)
	}
	return e, nil
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

// Encode serializes the crash notice.
func (c *CrashNotice) Encode() []byte {
	w := newPayloadWriter(16)
	w.I32(int32(c.Crashed))
	w.U64(uint64(c.PID))
	w.U32(uint32(c.Inc))
	return w.Bytes()
}

// DecodeCrashNotice parses a crash notice payload.
func DecodeCrashNotice(b []byte) (*CrashNotice, error) {
	r := wire.NewReader(b)
	c := &CrashNotice{
		Crashed: types.ClusterID(r.I32()),
		PID:     types.PID(r.U64()),
		Inc:     types.Incarnation(r.U32()),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("kernel: crash notice: %w", err)
	}
	return c, nil
}

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

// Encode serializes the backup-up notice.
func (b *BackupUp) Encode() []byte {
	w := newPayloadWriter(24)
	w.U64(uint64(b.PID))
	w.I32(int32(b.BackupCluster))
	w.I32(int32(b.Origin))
	w.Bool(b.NeedAck)
	return w.Bytes()
}

// DecodeBackupUp parses a backup-up payload.
func DecodeBackupUp(data []byte) (*BackupUp, error) {
	r := wire.NewReader(data)
	b := &BackupUp{
		PID:           types.PID(r.U64()),
		BackupCluster: types.ClusterID(r.I32()),
		Origin:        types.ClusterID(r.I32()),
		NeedAck:       r.Bool(),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("kernel: backup-up: %w", err)
	}
	return b, nil
}

// BackupAck is the payload of a KindBackupAck message: cluster From has
// processed the BackupUp notice for PID.
type BackupAck struct {
	PID  types.PID
	From types.ClusterID
}

// Encode serializes the backup ack.
func (b *BackupAck) Encode() []byte {
	w := newPayloadWriter(16)
	w.U64(uint64(b.PID))
	w.I32(int32(b.From))
	return w.Bytes()
}

// DecodeBackupAck parses a backup ack payload.
func DecodeBackupAck(data []byte) (*BackupAck, error) {
	r := wire.NewReader(data)
	b := &BackupAck{
		PID:  types.PID(r.U64()),
		From: types.ClusterID(r.I32()),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("kernel: backup-ack: %w", err)
	}
	return b, nil
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

// Encode serializes the backup image.
func (bi *BackupImage) Encode() []byte {
	w := newPayloadWriter(512)
	w.Bytes32(bi.Sync.Encode())
	w.U32(uint32(len(bi.Queues)))
	for _, sm := range bi.Queues {
		w.U64(uint64(sm.Channel))
		w.U8(uint8(sm.Kind))
		w.U64(uint64(sm.Src))
		w.U64(uint64(sm.Seq))
		w.Bytes32(sm.Payload)
	}
	w.U32(uint32(len(bi.Writes)))
	for _, ch := range sortedChannels(bi.Writes) {
		w.U64(uint64(ch))
		w.U32(bi.Writes[ch])
	}
	w.U32(uint32(len(bi.BornChildren)))
	for _, b := range bi.BornChildren {
		w.Bytes32(b)
	}
	w.U32(uint32(len(bi.NondetLog)))
	for _, v := range bi.NondetLog {
		w.U64(v)
	}
	w.U32(uint32(len(bi.Decisions)))
	for _, v := range bi.Decisions {
		w.U64(v)
	}
	return w.Bytes()
}

// DecodeBackupImage parses a backup image payload.
func DecodeBackupImage(b []byte) (*BackupImage, error) {
	r := wire.NewReader(b)
	syncBytes := r.Bytes32()
	bi := &BackupImage{Writes: make(map[types.ChannelID]uint32)}
	nQ := r.U32()
	for i := uint32(0); i < nQ && r.Err() == nil; i++ {
		bi.Queues = append(bi.Queues, SavedMessage{
			Channel: types.ChannelID(r.U64()),
			Kind:    types.Kind(r.U8()),
			Src:     types.PID(r.U64()),
			Seq:     types.Seq(r.U64()),
			Payload: r.Bytes32(),
		})
	}
	nW := r.U32()
	for i := uint32(0); i < nW && r.Err() == nil; i++ {
		ch := types.ChannelID(r.U64())
		bi.Writes[ch] = r.U32()
	}
	nB := r.U32()
	for i := uint32(0); i < nB && r.Err() == nil; i++ {
		bi.BornChildren = append(bi.BornChildren, r.Bytes32())
	}
	nND := r.U32()
	for i := uint32(0); i < nND && r.Err() == nil; i++ {
		bi.NondetLog = append(bi.NondetLog, r.U64())
	}
	nDec := r.U32()
	for i := uint32(0); i < nDec && r.Err() == nil; i++ {
		bi.Decisions = append(bi.Decisions, r.U64())
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("kernel: backup image: %w", err)
	}
	s, err := DecodeSyncMsg(syncBytes)
	if err != nil {
		return nil, err
	}
	bi.Sync = s
	return bi, nil
}

func sortedChannels(m map[types.ChannelID]uint32) []types.ChannelID {
	out := make([]types.ChannelID, 0, len(m))
	for ch := range m {
		out = append(out, ch)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
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

// Encode serializes the server sync.
func (s *ServerSyncMsg) Encode() []byte {
	w := newPayloadWriter(64 + len(s.Blob))
	w.U64(uint64(s.PID))
	w.Bytes32(s.Blob)
	w.U32(uint32(len(s.Discards)))
	for _, ch := range sortedChannels(s.Discards) {
		w.U64(uint64(ch))
		w.U32(s.Discards[ch])
	}
	return w.Bytes()
}

// DecodeServerSyncMsg parses a server sync payload.
func DecodeServerSyncMsg(b []byte) (*ServerSyncMsg, error) {
	r := wire.NewReader(b)
	s := &ServerSyncMsg{
		PID:      types.PID(r.U64()),
		Blob:     r.Bytes32(),
		Discards: make(map[types.ChannelID]uint32),
	}
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		ch := types.ChannelID(r.U64())
		s.Discards[ch] = r.U32()
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("kernel: server sync: %w", err)
	}
	return s, nil
}
