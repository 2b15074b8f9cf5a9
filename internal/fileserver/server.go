package fileserver

import (
	"fmt"
	"strings"

	"auragen/internal/directory"
	"auragen/internal/disk"
	"auragen/internal/kernel"
	"auragen/internal/routing"
	"auragen/internal/ttyserver"
	"auragen/internal/types"
	"auragen/internal/wire"
)

// Binding kinds for channels the file server serves.
const (
	bindFile uint8 = 1
	bindTTY  uint8 = 2
)

type binding struct {
	Kind   uint8
	Name   string
	Offset int64
	User   types.PID
}

type pendingPair struct {
	Opener        types.PID
	ControlCh     types.ChannelID
	OpenerCluster types.ClusterID
	OpenerBackup  types.ClusterID
}

func (p *pendingPair) codec(c *wire.Codec) {
	c.U64((*uint64)(&p.Opener))
	c.U64((*uint64)(&p.ControlCh))
	c.I32((*int32)(&p.OpenerCluster))
	c.I32((*int32)(&p.OpenerBackup))
}

// serviceReg records one "serve:" listener: later openers of the same name
// are each connected to it over a fresh channel, announced by an accept
// notice on the listening channel.
type serviceReg struct {
	Listener        types.PID
	ListenCh        types.ChannelID
	ListenerCluster types.ClusterID
	ListenerBackup  types.ClusterID
}

// replicated is the file server's state that the explicit server sync
// carries to the twin (§7.9): channel bindings, pending pairings, the
// channel-allocation cursor and the serviced counts — everything not
// recoverable from the dual-ported disk.
type replicated struct {
	// nextChan drives deterministic channel-id allocation: ids are
	// (pid<<40)|counter and the counter rides in the sync blob, so a twin
	// replaying saved opens allocates exactly the ids the failed primary
	// handed out after its last sync.
	nextChan uint64
	bindings map[types.ChannelID]*binding
	pending  map[string]pendingPair
	services map[string]serviceReg
	// pendingServe holds clients that opened a "serve:" name before its
	// listener registered.
	pendingServe map[string][]pendingPair
	// serviced counts, per channel, the requests serviced over the
	// server's lifetime. A twin holds the counts of the last sync it
	// applied, and the on-disk record those of the last flush: the
	// difference is what Promote finds already on disk.
	serviced map[types.ChannelID]uint64
}

func newReplicated() replicated {
	return replicated{
		nextChan:     1,
		bindings:     make(map[types.ChannelID]*binding),
		pending:      make(map[string]pendingPair),
		services:     make(map[string]serviceReg),
		pendingServe: make(map[string][]pendingPair),
		serviced:     make(map[types.ChannelID]uint64),
	}
}

func (st *replicated) codec(c *wire.Codec) {
	c.U64(&st.nextChan)
	wire.Map(c, &st.bindings, 29, func(ch *types.ChannelID, b **binding) {
		if *b == nil { // decoding
			*b = new(binding)
		}
		c.U64((*uint64)(ch))
		c.U8(&(*b).Kind)
		c.String(&(*b).Name)
		c.I64(&(*b).Offset)
		c.U64((*uint64)(&(*b).User))
	})
	wire.Map(c, &st.pending, 28, func(name *string, p *pendingPair) {
		c.String(name)
		p.codec(c)
	})
	wire.Map(c, &st.services, 28, func(name *string, v *serviceReg) {
		c.String(name)
		c.U64((*uint64)(&v.Listener))
		c.U64((*uint64)(&v.ListenCh))
		c.I32((*int32)(&v.ListenerCluster))
		c.I32((*int32)(&v.ListenerBackup))
	})
	wire.Map(c, &st.pendingServe, 8, func(name *string, list *[]pendingPair) {
		c.String(name)
		for i := range wire.Grow(c, list, 24) {
			(*list)[i].codec(c)
		}
	})
	wire.Map(c, &st.serviced, 16, func(ch *types.ChannelID, n *uint64) {
		c.U64((*uint64)(ch))
		c.U64(n)
	})
}

// Server is one file-server instance (primary or active backup twin). It
// owns name resolution for every open in the system: file names open
// channels to the file server itself; "chan:" names rendezvous two user
// processes (§7.4.1: "the file server pairs up openers to the same name");
// "tty:" names bind a channel to the terminal server.
type Server struct {
	pid     types.PID
	cluster types.ClusterID
	disk    *disk.Disk
	super   disk.BlockID
	vol     *fsVolume

	replicated

	sinceSync int
	// SyncEvery sets how many requests are serviced between explicit
	// server syncs (each sync also flushes the cache to disk, §7.9).
	SyncEvery int

	// replyLog retains, per serviced request, the replies it generated —
	// persisted in the on-disk server record so a promoted twin can
	// re-send (suppressed if already delivered) the replies of requests
	// whose disk effects are already committed, instead of re-applying
	// them. Bounded FIFO; see maxReplyLog.
	replyLog []requestRecord
	// curRecord accumulates the replies of the request being serviced.
	curRecord *requestRecord
}

// maxReplyLog bounds the retained reply history (multiple sync windows; a
// reconciliation gap beyond this would require that many server syncs to
// be simultaneously in flight at the crash).
const maxReplyLog = 256

// requestRecord is one serviced request's channel and generated replies.
type requestRecord struct {
	ReqCh   types.ChannelID
	Replies []loggedReply
}

type loggedReply struct {
	Ch      types.ChannelID
	Dst     types.PID
	Kind    types.Kind
	Payload []byte
}

var _ kernel.Server = (*Server)(nil)

// New creates a file-server instance over a formatted volume. The primary
// passes mountNow=true; the twin defers mounting until promotion (its view
// of the dual-ported disk is only needed then).
func New(pid types.PID, cluster types.ClusterID, d *disk.Disk, super disk.BlockID, mountNow bool) (*Server, error) {
	s := &Server{
		pid:        pid,
		cluster:    cluster,
		disk:       d,
		super:      super,
		replicated: newReplicated(),
		SyncEvery:  16,
	}
	if mountNow {
		v, err := mount(d, cluster, super)
		if err != nil {
			return nil, err
		}
		s.vol = v
	}
	return s, nil
}

// PID implements kernel.Server.
func (s *Server) PID() types.PID { return s.pid }

// Super returns the superblock id of the mounted volume (needed to mount a
// replacement twin on a restored cluster).
func (s *Server) Super() disk.BlockID { return s.super }

func (s *Server) allocChannel() types.ChannelID {
	id := types.ChannelID(uint64(s.pid)<<40 | s.nextChan)
	s.nextChan++
	return id
}

// Receive implements kernel.Server.
func (s *Server) Receive(ctx *kernel.ServerCtx, m *types.Message) {
	rec := &requestRecord{ReqCh: m.Channel}
	s.curRecord = rec
	handled := s.service(ctx, m)
	s.curRecord = nil
	if !handled {
		return
	}
	s.replyLog = append(s.replyLog, *rec)
	if len(s.replyLog) > maxReplyLog {
		s.replyLog = s.replyLog[len(s.replyLog)-maxReplyLog:]
	}
	s.sinceSync++
	if s.sinceSync >= s.SyncEvery {
		s.syncNow(ctx)
	}
}

// service counts one request on its channel and services it, reporting
// whether it was a request the file server handles (open and file-op
// requests; any other kind is counted, since the twin saved it too, and
// otherwise ignored).
func (s *Server) service(ctx *kernel.ServerCtx, m *types.Message) bool {
	s.serviced[m.Channel]++
	switch m.Kind {
	case types.KindOpenRequest:
		s.handleOpen(ctx, m)
	case types.KindData:
		s.handleFileOp(ctx, m)
	default:
		return false
	}
	return true
}

// sendReply routes one reply and logs it against the current request.
func (s *Server) sendReply(ctx *kernel.ServerCtx, ch types.ChannelID, dst types.PID, kind types.Kind, payload []byte) {
	if s.curRecord != nil {
		s.curRecord.Replies = append(s.curRecord.Replies, loggedReply{Ch: ch, Dst: dst, Kind: kind, Payload: payload})
	}
	ctx.Reply(ch, dst, kind, payload)
}

// SyncNow forces an immediate flush-and-sync (used when a twin is
// re-established on a restored cluster, so it starts from current state).
// Call through kernel.ServerInject on the primary instance.
func (s *Server) SyncNow(ctx *kernel.ServerCtx) { s.syncNow(ctx) }

// syncNow flushes the cache to disk — committing, in the same atomic
// superblock flip, a server record holding the sync blob (serviced counts
// included) and the reply log — and then sends the explicit
// server sync. The bulk of the server's state reaches the backup via the
// dual-ported disk, and only the small request/binding state travels by
// message (§7.9). If the cluster dies between the flush and the message
// escaping, the promoted twin reads the record off the disk and reconciles
// its saved queue against it (Promote), so no request's effects are ever
// applied twice.
func (s *Server) syncNow(ctx *kernel.ServerCtx) {
	s.sinceSync = 0
	if s.vol != nil {
		rec := &serverRecord{Blob: s.SyncBlob(), Log: s.replyLog}
		if _, err := s.vol.flush(wire.Encode(rec.codec)); err != nil {
			return
		}
	}
	ctx.Sync()
}

// serverRecord is what a flush commits beside the file system: the sync
// blob and the retained reply log.
type serverRecord struct {
	Blob []byte
	Log  []requestRecord
}

func (sr *serverRecord) codec(c *wire.Codec) {
	c.Bytes32(&sr.Blob)
	for i := range wire.Grow(c, &sr.Log, 12) {
		rec := &sr.Log[i]
		c.U64((*uint64)(&rec.ReqCh))
		for j := range wire.Grow(c, &rec.Replies, 21) {
			rp := &rec.Replies[j]
			c.U64((*uint64)(&rp.Ch))
			c.U64((*uint64)(&rp.Dst))
			c.U8((*uint8)(&rp.Kind))
			c.Bytes32(&rp.Payload)
		}
	}
}

// handleOpen services one open request (§7.4.1).
func (s *Server) handleOpen(ctx *kernel.ServerCtx, m *types.Message) {
	req, err := kernel.Decode[kernel.OpenRequest](m.Payload)
	if err != nil {
		return
	}
	fail := func(msg string) {
		r := &kernel.OpenReply{Err: msg}
		s.sendReply(ctx, m.Channel, m.Src, types.KindOpenReply, kernel.Encode(r))
	}
	switch {
	case strings.HasPrefix(req.Name, "chan:"):
		if p, ok := s.pending[req.Name]; ok && p.Opener != req.Opener {
			delete(s.pending, req.Name)
			ch := s.allocChannel()
			toFirst := &kernel.OpenReply{
				Channel:           ch,
				Peer:              req.Opener,
				PeerCluster:       req.OpenerCluster,
				PeerBackupCluster: req.OpenerBackupCluster,
			}
			toSecond := &kernel.OpenReply{
				Channel:           ch,
				Peer:              p.Opener,
				PeerCluster:       p.OpenerCluster,
				PeerBackupCluster: p.OpenerBackup,
			}
			s.sendReply(ctx, p.ControlCh, p.Opener, types.KindOpenReply, kernel.Encode(toFirst))
			s.sendReply(ctx, m.Channel, m.Src, types.KindOpenReply, kernel.Encode(toSecond))
			return
		}
		s.pending[req.Name] = pendingPair{
			Opener:        req.Opener,
			ControlCh:     m.Channel,
			OpenerCluster: req.OpenerCluster,
			OpenerBackup:  req.OpenerBackupCluster,
		}
		// No reply yet: the opener blocks until a partner arrives.
		return

	case strings.HasPrefix(req.Name, "serve:"):
		svcName := strings.TrimPrefix(req.Name, "serve:")
		if _, dup := s.services[svcName]; dup {
			fail("service already registered")
			return
		}
		listenCh := s.allocChannel()
		svc := serviceReg{
			Listener:        req.Opener,
			ListenCh:        listenCh,
			ListenerCluster: req.OpenerCluster,
			ListenerBackup:  req.OpenerBackupCluster,
		}
		s.services[svcName] = svc
		loc, _ := ctx.Directory().Service(s.pid)
		reply := &kernel.OpenReply{
			Channel:           listenCh,
			Peer:              s.pid,
			PeerCluster:       loc.Primary,
			PeerBackupCluster: loc.Backup,
			PeerIsServer:      true,
		}
		s.sendReply(ctx, m.Channel, m.Src, types.KindOpenReply, kernel.Encode(reply))
		// Clients that dialed early connect now, in arrival order; their
		// accept notices trail the registration reply in FIFO order.
		for _, pp := range s.pendingServe[svcName] {
			s.connectClient(ctx, svc, pp)
		}
		delete(s.pendingServe, svcName)
		return

	case strings.HasPrefix(req.Name, "dial:"):
		svcName := strings.TrimPrefix(req.Name, "dial:")
		pp := pendingPair{
			Opener:        req.Opener,
			ControlCh:     m.Channel,
			OpenerCluster: req.OpenerCluster,
			OpenerBackup:  req.OpenerBackupCluster,
		}
		if svc, ok := s.services[svcName]; ok {
			s.connectClient(ctx, svc, pp)
		} else {
			// The client blocks until the listener registers.
			s.pendingServe[svcName] = append(s.pendingServe[svcName], pp)
		}
		return

	case strings.HasPrefix(req.Name, "tty:"):
		var term int
		if _, err := fmt.Sscanf(req.Name, "tty:%d", &term); err != nil {
			fail("bad terminal name")
			return
		}
		ttyLoc, ok := ctx.Directory().Service(directory.PIDTTYServer)
		if !ok {
			fail("no terminal server")
			return
		}
		ch := s.allocChannel()
		s.bindings[ch] = &binding{Kind: bindTTY, Name: req.Name, User: req.Opener}
		// Tell the terminal server about the binding before replying, so
		// bus total order guarantees it knows the channel before the
		// user's first write arrives.
		bind := ttyserver.EncodeBind(ch, term, req.Opener)
		s.sendReply(ctx, ch, directory.PIDTTYServer, types.KindData, bind)
		reply := &kernel.OpenReply{
			Channel:           ch,
			Peer:              directory.PIDTTYServer,
			PeerCluster:       ttyLoc.Primary,
			PeerBackupCluster: ttyLoc.Backup,
			PeerIsServer:      true,
		}
		s.sendReply(ctx, m.Channel, m.Src, types.KindOpenReply, kernel.Encode(reply))
		return

	default: // ordinary file
		if s.vol == nil {
			fail("file system not mounted")
			return
		}
		s.vol.create(req.Name)
		ch := s.allocChannel()
		s.bindings[ch] = &binding{Kind: bindFile, Name: req.Name, User: req.Opener}
		loc, _ := ctx.Directory().Service(s.pid)
		reply := &kernel.OpenReply{
			Channel:           ch,
			Peer:              s.pid,
			PeerCluster:       loc.Primary,
			PeerBackupCluster: loc.Backup,
			PeerIsServer:      true,
		}
		s.sendReply(ctx, m.Channel, m.Src, types.KindOpenReply, kernel.Encode(reply))
		return
	}
}

// connectClient joins a dialing client to a registered listener: a fresh
// channel, an open reply to the client, and an accept notice (also an open
// reply, describing the client end) on the listening channel.
func (s *Server) connectClient(ctx *kernel.ServerCtx, svc serviceReg, pp pendingPair) {
	ch := s.allocChannel()
	accept := &kernel.OpenReply{
		Channel:           ch,
		Peer:              pp.Opener,
		PeerCluster:       pp.OpenerCluster,
		PeerBackupCluster: pp.OpenerBackup,
	}
	toClient := &kernel.OpenReply{
		Channel:           ch,
		Peer:              svc.Listener,
		PeerCluster:       svc.ListenerCluster,
		PeerBackupCluster: svc.ListenerBackup,
	}
	s.sendReply(ctx, svc.ListenCh, svc.Listener, types.KindOpenReply, kernel.Encode(accept))
	s.sendReply(ctx, pp.ControlCh, pp.Opener, types.KindOpenReply, kernel.Encode(toClient))
}

// handleFileOp services one request on a bound file channel.
func (s *Server) handleFileOp(ctx *kernel.ServerCtx, m *types.Message) {
	b, ok := s.bindings[m.Channel]
	if !ok || b.Kind != bindFile {
		r := &Reply{Err: "unknown channel"}
		s.sendReply(ctx, m.Channel, m.Src, types.KindData, wire.Encode(r.codec))
		return
	}
	req := new(Request)
	if err := wire.Decode(m.Payload, req.codec); err != nil {
		r := &Reply{Err: "bad request"}
		s.sendReply(ctx, m.Channel, m.Src, types.KindData, wire.Encode(r.codec))
		return
	}
	reply := s.execute(b, req)
	s.sendReply(ctx, m.Channel, b.User, types.KindData, wire.Encode(reply.codec))
}

// execute applies one file operation to the volume and the channel cursor.
func (s *Server) execute(b *binding, req *Request) *Reply {
	if s.vol == nil {
		return &Reply{Err: "file system not mounted"}
	}
	switch req.Op {
	case OpRead:
		data, ok, err := s.vol.readFile(b.Name)
		if err != nil {
			return &Reply{Err: err.Error()}
		}
		if !ok {
			return &Reply{Err: "not found"}
		}
		off := b.Offset
		if off > int64(len(data)) {
			off = int64(len(data))
		}
		end := off + int64(req.Count)
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		out := append([]byte(nil), data[off:end]...)
		b.Offset = end
		return &Reply{Data: out, Size: int64(len(data))}
	case OpWrite:
		if err := s.vol.writeFile(b.Name, b.Offset, req.Data); err != nil {
			return &Reply{Err: err.Error()}
		}
		b.Offset += int64(len(req.Data))
		sz, _ := s.vol.size(b.Name)
		return &Reply{Size: sz}
	case OpAppend:
		sz, ok := s.vol.size(b.Name)
		if !ok {
			return &Reply{Err: "not found"}
		}
		if err := s.vol.writeFile(b.Name, sz, req.Data); err != nil {
			return &Reply{Err: err.Error()}
		}
		b.Offset = sz + int64(len(req.Data))
		return &Reply{Size: b.Offset}
	case OpSeek:
		b.Offset = req.Offset
		return &Reply{Size: b.Offset}
	case OpStat:
		sz, ok := s.vol.size(b.Name)
		if !ok {
			return &Reply{Err: "not found"}
		}
		return &Reply{Size: sz}
	case OpTrunc:
		if err := s.vol.truncate(b.Name, req.Offset); err != nil {
			return &Reply{Err: err.Error()}
		}
		return &Reply{Size: req.Offset}
	case OpUnlink:
		s.vol.unlink(b.Name)
		return &Reply{}
	default:
		return &Reply{Err: "bad op"}
	}
}

// SyncBlob implements kernel.Server.
func (s *Server) SyncBlob() []byte { return wire.Encode(s.replicated.codec) }

// ApplySync implements kernel.Server.
func (s *Server) ApplySync(blob []byte) {
	st := newReplicated()
	if wire.Decode(blob, st.codec) == nil {
		s.replicated = st
	}
}

// Promote implements kernel.Server: mount the committed file system from
// the shared disk (the state as of the last flush — older blocks were never
// destroyed before their replacement committed), reconcile the saved queue
// against the on-disk server record, and replay what remains.
//
// The reconciliation closes the crash window between a flush and its
// server-sync message: the record's blob carries the serviced counts as of
// the commit, the twin's those of the last sync it applied, so saved
// requests whose effects are already on disk are dropped here (their
// replies are covered by the reply-suppression counts) instead of being
// applied a second time.
func (s *Server) Promote(ctx *kernel.ServerCtx, saved []*types.Message) {
	v, err := mount(s.disk, s.cluster, s.super)
	if err != nil {
		return
	}
	s.vol = v
	extra := make(map[types.ChannelID]uint64)
	logByCh := make(map[types.ChannelID][]requestRecord)
	if sr := new(serverRecord); v.persisted != nil && wire.Decode(v.persisted, sr.codec) == nil {
		applied := s.serviced
		s.ApplySync(sr.Blob)
		for ch, n := range s.serviced {
			if n > applied[ch] {
				extra[ch] = n - applied[ch]
			}
		}
		// The log holds the most recent serviced requests: on each
		// channel, the last extra[ch] are those beyond the applied sync.
		for _, rec := range sr.Log {
			logByCh[rec.ReqCh] = append(logByCh[rec.ReqCh], rec)
		}
		for ch, lst := range logByCh {
			logByCh[ch] = lst[uint64(len(lst))-min(extra[ch], uint64(len(lst))):]
		}
		s.replyLog = sr.Log
	}
	// Drop, per channel and oldest first, the requests the disk already
	// reflects, re-sending their logged replies (reply suppression silences
	// the ones that already escaped the failed primary); replay the rest.
	for _, m := range saved {
		if extra[m.Channel] == 0 {
			s.service(ctx, m)
			continue
		}
		extra[m.Channel]--
		if lst := logByCh[m.Channel]; len(lst) > 0 {
			logByCh[m.Channel] = lst[1:]
			for _, rp := range lst[0].Replies {
				ctx.Reply(rp.Ch, rp.Dst, rp.Kind, rp.Payload)
			}
		}
	}
}

// Register wires a file-server pair onto two disk-attached kernels: primary
// instance on ka, active backup twin on kb, over a freshly formatted volume.
func Register(ka, kb *kernel.Kernel, d *disk.Disk) (*Server, *Server, error) {
	super, err := Format(d, ka.ID())
	if err != nil {
		return nil, nil, err
	}
	pid := directory.PIDFileServer
	primary, err := New(pid, ka.ID(), d, super, true)
	if err != nil {
		return nil, nil, err
	}
	twin, err := New(pid, kb.ID(), d, super, false)
	if err != nil {
		return nil, nil, err
	}
	ka.RegisterServer(primary, routing.Primary, ka.ID())
	kb.RegisterServer(twin, routing.Backup, ka.ID())
	ka.Directory().SetService(pid, directory.ServiceLoc{Primary: ka.ID(), Backup: kb.ID()})
	return primary, twin, nil
}
