// Package ttyserver implements the terminal server (§7.6: "There is a tty
// server in each cluster having terminals"). Terminals are external
// devices: typed input enters the message world through the server's
// device-driver path, and process output leaves it onto the terminal's
// output log. Interrupts (control-C) become asynchronous signals delivered
// as messages to the foreground process and its backup (§7.5.2).
//
// The tty server is a peripheral server: memory-resident, active backup
// twin, explicit syncs. Input typed between the last sync and a crash is
// lost with the cluster — just as characters in a real UART FIFO are — so
// the server syncs after every injected line to keep that window minimal.
package ttyserver

import (
	"sort"
	"sync"

	"auragen/internal/directory"
	"auragen/internal/kernel"
	"auragen/internal/routing"
	"auragen/internal/types"
	"auragen/internal/wire"
)

// Device is the external terminal hardware shared by the two clusters the
// server pair runs in (terminals, like disks, are dual-ported, §7.1).
// Output written here has left the fault domain: it is what the user saw.
type Device struct {
	mu      sync.Mutex
	outputs map[int][]string
	// seen tracks the highest write serial applied per channel: the
	// device-level dedup that makes a promoted twin's replayed writes
	// idempotent (the §7.9 analogue of a disk controller ignoring
	// re-issued command ids).
	seen map[types.ChannelID]uint64
	// notify announces each applied line to whoever waits on terminal
	// output. It runs after mu is released, under the tty server's kernel
	// lock, so it must not block.
	notify func()
}

// NewDevice creates the terminal hardware. notify is called after each line
// the device applies.
func NewDevice(notify func()) *Device {
	return &Device{
		outputs: make(map[int][]string),
		seen:    make(map[types.ChannelID]uint64),
		notify:  notify,
	}
}

// Output returns the lines written to terminal term.
func (d *Device) Output(term int) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, len(d.outputs[term]))
	copy(out, d.outputs[term])
	return out
}

// Write appends line to terminal term, as output that rides no channel
// and so needs no dedup.
func (d *Device) Write(term int, line string) {
	d.mu.Lock()
	d.outputs[term] = append(d.outputs[term], line)
	d.mu.Unlock()
	d.notify()
}

// writeDedup applies a serialized channel write at most once.
func (d *Device) writeDedup(term int, line string, ch types.ChannelID, serial uint64) {
	d.mu.Lock()
	if serial <= d.seen[ch] {
		d.mu.Unlock()
		return
	}
	d.seen[ch] = serial
	d.outputs[term] = append(d.outputs[term], line)
	d.mu.Unlock()
	d.notify()
}

// Tty-server message ops carried in KindData payloads.
const (
	opBind  uint8 = 1 // file server announces a channel→terminal binding
	opWrite uint8 = 2 // user writes a line to the terminal
	opRead  uint8 = 3 // user requests the next input line
)

// EncodeBind builds the binding announcement the file server sends when a
// user opens "tty:N".
func EncodeBind(ch types.ChannelID, term int, user types.PID) []byte {
	w := wire.NewWriter(24)
	w.U8(opBind)
	w.U64(uint64(ch))
	w.I64(int64(term))
	w.U64(uint64(user))
	return w.Bytes()
}

// WriteReq builds a terminal write request.
func WriteReq(line string) []byte {
	w := wire.NewWriter(8 + len(line))
	w.U8(opWrite)
	w.String(line)
	return w.Bytes()
}

// ReadReq builds a terminal read request; the reply payload is the next
// input line.
func ReadReq() []byte {
	w := wire.NewWriter(1)
	w.U8(opRead)
	return w.Bytes()
}

type ttyBinding struct {
	Term int
	User types.PID
	// Serial numbers the channel's terminal writes so the device can
	// deduplicate replayed writes after a promotion.
	Serial uint64
}

// replicated is the tty server's state that the explicit server sync
// carries to the twin.
type replicated struct {
	bindings map[types.ChannelID]ttyBinding
	// inputs holds typed-but-unread lines per terminal.
	inputs map[int][]string
	// pendingReads holds read requests awaiting input, per terminal, in
	// arrival order.
	pendingReads map[int][]types.ChannelID
}

func newReplicated() replicated {
	return replicated{
		bindings:     make(map[types.ChannelID]ttyBinding),
		inputs:       make(map[int][]string),
		pendingReads: make(map[int][]types.ChannelID),
	}
}

func (st *replicated) codec(c *wire.Codec) {
	wire.Map(c, &st.bindings, 32, func(ch *types.ChannelID, b *ttyBinding) {
		c.U64((*uint64)(ch))
		c.Int(&b.Term)
		c.U64((*uint64)(&b.User))
		c.U64(&b.Serial)
	})
	wire.Map(c, &st.inputs, 12, func(term *int, lines *[]string) {
		c.Int(term)
		for i := range wire.Grow(c, lines, 4) {
			c.String(&(*lines)[i])
		}
	})
	wire.Map(c, &st.pendingReads, 12, func(term *int, chans *[]types.ChannelID) {
		c.Int(term)
		wire.U64s(c, chans)
	})
}

// Server is one tty-server instance.
type Server struct {
	pid    types.PID
	device *Device
	replicated
}

var _ kernel.Server = (*Server)(nil)

// New creates a tty-server instance over the shared device.
func New(pid types.PID, device *Device) *Server {
	return &Server{pid: pid, device: device, replicated: newReplicated()}
}

// PID implements kernel.Server.
func (s *Server) PID() types.PID { return s.pid }

// Receive implements kernel.Server.
func (s *Server) Receive(ctx *kernel.ServerCtx, m *types.Message) {
	if m.Kind != types.KindData || len(m.Payload) == 0 {
		return
	}
	r := wire.NewReader(m.Payload)
	switch r.U8() {
	case opBind:
		ch := types.ChannelID(r.U64())
		term := int(r.I64())
		user := types.PID(r.U64())
		if r.Done() == nil {
			b := s.bindings[ch]
			b.Term, b.User = term, user
			s.bindings[ch] = b
		}
	case opWrite:
		line := r.String()
		if r.Done() != nil {
			return
		}
		b, ok := s.bindings[m.Channel]
		if !ok {
			return
		}
		b.Serial++
		s.bindings[m.Channel] = b
		s.device.writeDedup(b.Term, line, m.Channel, b.Serial)
		ctx.Sync()
	case opRead:
		b, ok := s.bindings[m.Channel]
		if !ok {
			return
		}
		if lines := s.inputs[b.Term]; len(lines) > 0 {
			s.inputs[b.Term] = lines[1:]
			ctx.Reply(m.Channel, b.User, types.KindData, []byte(lines[0]))
		} else {
			s.pendingReads[b.Term] = append(s.pendingReads[b.Term], m.Channel)
		}
		ctx.Sync()
	}
}

// InjectInput is the device-driver path for typed input: deliver to the
// oldest pending read or buffer it. Must be called through
// kernel.ServerInject on the primary instance.
func (s *Server) InjectInput(ctx *kernel.ServerCtx, term int, line string) {
	if pend := s.pendingReads[term]; len(pend) > 0 {
		ch := pend[0]
		s.pendingReads[term] = pend[1:]
		if b, ok := s.bindings[ch]; ok {
			ctx.Reply(ch, b.User, types.KindData, []byte(line))
		}
	} else {
		s.inputs[term] = append(s.inputs[term], line)
	}
	ctx.Sync()
}

// InjectInterrupt is the device-driver path for a control-C: an
// asynchronous signal, sent via message to every process bound to the
// terminal and to their backups (§7.5.2).
func (s *Server) InjectInterrupt(ctx *kernel.ServerCtx, term int) {
	users := make(map[types.PID]bool)
	for _, b := range s.bindings {
		if b.Term == term {
			users[b.User] = true
		}
	}
	pids := make([]types.PID, 0, len(users))
	for pid := range users {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		ctx.SendSignal(pid, types.SigInt)
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

// Promote implements kernel.Server.
func (s *Server) Promote(ctx *kernel.ServerCtx, saved []*types.Message) {
	for _, m := range saved {
		s.Receive(ctx, m)
	}
}

// Register wires a tty-server pair onto two terminal-equipped kernels.
func Register(ka, kb *kernel.Kernel, device *Device) (*Server, *Server) {
	pid := directory.PIDTTYServer
	primary := New(pid, device)
	twin := New(pid, device)
	ka.RegisterServer(primary, routing.Primary, ka.ID())
	kb.RegisterServer(twin, routing.Backup, ka.ID())
	ka.Directory().SetService(pid, directory.ServiceLoc{Primary: ka.ID(), Backup: kb.ID()})
	return primary, twin
}
