// Package procserver implements the process server of §7.6: a system
// server that tracks global process state and answers requests for
// system-status information. Crucially, it also owns the time and alarm
// services (§7.5.1–§7.5.2): time is environmental kernel state that a user
// process may not read directly, so "time sends a request via message, and
// receives its answer via message — the backup will have the same response
// available."
package procserver

import (
	"sync"
	"time"

	"auragen/internal/directory"
	"auragen/internal/kernel"
	"auragen/internal/routing"
	"auragen/internal/types"
	"auragen/internal/wire"
)

// Server is one process-server instance (primary or active backup twin).
type Server struct {
	pid types.PID
	k   *kernel.Kernel

	mu sync.Mutex
	// alarms maps pid to pending alarm deadline (nanoseconds). Part of
	// the sync blob so the twin re-arms timers on promotion.
	alarms map[types.PID]int64
	// timers tracks armed Go timers (primary instance only).
	timers map[types.PID]*time.Timer
	// requests since the last explicit sync.
	sinceSync int
	// SyncEvery controls how often the server syncs its twin.
	SyncEvery int
}

var _ kernel.Server = (*Server)(nil)

// New creates a process-server instance bound to its hosting kernel.
func New(pid types.PID, k *kernel.Kernel) *Server {
	return &Server{
		pid:       pid,
		k:         k,
		alarms:    make(map[types.PID]int64),
		timers:    make(map[types.PID]*time.Timer),
		SyncEvery: 8,
	}
}

// PID implements kernel.Server.
func (s *Server) PID() types.PID { return s.pid }

// Receive implements kernel.Server.
func (s *Server) Receive(ctx *kernel.ServerCtx, m *types.Message) {
	if m.Kind == types.KindOpenRequest {
		// The process server is not a name server; opens are the file
		// server's business.
		reply := &kernel.OpenReply{Err: "process server does not open names"}
		ctx.Reply(m.Channel, m.Src, types.KindOpenReply, kernel.Encode(reply))
		return
	}
	req, err := kernel.Decode[kernel.ProcMsg](m.Payload)
	if err != nil {
		return
	}
	reply := func(v uint64) {
		ctx.Reply(m.Channel, m.Src, types.KindData, kernel.Encode(&kernel.ProcMsg{Op: req.Op, Arg: v}))
	}
	switch req.Op {
	case kernel.ProcOpTime:
		reply(uint64(ctx.Now()))
	case kernel.ProcOpAlarm:
		s.armAlarm(m.Src, time.Duration(req.Arg))
	case kernel.ProcOpWhere:
		cluster := uint64(0xFFFFFFFF)
		if loc, ok := ctx.Directory().Proc(types.PID(req.Arg)); ok {
			cluster = uint64(uint32(loc.Cluster))
		}
		reply(cluster)
	case kernel.ProcOpCount:
		reply(uint64(len(ctx.Directory().Procs())))
	}
	s.mu.Lock()
	s.sinceSync++
	due := s.sinceSync >= s.SyncEvery
	if due {
		s.sinceSync = 0
	}
	s.mu.Unlock()
	if due {
		ctx.Sync()
	}
}

// armAlarm schedules a SigAlarm for pid after d (§7.5.2: "alarm requests
// that an alarm signal be generated after a particular amount of real
// time").
func (s *Server) armAlarm(pid types.PID, d time.Duration) {
	deadline := time.Now().Add(d).UnixNano()
	s.mu.Lock()
	s.alarms[pid] = deadline
	if old, ok := s.timers[pid]; ok {
		old.Stop()
	}
	s.timers[pid] = time.AfterFunc(d, func() { s.fireAlarm(pid) })
	s.mu.Unlock()
}

// fireAlarm delivers the alarm signal through the message system so both
// the process and its backup see it.
func (s *Server) fireAlarm(pid types.PID) {
	s.mu.Lock()
	if _, ok := s.alarms[pid]; !ok {
		s.mu.Unlock()
		return
	}
	delete(s.alarms, pid)
	delete(s.timers, pid)
	s.mu.Unlock()
	s.k.ServerInject(s.pid, func(ctx *kernel.ServerCtx, _ kernel.Server) {
		ctx.SendSignal(pid, types.SigAlarm)
	})
}

// SyncBlob implements kernel.Server: the pending-alarm table.
func (s *Server) SyncBlob() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return wire.Encode(func(c *wire.Codec) { alarmTable(c, &s.alarms) })
}

// ApplySync implements kernel.Server.
func (s *Server) ApplySync(blob []byte) {
	alarms := make(map[types.PID]int64)
	if wire.Decode(blob, func(c *wire.Codec) { alarmTable(c, &alarms) }) != nil {
		return
	}
	s.mu.Lock()
	s.alarms = alarms
	s.mu.Unlock()
}

// alarmTable codes the pending alarms: pid and deadline in Unix nanoseconds.
func alarmTable(c *wire.Codec, alarms *map[types.PID]int64) {
	wire.Map(c, alarms, 16, func(pid *types.PID, deadline *int64) {
		c.U64((*uint64)(pid))
		c.I64(deadline)
	})
}

// Promote implements kernel.Server: re-arm pending alarms (overdue ones
// fire immediately) and replay unserviced requests.
func (s *Server) Promote(ctx *kernel.ServerCtx, saved []*types.Message) {
	s.mu.Lock()
	now := time.Now().UnixNano()
	for pid, dl := range s.alarms {
		d := time.Duration(dl - now)
		if d < 0 {
			d = 0
		}
		p := pid
		s.timers[p] = time.AfterFunc(d, func() { s.fireAlarm(p) })
	}
	s.mu.Unlock()
	for _, m := range saved {
		s.Receive(ctx, m)
	}
}

// Register wires a process-server pair onto the system: the primary
// instance on ka, the active backup twin on kb, locations recorded in the
// directory.
func Register(ka, kb *kernel.Kernel) (*Server, *Server) {
	pid := directory.PIDProcServer
	primary := New(pid, ka)
	twin := New(pid, kb)
	ka.RegisterServer(primary, routing.Primary, ka.ID())
	kb.RegisterServer(twin, routing.Backup, ka.ID())
	ka.Directory().SetService(pid, directory.ServiceLoc{Primary: ka.ID(), Backup: kb.ID()})
	return primary, twin
}
