package kernel

import (
	"auragen/internal/bus"
	"auragen/internal/types"
)

// RaceEnabled reports whether the race detector is on; budget_test.go's
// allocation gate does not hold under it.
const RaceEnabled = raceEnabled

// SyncRig lets budget_test.go drive the goroutine-free rig of
// transmit_test.go from package kernel_test, where it has to live: it needs
// the real page server, and package pager imports this one.
type SyncRig struct {
	proc    *Proc
	pagers  [2]*Kernel // clusters 0 and 1: the page server and its mirror
	bufs    [2][]types.Message
	backup  *bus.Inbox // cluster 3, the process's backup
	backBuf []types.Message
}

// NewSyncRig is newTxRig — a process on cluster 1, which the page server's
// mirror shares with it — plus a second never-started kernel on cluster 0 for
// the page server itself. The process's backup cluster is a port the rig
// drains and ignores.
func NewSyncRig(primary, mirror PagerSink) *SyncRig {
	r := newTxRig()
	k0 := New(Config{ID: 0, Bus: r.bus, Dir: r.k.dir, Registry: r.k.reg, Metrics: r.metrics})
	k0.SetPager(primary)
	r.k.SetPager(mirror)
	return &SyncRig{proc: r.pr, pagers: [2]*Kernel{k0, r.k}, backup: r.bus.Attach(3)}
}

// Proc returns the rig's process.
func (s *SyncRig) Proc() *Proc { return s.proc }

// Sync takes one capture at the process, which transmits it, and then does
// what each receiving executive's loop would: drain the inbox, dispatch.
func (s *SyncRig) Sync() error {
	s.proc.Tick(DefaultSyncTicks)
	if err := s.proc.SyncPoint(); err != nil {
		return err
	}
	for i, k := range s.pagers {
		ms, _ := k.inbox.PopAll(s.bufs[i])
		k.dispatchBatch(ms)
		s.bufs[i] = ms
	}
	s.backBuf, _ = s.backup.PopAll(s.backBuf)
	return nil
}
