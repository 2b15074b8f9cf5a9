package guest

import (
	"fmt"

	"auragen/internal/memory"
	"auragen/internal/types"
)

// Handler is the application-facing face of a reactor guest: plain Go code
// invoked once per input event. Handlers must be written statelessly — all
// mutable state goes through the State (a page-backed KV heap), never in
// Go struct fields — so that the state captured at a sync is complete and a
// recovering backup reconstructs the handler from the restored heap.
type Handler interface {
	// Start runs when the process first begins execution. It is also
	// re-run by a backup whose primary crashed before the first sync; its
	// message sends are then suppressed by the writes-since-sync counts,
	// so the rest of the system sees them exactly once.
	Start(p API, st *State) error

	// OnMessage handles one message read from a channel. data is shared
	// with the sender and with the backup's saved copy: read it, never
	// modify it.
	OnMessage(p API, st *State, fd types.FD, data []byte) error

	// OnSignal handles one unignored asynchronous signal.
	OnSignal(p API, st *State, sig types.Signal) error
}

// HandlerFuncs adapts three funcs to the Handler interface; nil fields are
// no-ops.
type HandlerFuncs struct {
	StartFunc     func(p API, st *State) error
	OnMessageFunc func(p API, st *State, fd types.FD, data []byte) error
	OnSignalFunc  func(p API, st *State, sig types.Signal) error
}

// Start implements Handler.
func (h HandlerFuncs) Start(p API, st *State) error {
	if h.StartFunc == nil {
		return nil
	}
	return h.StartFunc(p, st)
}

// OnMessage implements Handler.
func (h HandlerFuncs) OnMessage(p API, st *State, fd types.FD, data []byte) error {
	if h.OnMessageFunc == nil {
		return nil
	}
	return h.OnMessageFunc(p, st, fd, data)
}

// OnSignal implements Handler.
func (h HandlerFuncs) OnSignal(p API, st *State, sig types.Signal) error {
	if h.OnSignalFunc == nil {
		return nil
	}
	return h.OnSignalFunc(p, st, sig)
}

// State is the durable state of a reactor guest: a KV heap living in the
// process address space, plus the exit latch.
type State struct {
	*memory.KV
	exited bool
}

// Exit asks the reactor loop to stop after the current handler returns;
// the process then exits normally.
func (s *State) Exit() { s.exited = true }

// Reactor wraps a Handler into a Guest: the kernel-driven read loop with
// deterministic event ordering and handler-boundary sync points.
func Reactor(h Handler) Guest {
	return &reactor{h: h}
}

// ReactorFactory returns a Factory producing Reactor guests over handlers
// built by mk. Handlers must not close over mutable state (see Handler).
func ReactorFactory(mk func() Handler) Factory {
	return func() Guest { return Reactor(mk()) }
}

type reactor struct {
	h  Handler
	st *State

	// started records that Start has completed; carried in the sync regs
	// so a recovering backup knows whether to re-run Start.
	started bool
}

var _ Guest = (*reactor)(nil)

func (r *reactor) Run(p API) error {
	kv, err := memory.NewKV(p.Space())
	if err != nil {
		return fmt.Errorf("reactor %s: restoring state heap: %w", p.PID(), err)
	}
	r.st = &State{KV: kv}

	if !r.started {
		if err := r.h.Start(p, r.st); err != nil {
			return err
		}
		r.started = true
		// An exit inside Start goes without a sync, as below: the exit latch
		// is not part of the captured state, so a backup brought up from a
		// sync taken here would skip Start and wait for input that never
		// comes. Without one it re-runs Start and exits again.
		if !r.st.exited {
			p.Tick(1)
			if err := p.SyncPoint(); err != nil {
				return err
			}
		}
	}

	for !r.st.exited {
		ev, err := p.NextEvent()
		if err != nil {
			return err
		}
		if ev.IsSignal {
			err = r.h.OnSignal(p, r.st, ev.Signal)
		} else {
			err = r.h.OnMessage(p, r.st, ev.FD, ev.Data)
		}
		if err != nil {
			return err
		}
		if r.st.exited {
			// Exit without a final sync: if the exit notice is lost with a
			// crash, the backup replays this last event and exits again.
			break
		}
		p.Tick(1)
		if err := p.SyncPoint(); err != nil {
			return err
		}
	}
	return nil
}

func (r *reactor) FlushState() {
	if r.st != nil {
		r.st.Flush()
	}
}

func (r *reactor) MarshalRegs() []byte {
	var b byte
	if r.started {
		b = 1
	}
	return []byte{b}
}

func (r *reactor) UnmarshalRegs(data []byte) error {
	r.started = len(data) > 0 && data[0] == 1
	return nil
}
