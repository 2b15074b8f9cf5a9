// Package guest defines the interface between user processes and the
// kernel: the syscall surface (API), the deterministic process-body
// contract (Guest), and the Reactor adapter that lets ordinary Go handler
// code run as an Auragen user process.
//
// The whole fault-tolerance scheme rests on the determinism requirement of
// §4: "If two processes start out in the identical state, and receive
// identical input, they will perform identically and thus produce identical
// output." A Guest therefore must (1) keep all mutable state in its address
// space (so a sync snapshot captures it), (2) take input only through the
// API (so saved messages replay it), and (3) never read wall clocks, random
// sources, or other environmental kernel state directly — time comes from
// the process server via message, like every other nondeterministic input,
// so the backup sees the same answer (§7.5.1).
package guest

import (
	"time"

	"auragen/internal/memory"
	"auragen/internal/types"
)

// Event is one input delivered to a process: either a message on a channel
// or an asynchronous signal.
type Event struct {
	// FD is the channel descriptor the message arrived on (message events).
	FD types.FD
	// Data is the message payload (message events), read-only as Read's
	// result is.
	Data []byte
	// Signal is the delivered signal (signal events).
	Signal types.Signal
	// IsSignal distinguishes the two event flavors.
	IsSignal bool
}

// API is the syscall surface the kernel exposes to a process. It is
// implemented by the kernel's Proc type; guests never see kernel internals.
//
// Blocking calls (Read, Call, NextEvent, Open) return types.ErrCrashed if
// the process's cluster fails while they wait; the Guest must propagate
// that error out of Run.
type API interface {
	// PID returns the process's globally unique id (stable across
	// recovery, §7.5.1).
	PID() types.PID

	// Args returns the deterministic argument string the process was
	// spawned or forked with.
	Args() []byte

	// Recovered reports whether this execution is a backup rolling
	// forward after a crash (true) or a fresh start (false).
	Recovered() bool

	// Space returns the process address space. All persistent guest state
	// must live here.
	Space() *memory.AddressSpace

	// Open opens a name and returns a channel descriptor. File names
	// ("/data/log") open a channel to the file server bound to that file;
	// names beginning "chan:" rendezvous with another process opening the
	// same name; "serve:" names register the first opener as a listener
	// and connect every later opener to it; "tty:" names open terminal
	// channels. Open blocks until the open reply arrives.
	Open(name string) (types.FD, error)

	// Accept turns an accept notice — delivered as a message on a
	// "serve:" listening descriptor, one per connecting client — into a
	// fresh descriptor for the new channel. The fd assignment is
	// deterministic, so roll-forward re-accepts identically.
	Accept(notice []byte) (types.FD, error)

	// Close closes a descriptor.
	Close(fd types.FD) error

	// Read blocks until a message is available on fd and returns its
	// payload. The bytes are shared with the sender and with the copy
	// saved at the reader's backup (the bus hands one payload to every
	// target): a guest must not modify them; copy them to keep a mutable
	// version.
	Read(fd types.FD) ([]byte, error)

	// ReadAny blocks until a message is available on any of the given
	// descriptors (the paper's bunch/which, §7.5.1) and returns the
	// descriptor it arrived on plus the payload. The choice is the
	// arrival-order-deterministic "lowest sequence number first". The
	// payload is read-only, as Read's is.
	ReadAny(fds []types.FD) (types.FD, []byte, error)

	// Write sends a message on fd. It returns as soon as the message is
	// placed on the cluster's outgoing queue (§7.5.1); the message leaves
	// the cluster no later than the process's next blocking call, sync
	// point, full transmit batch or exit.
	Write(fd types.FD, data []byte) error

	// Call writes a request on fd and blocks for the next message on fd
	// (the "writes which require an answer" pattern, §7.5.1). The reply
	// is read-only, as Read's result is.
	Call(fd types.FD, req []byte) ([]byte, error)

	// NextEvent blocks for the next input across every open descriptor
	// and the signal channel, applying the deterministic ordering and
	// sync-before-signal rules. Reactor-style guests drive their main
	// loop with it. A message event's Data is read-only, as Read's result
	// is.
	NextEvent() (Event, error)

	// SyncPoint marks a state-consistent point: all guest state is in the
	// address space (the kernel calls Guest.FlushState first). The kernel
	// synchronizes primary and backup here if the read-count or
	// virtual-time trigger has fired (§7.8).
	SyncPoint() error

	// Tick advances the process's virtual execution time by n units; the
	// time-based sync trigger counts these.
	Tick(n uint64)

	// Time returns the current time in nanoseconds, obtained from the
	// process server via message so that a recovering backup reads the
	// same answer (§7.5.1).
	Time() (int64, error)

	// Alarm requests a SigAlarm on the signal channel after roughly d of
	// real time (§7.5.2).
	Alarm(d time.Duration) error

	// IgnoreSignal sets whether sig is ignored. Ignored signals are
	// consumed from the signal queue and counted as reads (§7.5.2).
	IgnoreSignal(sig types.Signal, ignore bool) error

	// Nondet performs a nondeterministic event (an asynchronous I/O
	// completion order, a shared-memory observation — §10 future work)
	// and returns its result. During normal execution compute runs and
	// its result is logged by piggybacking on the process's next outgoing
	// message, whose copy the sender's backup sees. During roll-forward
	// the logged results are replayed in order instead of re-running
	// compute; once the log is exhausted (no evidence of further events
	// escaped the failed cluster) compute runs fresh, which is consistent
	// because nothing downstream observed the lost values.
	Nondet(compute func() uint64) (uint64, error)

	// Fork creates a child process running the named program with the
	// given argument. The child joins the parent's family: its backup
	// will live in the family's backup cluster and is created lazily at
	// the child's first sync (§7.7). During roll-forward a re-executed
	// Fork consults birth notices and returns the original child's pid
	// without duplicating it (§7.10.2).
	Fork(program string, args []byte) (types.PID, error)
}

// Guest is a deterministic process body. The kernel runs it on its own
// goroutine.
type Guest interface {
	// Run executes the process from its current state: from the beginning
	// when p.Recovered() is false, or resuming from the state captured at
	// the last sync (address space already restored, UnmarshalRegs already
	// called) when p.Recovered() is true. Run returns nil on normal exit.
	Run(p API) error

	// FlushState writes all mutable guest state into the address space.
	// The kernel calls it immediately before taking a sync snapshot, on
	// the process's own goroutine, so what it costs is time the primary
	// does not run: it should cost what changed since the last call (as
	// memory.KV.Flush does), not what is resident.
	FlushState()

	// MarshalRegs captures the control state that does not live in the
	// address space (a VM's registers and PC; a reactor's phase flag).
	// It is included in every sync message (§5.2: "the virtual address of
	// the next instruction to be executed, current values in registers").
	MarshalRegs() []byte

	// UnmarshalRegs restores control state during recovery.
	UnmarshalRegs(data []byte) error
}

// ReadSafePointer is implemented by guests whose Read calls always happen
// at state-capturable points — the VM, where any instruction boundary is
// fully described by registers plus memory. The kernel may then pause such
// guests at a blocked Read during online backup establishment. Reactor
// guests do not implement it: their mid-handler Calls are not capturable.
type ReadSafePointer interface {
	ReadSafePoint() bool
}

// Factory creates a fresh Guest instance. Recovery uses the factory of the
// registered program name to rebuild the process, then restores its address
// space and registers.
type Factory func() Guest

// Registry maps program names to factories. One Registry is shared by all
// clusters of a system (every cluster can run every program, like text
// pages fetched from the file server).
type Registry struct {
	factories map[string]Factory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]Factory)}
}

// Register binds a program name to a factory. Re-registering a name
// replaces the binding.
func (r *Registry) Register(name string, f Factory) {
	r.factories[name] = f
}

// New instantiates the named program. The second result is false if the
// name is unknown.
func (r *Registry) New(name string) (Guest, bool) {
	f, ok := r.factories[name]
	if !ok {
		return nil, false
	}
	return f(), true
}

// Names returns the registered program names (unordered).
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.factories))
	for n := range r.factories {
		out = append(out, n)
	}
	return out
}
