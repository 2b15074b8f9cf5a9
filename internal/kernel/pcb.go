package kernel

import (
	"sort"
	"sync"

	"auragen/internal/guest"
	"auragen/internal/memory"
	"auragen/internal/types"
)

// PCB is the process control block of a live (primary) process: the
// combined UNIX user and process structures of §7.7, plus the counters the
// message system keeps for synchronization.
type PCB struct {
	pid     types.PID
	program string
	args    []byte
	mode    types.BackupMode
	family  types.PID
	parent  types.PID

	cluster       types.ClusterID
	backupCluster types.ClusterID

	g     guest.Guest
	space *memory.AddressSpace

	// Sync tuning (§7.8: "It is possible to set the message count and
	// execution time interval which trigger sync for each process").
	syncReads uint32
	syncTicks uint64
	// fullCheckpoint selects the §2 explicit-checkpointing baseline:
	// syncs copy the whole data space, not just dirty pages.
	fullCheckpoint bool

	// Everything below is guarded by the kernel mutex.

	// cond wakes the process goroutine when input arrives; it shares the
	// kernel mutex.
	cond *sync.Cond

	epoch types.Epoch
	fds   map[types.FD]types.ChannelID
	// fdOrder caches openFDs' result; open, accept and close reset it.
	fdOrder []types.FD
	nextFD  types.FD
	exited  bool
	crashed bool

	signalCh   types.ChannelID
	sigIgnore  map[types.Signal]bool
	signalNext bool

	readsSinceSync uint32
	ticksSinceSync uint64

	// totalReads counts guest-visible input events (message reads and
	// delivered signals) since the process was born — the absolute input
	// position decision-log entries pin signal deliveries to under the
	// llft strategy. Rule-1 consumption of ignored signals is NOT counted:
	// its timing is scheduler-dependent and invisible to the guest, so
	// counting it would make replayed positions unmatchable.
	totalReads uint64
	// decisionSeq numbers the decision-log entries this leader has
	// streamed (llft).
	decisionSeq uint64
	// signalPlan holds the decision log installed at promotion (llft):
	// absolute totalReads positions at which signal deliveries must be
	// replayed, in recorded order. Consumed from the front.
	signalPlan []uint64

	// recovered marks a promoted backup rolling forward.
	recovered bool
	// readSafe reports that every Read by this guest happens at a
	// state-capturable point (VM guests), so establishment may pause
	// blocked reads too, not just NextEvent boundaries.
	readSafe bool
	// Online backup establishment state (halfbacks, §7.3; see
	// establish.go).
	establishing         bool
	establishTarget      types.ClusterID
	establishAcks        map[types.ClusterID]bool
	establishSyncPending bool
	establishDupes       map[types.ChannelID]uint32
	// nondetPending holds nondeterministic-event results not yet escaped;
	// they piggyback on the next outgoing data message (§10).
	nondetPending []uint64
	// nondetLog holds logged results to replay during roll-forward.
	nondetLog []uint64
	// suppressTotal is the sum of the primary entries' re-send budgets
	// (routing.Entry.Unsent, §5.4): while it is positive the process is
	// still regenerating sends its failed primary let escape.
	suppressTotal uint32

	// openedSinceSync / closedSinceSync accumulate channel deltas for the
	// next sync message.
	closedSinceSync []types.ChannelID

	// children tracks live child pids; exitedChildren accumulates exited
	// children to be freed at the next sync (see SyncMsg.FreePIDs).
	children       map[types.PID]struct{}
	exitedChildren []types.PID

	// pageWait receives the restored page account during promotion.
	pageWait chan []memory.Page
	// promoteNanos is the Clock reading when crash handling made this
	// backup runnable (zero if never promoted); the recovery-latency
	// metric measures from here to the start of roll-forward execution.
	promoteNanos int64

	// done is closed when the process goroutine finishes.
	done chan struct{}
	// runErr is the error Run returned (nil on clean exit).
	runErr error
}

// openFDs returns the process's open descriptors in ascending order, for
// deterministic iteration. The result is shared between callers until the
// descriptor table next changes: read it, do not modify it. Caller holds
// the kernel mutex.
func (p *PCB) openFDs() []types.FD {
	if p.fdOrder == nil {
		p.fdOrder = make([]types.FD, 0, len(p.fds))
		for fd := range p.fds {
			p.fdOrder = append(p.fdOrder, fd)
		}
		sort.Slice(p.fdOrder, func(i, j int) bool { return p.fdOrder[i] < p.fdOrder[j] })
	}
	return p.fdOrder
}

// PID returns the process id.
func (p *PCB) PID() types.PID { return p.pid }

// Program returns the registered program name.
func (p *PCB) Program() string { return p.program }

// Mode returns the backup mode.
func (p *PCB) Mode() types.BackupMode { return p.mode }

// Done returns a channel closed when the process goroutine exits.
func (p *PCB) Done() <-chan struct{} { return p.done }

// Err returns the error the guest's Run returned, once Done is closed.
func (p *PCB) Err() error { return p.runErr }

// BackupPCB is the inactive backup's record of a process: the state as of
// the last sync (or as of creation, for processes that have not yet
// synced), kept by the kernel of the backup's cluster. The saved message
// queues live in the routing table's Backup entries; the page account lives
// at the page server.
type BackupPCB struct {
	pid            types.PID
	program        string
	args           []byte
	mode           types.BackupMode
	family         types.PID
	parent         types.PID
	primaryCluster types.ClusterID

	epoch      types.Epoch
	regs       []byte
	fds        map[types.FD]types.ChannelID
	nextFD     types.FD
	signalCh   types.ChannelID
	sigIgnore  map[types.Signal]bool
	signalNext bool

	// synced reports whether the process has ever synced; a never-synced
	// backup replays from the beginning using the messages saved since
	// birth.
	synced bool
	// exitedPending marks a child that exited but whose state is retained
	// until the parent's next sync (so a replayed fork can still suppress
	// the dead child's sends).
	exitedPending bool
	// requiresSync marks an establishment shell: not viable for promotion
	// until its first sync arrives (its save queues do not reach back to
	// the process's birth).
	requiresSync bool

	// decisions is the recorded decision log (llft): the absolute
	// totalReads position of each signal delivery the leader announced,
	// in arrival order. Promotion installs it as the new primary's
	// signalPlan.
	decisions []uint64
	// readsBase is the leader's totalReads as of the state this record
	// holds (the establishment sync, or the last checkpoint); promotion
	// restarts the input-position counter here so plan entries match.
	readsBase uint64
}

// PID returns the backed-up process id.
func (b *BackupPCB) PID() types.PID { return b.pid }

// Epoch returns the last synchronized epoch.
func (b *BackupPCB) Epoch() types.Epoch { return b.epoch }

// cloneFDs copies an fd table.
func cloneFDs(in map[types.FD]types.ChannelID) map[types.FD]types.ChannelID {
	out := make(map[types.FD]types.ChannelID, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// cloneSigSet copies a signal-ignore set.
func cloneSigSet(in map[types.Signal]bool) map[types.Signal]bool {
	out := make(map[types.Signal]bool, len(in))
	for k, v := range in {
		if v {
			out[k] = true
		}
	}
	return out
}

// sigSetToSlice converts an ignore set to a sorted slice for encoding.
func sigSetToSlice(in map[types.Signal]bool) []types.Signal {
	var out []types.Signal
	for s := types.Signal(0); s < 32; s++ {
		if in[s] {
			out = append(out, s)
		}
	}
	return out
}

// sigSliceToSet converts an encoded ignore list back to a set.
func sigSliceToSet(in []types.Signal) map[types.Signal]bool {
	out := make(map[types.Signal]bool, len(in))
	for _, s := range in {
		out[s] = true
	}
	return out
}
