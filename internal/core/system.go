// Package core assembles a complete Auragen 4000 system: 2–32 clusters on
// a dual intercluster bus, each running an independent Auros kernel, plus
// the backed-up system and peripheral servers (page, file, process,
// terminal), the failure detector, and administrative operations — spawning
// fault-tolerant processes, injecting cluster crashes, typing at terminals.
//
// This is the library's public face: examples, the simulator and the
// benchmark talk to a System.
package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"auragen/internal/bus"
	"auragen/internal/directory"
	"auragen/internal/disk"
	"auragen/internal/fault"
	"auragen/internal/fileserver"
	"auragen/internal/guest"
	"auragen/internal/kernel"
	"auragen/internal/memory"
	"auragen/internal/pager"
	"auragen/internal/procserver"
	"auragen/internal/replication"
	"auragen/internal/trace"
	"auragen/internal/ttyserver"
	"auragen/internal/types"
)

// Limits from §7.1: "The Auragen 4000 consists of 2 to 32 clusters".
const (
	MinClusters = 2
	MaxClusters = 32
)

// Options configures a System.
type Options struct {
	// Clusters is the number of processing units (2–32; default 3, the
	// minimum for fullbacks to exist after a crash, §7.3).
	Clusters int
	// SyncReads and SyncTicks are the default per-process sync triggers
	// (§7.8); zero selects kernel defaults.
	SyncReads uint32
	SyncTicks uint64
	// PageFetchTimeout bounds a promoted backup's roll-forward page fetch;
	// zero selects kernel.DefaultPageFetchTimeout. Fault-injection
	// campaigns shorten it so double failures surface quickly.
	PageFetchTimeout time.Duration
	// EventLogLimit bounds the in-memory event log (0 disables logging).
	EventLogLimit int
	// Clock is the timestamp source threaded through every kernel and the
	// event log. Nil selects the wall clock; pass types.NewLogicalClock to
	// make same-seed runs produce identical timelines (§5/§6 determinism).
	Clock types.Clock
	// ScheduleSeed, when non-zero, turns on the seeded schedule perturber:
	// every kernel gets transmit-coalesce and inbox-drain jitter, and the
	// failure detector gets debounce jitter, all split
	// deterministically from this one seed (a repaired cluster's fresh
	// kernel re-derives its streams from the same seed, salted by its
	// repair generation). All perturbations stay inside the partial-order
	// rules — FIFO prefixes only, debounce extended never shortened — so
	// any schedule they produce is one the §5/§6 contract must survive.
	// Zero (the default) keeps every jitter hook off.
	ScheduleSeed uint64
	// Replication selects the backup-protocol policy every kernel runs:
	// replication.ThreeWay (the paper's scheme, the zero value),
	// replication.LLFT (leader-follower decision streaming), or
	// replication.MsgLog (pessimistic message logging, full-image
	// captures).
	Replication replication.Kind
}

// System is one running Auragen 4000.
type System struct {
	opts     Options
	bus      *bus.Bus
	dir      *directory.Directory
	metrics  *trace.Metrics
	log      *trace.EventLog
	registry *guest.Registry

	kernels []*kernel.Kernel
	pagers  [2]*pager.Server

	// Server instances indexed by hosting cluster (0 or 1).
	fs        [2]*fileserver.Server
	procSrv   [2]*procserver.Server
	ttySrv    [2]*ttyserver.Server
	ttyDevice *ttyserver.Device
	fsDisk    *disk.Disk

	detector *fault.Detector

	mu      sync.Mutex
	crashed map[types.ClusterID]bool
	// repair tracks each cluster's position in the repair lifecycle
	// (types.RepairPhase); absent means RepairIdle.
	repair  map[types.ClusterID]types.RepairPhase
	stopped bool
	// probeFaults holds injected detector false positives: the next N
	// probes of a cluster lie "dead" regardless of its actual health.
	probeFaults map[types.ClusterID]int
	// repairGen counts completed Repair attempts per cluster, salting the
	// schedule-jitter streams of each successive kernel incarnation.
	repairGen map[types.ClusterID]uint64
	// corruptOnce installs the bus corrupter closure exactly once (see
	// ArmBusCorrupt in partition.go).
	corruptOnce sync.Once
	// marks numbers the marks core broadcasts (KindMark).
	marks atomic.Uint64
}

// scheduleRNGs derives one cluster's schedule-perturbation RNG pair
// (transmit-coalesce, inbox-drain) from the system ScheduleSeed. gen
// distinguishes a cluster's successive kernel incarnations (0 at boot,
// then its repair count), so a repaired kernel replays a distinct but
// seed-determined jitter stream. A zero seed means jitter is off.
func scheduleRNGs(seed uint64, c types.ClusterID, gen uint64) (drain, rx *types.RNG) {
	if seed == 0 {
		return nil, nil
	}
	base := types.NewRNG(seed ^ uint64(c+1)*0x9E3779B97F4A7C15 ^ (gen+1)*0xA0761D6478BD642F)
	return types.NewRNG(base.Next()), types.NewRNG(base.Next())
}

// bootKernel constructs cluster c's kernel for its gen-th service life (0 at
// boot, then its repair count) and attaches it to the bus.
func (s *System) bootKernel(c types.ClusterID, gen uint64) *kernel.Kernel {
	drain, rx := scheduleRNGs(s.opts.ScheduleSeed, c, gen)
	return kernel.New(kernel.Config{
		ID:               c,
		Bus:              s.bus,
		Dir:              s.dir,
		Registry:         s.registry,
		Metrics:          s.metrics,
		Log:              s.log,
		SyncReads:        s.opts.SyncReads,
		SyncTicks:        s.opts.SyncTicks,
		Clock:            s.opts.Clock,
		PageFetchTimeout: s.opts.PageFetchTimeout,
		DrainJitter:      drain,
		RxJitter:         rx,
		Replication:      s.opts.Replication,
	})
}

// SpawnConfig places one process.
type SpawnConfig struct {
	// Mode is the backup mode (§7.3); default Quarterback, the paper's
	// default.
	Mode types.BackupMode
	// Cluster hosts the primary (default: chosen round-robin).
	Cluster types.ClusterID
	// BackupCluster hosts the backup (default: the next live cluster).
	// Set NoBackup to run without fault tolerance.
	BackupCluster types.ClusterID
	// SyncReads/SyncTicks override the sync triggers for this process.
	SyncReads uint32
	SyncTicks uint64
	// FullCheckpoint selects the §2 explicit-checkpointing baseline for
	// this process (experiments only).
	FullCheckpoint bool
}

// NoBackup disables fault tolerance for one process.
const NoBackup types.ClusterID = -2

// New boots a system. The registry binds program names to guest factories;
// register programs before spawning them.
func New(opts Options, registry *guest.Registry) (*System, error) {
	if opts.Clusters == 0 {
		opts.Clusters = 3
	}
	if opts.Clusters < MinClusters || opts.Clusters > MaxClusters {
		return nil, fmt.Errorf("core: %d clusters outside [%d,%d]", opts.Clusters, MinClusters, MaxClusters)
	}
	if registry == nil {
		registry = guest.NewRegistry()
	}

	if opts.Clock == nil {
		opts.Clock = types.WallClock{}
	}

	obs := NewObservability(opts.EventLogLimit)
	obs.Log.SetClock(opts.Clock)
	s := &System{
		opts:        opts,
		dir:         directory.New(),
		metrics:     obs.Metrics,
		log:         obs.Log,
		registry:    registry,
		crashed:     make(map[types.ClusterID]bool),
		repair:      make(map[types.ClusterID]types.RepairPhase),
		probeFaults: make(map[types.ClusterID]int),
		repairGen:   make(map[types.ClusterID]uint64),
	}
	s.bus = bus.New(s.metrics, s.log)

	for i := 0; i < opts.Clusters; i++ {
		s.kernels = append(s.kernels, s.bootKernel(types.ClusterID(i), 0))
	}

	k0, k1 := s.kernels[0], s.kernels[1]

	// Page server: one deterministic-replica instance per pager cluster,
	// each over its own mirror of the disk pair (see internal/pager).
	pagerDisk0 := disk.New("pager-mirror-0", memory.DefaultPageSize, 0, 1)
	pagerDisk1 := disk.New("pager-mirror-1", memory.DefaultPageSize, 0, 1)
	s.pagers[0] = pager.New(0, pagerDisk0)
	s.pagers[1] = pager.New(1, pagerDisk1)
	s.pagers[0].SetEventLog(s.log)
	s.pagers[1].SetEventLog(s.log)
	k0.SetPager(s.pagers[0])
	k1.SetPager(s.pagers[1])
	s.dir.SetService(directory.PIDPageServer, directory.ServiceLoc{Primary: 0, Backup: 1})

	// File server over a dual-ported disk shared by clusters 0 and 1.
	s.fsDisk = disk.New("fs", 4096, 0, 1)
	fsP, fsT, err := fileserver.Register(k0, k1, s.fsDisk)
	if err != nil {
		return nil, err
	}
	s.fs[0], s.fs[1] = fsP, fsT

	// Process server and terminal server pairs.
	s.procSrv[0], s.procSrv[1] = procserver.Register(k0, k1)
	s.ttyDevice = ttyserver.NewDevice(s.dir.Notify)
	s.ttySrv[0], s.ttySrv[1] = ttyserver.Register(k0, k1, s.ttyDevice)

	for _, k := range s.kernels {
		k.Start()
	}

	var detJitter *types.RNG
	if opts.ScheduleSeed != 0 {
		detJitter = types.NewRNG(opts.ScheduleSeed ^ 0xD3746E7E0D5A8F31)
	}
	s.detector = fault.New(fault.Config{
		Jitter: detJitter,
		Probe: func(c types.ClusterID) bool {
			if s.consumeProbeFault(c) {
				return false
			}
			// Probes ride the intercluster bus: a cluster with every
			// inbound path severed cannot answer, however healthy its
			// hardware — the partition case the incarnation protocol
			// exists for.
			if !s.bus.Reachable(c) {
				return false
			}
			k := s.kern(c)
			return k != nil && !k.Crashed()
		},
		OnCrash: s.handleDetectedCrash,
	})
	for i := range s.kernels {
		s.detector.Watch(types.ClusterID(i))
	}

	return s, nil
}

// Registry returns the program registry.
func (s *System) Registry() *guest.Registry { return s.registry }

// Register binds a program name to a factory on the system registry.
func (s *System) Register(name string, f guest.Factory) {
	s.registry.Register(name, f)
}

// Metrics returns the system-wide metrics sink.
func (s *System) Metrics() *trace.Metrics { return s.metrics }

// EventLog returns the event log (nil when disabled).
func (s *System) EventLog() *trace.EventLog { return s.log }

// Directory returns the shared directory (read-mostly; intended for tests
// and tooling).
func (s *System) Directory() *directory.Directory { return s.dir }

// Kernel returns the kernel of cluster c (the current one: Repair
// replaces a crashed cluster's kernel with a fresh boot).
func (s *System) Kernel(c types.ClusterID) *kernel.Kernel { return s.kern(c) }

// kern is the locked accessor used internally.
func (s *System) kern(c types.ClusterID) *kernel.Kernel {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(c) < 0 || int(c) >= len(s.kernels) {
		return nil
	}
	return s.kernels[int(c)]
}

// Clusters returns the configured cluster count.
func (s *System) Clusters() int { return len(s.kernels) }

// Live returns the live clusters, ascending.
func (s *System) Live() []types.ClusterID { return s.bus.Live() }

// CrashedClusters returns the clusters currently out of service, ascending.
// Sequential chaos campaigns use it to find what still needs Repair.
func (s *System) CrashedClusters() []types.ClusterID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []types.ClusterID
	for c := types.ClusterID(0); int(c) < len(s.kernels); c++ {
		if s.crashed[c] {
			out = append(out, c)
		}
	}
	return out
}

// Pager returns pager instance i (0 or 1).
func (s *System) Pager(i int) *pager.Server { return s.pagers[i] }

// FSDisk returns the file server's dual-ported disk.
func (s *System) FSDisk() *disk.Disk { return s.fsDisk }

// GuestErrors returns recent guest failures across all clusters.
func (s *System) GuestErrors() []string {
	s.mu.Lock()
	ks := append([]*kernel.Kernel(nil), s.kernels...)
	s.mu.Unlock()
	var out []string
	for _, k := range ks {
		out = append(out, k.GuestErrors()...)
	}
	return out
}

// Spawn creates a fault-tolerant head-of-family process (§7.7): the
// primary's PCB on its cluster and the backup shell on the backup cluster,
// both created eagerly.
func (s *System) Spawn(program string, args []byte, cfg SpawnConfig) (types.PID, error) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return types.NoPID, types.ErrShutdown
	}
	primary := cfg.Cluster
	if s.crashed[primary] {
		s.mu.Unlock()
		return types.NoPID, fmt.Errorf("core: spawn on crashed %v: %w", primary, types.ErrNoCluster)
	}
	// Backup placement: an explicit cluster is honored; NoBackup disables
	// fault tolerance; a backup equal to the primary (including the zero
	// value when both default to cluster 0) selects the next live cluster
	// automatically.
	backup := cfg.BackupCluster
	switch {
	case backup == NoBackup:
		backup = types.NoCluster
	case backup == primary || backup == types.NoCluster:
		backup = s.nextLiveLocked(primary)
	}
	s.mu.Unlock()

	k := s.kern(primary)
	if k == nil {
		return types.NoPID, types.ErrNoCluster
	}
	pcb, err := k.Spawn(program, args, kernel.SpawnOpts{
		Mode:           cfg.Mode,
		BackupCluster:  backup,
		SyncReads:      cfg.SyncReads,
		SyncTicks:      cfg.SyncTicks,
		FullCheckpoint: cfg.FullCheckpoint,
	})
	if err != nil {
		return types.NoPID, err
	}
	return pcb.PID(), nil
}

// nextLiveLocked picks the lowest live cluster other than avoid.
func (s *System) nextLiveLocked(avoid types.ClusterID) types.ClusterID {
	for _, c := range s.bus.Live() {
		if c != avoid {
			return c
		}
	}
	return types.NoCluster
}

// Crash injects a single-point hardware failure taking down cluster c: the
// cluster halts losing all volatile state, the failure detector notices,
// the directory is brought up to date, and a crash notice is broadcast on
// the bus so every surviving kernel begins crash handling at the same point
// in the message order (§7.10).
func (s *System) Crash(c types.ClusterID) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return types.ErrShutdown
	}
	if s.crashed[c] {
		s.mu.Unlock()
		return fmt.Errorf("core: %v already crashed: %w", c, types.ErrNoCluster)
	}
	if (c == 0 && s.crashed[1]) || (c == 1 && s.crashed[0]) {
		s.mu.Unlock()
		return fmt.Errorf("core: both server clusters down: %w", types.ErrTooManyFailures)
	}
	s.crashed[c] = true
	s.mu.Unlock()
	s.dir.Notify()

	// The cluster halts first (volatile state lost) ...
	s.kern(c).Crash()
	// ... the detector confirms and drives system-wide handling.
	s.detector.Report(c)
	return nil
}

// handleDetectedCrash is the detector callback: update the global location
// state (the process server's knowledge) and broadcast the crash notice.
//
// The accused kernel is deliberately NOT halted here. Detection is a
// verdict about reachability, not a kill switch — there is no remote
// hardware line to yank, and a partitioned-but-alive cluster cannot be
// reached anyway. ApplyCrash bumps the cluster's incarnation, the notice
// carries the new number, and the accused cluster fences itself when the
// notice reaches it (immediately when connected, at partition heal
// otherwise). Until then it is a stale primary whose transmissions every
// receiver rejects as below the advertised incarnation.
func (s *System) handleDetectedCrash(c types.ClusterID) {
	s.mu.Lock()
	s.crashed[c] = true
	// A crash voids any redundancy the cluster had; an in-flight Repair
	// notices s.crashed and records RepairAborted itself. Crash sets
	// s.crashed before it reports, so that record may already stand here.
	if s.repair[c] != types.RepairAborted {
		delete(s.repair, c)
	}
	s.mu.Unlock()
	s.metrics.Crashes.Add(1)
	s.dir.ApplyCrash(c)
	_, _ = s.bus.BroadcastBatch([]*types.Message{crashNotice(c, s.dir.Incarnation(c))})
}

// crashNotice is the bus message declaring cluster c crashed, carrying the
// incarnation its next service life will run under. Core, not a cluster,
// transmits it: Origin NoCluster, so no cluster's outbound link cut drops it
// and no incarnation fence applies to it.
func crashNotice(c types.ClusterID, inc types.Incarnation) *types.Message {
	cn := &kernel.CrashNotice{Crashed: c, Inc: inc}
	return &types.Message{Kind: types.KindCrashNotice, Origin: types.NoCluster, Payload: kernel.Encode(cn)}
}

// FailBus takes one of the two physical intercluster buses down (0-based).
// A single bus failure is tolerated transparently: traffic fails over to
// the survivor (metrics record the failovers). Failing both is a multiple
// failure — senders exhaust their retry budget and degrade.
func (s *System) FailBus(i int) error { return s.bus.FailBus(i) }

// RepairBus returns a failed physical bus to service.
func (s *System) RepairBus(i int) error { return s.bus.RepairBus(i) }

// SetBusFaultHook installs a transient-fault hook on the intercluster bus
// (see bus.FaultHook for the contract). Fault-injection campaigns use it
// to drop individual transmission attempts, which the bus retry path must
// recover from.
func (s *System) SetBusFaultHook(h bus.FaultHook) { s.bus.SetFaultHook(h) }

// InjectProbeFailures makes the failure detector's next n probes of
// cluster c report "dead" regardless of the cluster's actual health — a
// detector false positive. With n below fault.DefaultDebounce the
// debounce absorbs the lie and no crash handling runs.
func (s *System) InjectProbeFailures(c types.ClusterID, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.probeFaults[c] += n
}

// consumeProbeFault burns one injected probe failure for c, if any.
func (s *System) consumeProbeFault(c types.ClusterID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.probeFaults[c] > 0 {
		s.probeFaults[c]--
		return true
	}
	return false
}

// PollDetector drives one failure-detector probe round synchronously: the
// detector's one driver (§7.10's periodic polling, one period per call).
func (s *System) PollDetector() { s.detector.Poll() }

// Degraded reports whether any kernel has entered degraded mode (cut off
// from the bus by a multiple failure). Once true, the §6 single-fault
// contract no longer holds and facade waits return ErrTooManyFailures.
func (s *System) Degraded() bool {
	s.mu.Lock()
	ks := append([]*kernel.Kernel(nil), s.kernels...)
	s.mu.Unlock()
	for _, k := range ks {
		if k.Degraded() {
			return true
		}
	}
	return false
}

// CrashProcess injects an isolatable hardware failure affecting a single
// process (§10 future work, first item): the process is lost, its cluster
// keeps running, and its backup is brought up. Returns an error if the
// process does not exist or its cluster is down (use Crash for whole
// clusters).
func (s *System) CrashProcess(pid types.PID) error {
	loc, ok := s.dir.Proc(pid)
	if !ok {
		return types.ErrNoProcess
	}
	k := s.kern(loc.Cluster)
	if k == nil || k.Crashed() {
		return types.ErrNoCluster
	}
	// The home kernel announces the crash itself, through its outgoing
	// queue, so the notice serializes AFTER everything the dead process had
	// already put in flight (the backup's promotion epoch depends on that
	// order). The directory must reflect the crash before any kernel can
	// dispatch the notice, so update it first.
	s.dir.ApplyCrashProcess(pid)
	if err := k.CrashProcess(pid); err != nil {
		return err
	}
	s.metrics.Crashes.Add(1)
	return nil
}

// Signal sends an asynchronous signal to a process (§7.5.2).
func (s *System) Signal(pid types.PID, sig types.Signal) error {
	loc, ok := s.dir.Proc(pid)
	if !ok {
		return types.ErrNoProcess
	}
	k := s.kern(loc.Cluster)
	if k == nil || k.Crashed() {
		return types.ErrNoCluster
	}
	k.Signal(pid, sig)
	return nil
}

// TypeLine injects one line of terminal input (the device-driver path).
func (s *System) TypeLine(term int, line string) {
	s.withTTYPrimary(func(ctx *kernel.ServerCtx, srv *ttyserver.Server) {
		srv.InjectInput(ctx, term, line)
	})
}

// Interrupt injects a control-C on a terminal: SigInt to every bound
// process (§7.5.2).
func (s *System) Interrupt(term int) {
	s.withTTYPrimary(func(ctx *kernel.ServerCtx, srv *ttyserver.Server) {
		srv.InjectInterrupt(ctx, term)
	})
}

func (s *System) withTTYPrimary(fn func(*kernel.ServerCtx, *ttyserver.Server)) {
	loc, ok := s.dir.Service(directory.PIDTTYServer)
	if !ok || loc.Primary == types.NoCluster {
		return
	}
	k := s.kern(loc.Primary)
	if k == nil {
		return
	}
	k.ServerInject(directory.PIDTTYServer, func(ctx *kernel.ServerCtx, srv kernel.Server) {
		if tty, ok := srv.(*ttyserver.Server); ok {
			fn(ctx, tty)
		}
	})
}

// TerminalOutput returns everything written to terminal term.
func (s *System) TerminalOutput(term int) []string {
	return s.ttyDevice.Output(term)
}

// WaitTerminal blocks until n lines on terminal term start with prefix and
// returns the first n of them; on an error the lines are not meaningful.
// The device announces each line it applies, so this is a condition over
// await like any other; the watchdog error quotes the terminal.
func (s *System) WaitTerminal(term int, prefix string, n int, timeout time.Duration) ([]string, error) {
	n = max(n, 1)
	var lines []string
	err := s.await(fmt.Sprintf("terminal %d: %d %q line(s)", term, n, prefix), timeout, func() (string, error) {
		out := s.ttyDevice.Output(term)
		lines = lines[:0]
		for _, line := range out {
			if strings.HasPrefix(line, prefix) {
				if lines = append(lines, line); len(lines) == n {
					return "", nil
				}
			}
		}
		return fmt.Sprintf("terminal %d shows %q", term, out), nil
	})
	return lines, err
}

// WaitExit blocks until pid exits (is removed from the global process
// table). A process destroyed by a multiple failure, or stranded by a
// degraded (bus-cut) cluster, is not an exit: WaitExit reports
// types.ErrTooManyFailures instead of success or a hang.
func (s *System) WaitExit(pid types.PID, timeout time.Duration) error {
	return s.await(pid.String()+" still alive", timeout, func() (string, error) {
		loc, ok := s.dir.Proc(pid)
		switch {
		case s.dir.IsLost(pid):
			return "", fmt.Errorf("core: %s destroyed by multiple failures: %w", pid, types.ErrTooManyFailures)
		case !ok || loc.Cluster == types.NoCluster:
			return "", nil
		case s.Degraded():
			return "", fmt.Errorf("core: %s stranded, system degraded: %w", pid, types.ErrTooManyFailures)
		}
		return fmt.Sprintf("running on %v", loc.Cluster), nil
	})
}

// Settle waits until the system is quiescent: every kernel has dispatched
// what the bus carried and nothing new was transmitted meanwhile. It repeats
// one barrier round — broadcast a mark, wait for every reachable kernel to
// dispatch it — until a round carries no transmission but its own mark, or
// the timeout expires. Best-effort: aurosim, the soak and tests call it
// between phases.
func (s *System) Settle(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		live, before, n := s.bus.Live(), s.metrics.BusTransmissions.Load(), s.marks.Add(1)
		if s.mark(n) != nil {
			return
		}
		err := s.await("settle", time.Until(deadline), func() (string, error) {
			for _, c := range live {
				if k := s.kern(c); k.Marked() < n && !k.Crashed() && s.bus.Reachable(c) {
					return fmt.Sprintf("%v has not dispatched mark %d", c, n), nil
				}
			}
			return "", nil
		})
		if err != nil || s.metrics.BusTransmissions.Load() == before+1 {
			return
		}
	}
}

// mark broadcasts core's mark n (KindMark), after msgs in the same batch.
// Core transmits it, as it does a crash notice: Origin NoCluster, so no
// link cut or incarnation fence applies, and every attached cluster
// receives it.
func (s *System) mark(n uint64, msgs ...*types.Message) error {
	_, err := s.bus.BroadcastBatch(append(msgs, &types.Message{
		Kind:    types.KindMark,
		Origin:  types.NoCluster,
		Payload: kernel.Encode(&kernel.Mark{N: n}),
	}))
	return err
}

// await is core's one way to wait. It blocks until cond reports done (no
// state, no error) or fails, and looks again whenever something changes: a
// directory write, a kernel's dispatch of control traffic or its
// degradation, or one of core's own transitions (Directory.Changed). The
// timeout is only a watchdog: its error reports the state cond describes at
// that moment — or, if cond holds by then, a lost wakeup, a change nobody
// announced, which must fail a test rather than pass as a slow success.
// Stop ends every wait with types.ErrShutdown.
func (s *System) await(what string, timeout time.Duration, cond func() (state string, err error)) error {
	watchdog := time.NewTimer(timeout)
	defer watchdog.Stop()
	for {
		changed := s.dir.Changed()
		s.mu.Lock()
		stopped := s.stopped
		s.mu.Unlock()
		if stopped {
			return types.ErrShutdown
		}
		state, err := cond()
		if err != nil || state == "" {
			return err
		}
		select {
		case <-changed:
			// Yield once before looking. The close that woke this waiter
			// gave it the processor's next slot, ahead of the process the
			// same dispatch woke; a waiter is background work and goes
			// behind the workload's hand-offs instead.
			runtime.Gosched()
		case <-watchdog.C:
			switch state, err = cond(); {
			case err != nil:
				return err
			case state == "":
				return fmt.Errorf("core: %s: lost wakeup: the condition held when the %v watchdog fired, but no change announced it", what, timeout)
			}
			return fmt.Errorf("core: %s after %v (%s)", what, timeout, state)
		}
	}
}

// Stop shuts the system down.
func (s *System) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	ks := append([]*kernel.Kernel(nil), s.kernels...)
	s.mu.Unlock()
	s.dir.Notify()
	for _, k := range ks {
		if !k.Crashed() {
			k.Stop()
		}
	}
	for _, k := range ks {
		k.Wait()
	}
}
