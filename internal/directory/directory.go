// Package directory holds the global configuration and location state that
// the Auragen hardware and the process server make available to every
// kernel: which clusters host which system servers, where each process and
// its backup live, and allocators for globally unique process and channel
// identifiers.
//
// In the paper this knowledge is split between static hardware wiring
// (peripheral servers sit in the two clusters connected to their device,
// §7.6) and the process server, which "keeps track of the location of all
// processes in the system" via periodic kernel reports (§7.6). Kernels here
// consult this shared structure directly where the paper's kernels would
// consult their local copy of that configuration or ask the process server;
// the process server process (internal/procserver) serves the same data
// over channels for user-visible queries and the time service.
package directory

import (
	"sort"
	"sync"
	"sync/atomic"

	"auragen/internal/types"
)

// Well-known PIDs for system and peripheral servers. A server keeps its
// PID across a crash: the backup takes over the primary's identity.
const (
	// PIDPageServer is the global page server (§7.6).
	PIDPageServer types.PID = 2
	// PIDFileServer is the file server for the root file system (§7.6).
	PIDFileServer types.PID = 3
	// PIDProcServer is the process server (§7.6).
	PIDProcServer types.PID = 4
	// PIDTTYServer is the terminal server (§7.6).
	PIDTTYServer types.PID = 5
	// PIDKernel stands for "the kernel" as a message source (signals,
	// birth notices); it is not a schedulable process.
	PIDKernel types.PID = 1
	// FirstUserPID is the first PID handed to user processes.
	FirstUserPID types.PID = 100
)

// ServiceLoc records where a server's primary and active backup run.
type ServiceLoc struct {
	Primary types.ClusterID
	Backup  types.ClusterID
}

// ProcLoc records where a process and its inactive backup live.
type ProcLoc struct {
	Cluster       types.ClusterID
	BackupCluster types.ClusterID
	Mode          types.BackupMode
	// Family is the head-of-family PID (all members of a family keep
	// their backups in a single cluster, §7.7).
	Family types.PID
	// Inc is the incarnation of Cluster at the moment the process was
	// placed or promoted there. A route stamped from a ProcLoc therefore
	// names not just a cluster but a cluster *life*: traffic addressed to
	// a superseded life is fenced by the receiving kernel.
	Inc types.Incarnation
}

// Directory is shared by all kernels of one system. Safe for concurrent
// use.
type Directory struct {
	mu       sync.Mutex
	services map[types.PID]ServiceLoc
	procs    map[types.PID]ProcLoc
	// lost records processes destroyed by multiple failures: both the
	// primary and backup copies are gone, so no promotion is possible. The
	// paper's single-fault contract does not cover them (§6); the facade
	// reports types.ErrTooManyFailures instead of pretending they exited.
	lost map[types.PID]bool
	// incs is the authoritative per-cluster incarnation ledger. Absent
	// entries read as 1 (first service life). ApplyCrash bumps the
	// declared-dead cluster's incarnation — wrongful declarations included,
	// which is exactly what lets a wrongly-accused live primary discover
	// it has been superseded — and repair re-integration bumps it again.
	incs map[types.ClusterID]types.Incarnation

	nextPID     types.PID
	nextChannel types.ChannelID

	// changed is the channel the next Notify closes (nil: nobody waits).
	changed atomic.Pointer[chan struct{}]
}

// New returns an empty directory.
func New() *Directory {
	return &Directory{
		services:    make(map[types.PID]ServiceLoc),
		procs:       make(map[types.PID]ProcLoc),
		lost:        make(map[types.PID]bool),
		incs:        make(map[types.ClusterID]types.Incarnation),
		nextPID:     FirstUserPID,
		nextChannel: 1,
	}
}

// Changed returns a channel that the next Notify closes. A waiter takes it
// BEFORE it looks at the state it waits for and then blocks on it: a change
// made after the look closes the channel, and one made before it is seen by
// the look, so no change is missed. Every location write notifies (write);
// kernels notify after dispatching bus-ordered control traffic, and core
// after its own transitions.
func (d *Directory) Changed() <-chan struct{} {
	for {
		if p := d.changed.Load(); p != nil {
			return *p
		}
		ch := make(chan struct{})
		if d.changed.CompareAndSwap(nil, &ch) {
			return ch
		}
	}
}

// Notify wakes everyone holding a Changed channel. With nobody waiting it
// costs one atomic load.
func (d *Directory) Notify() {
	if p := d.changed.Load(); p != nil && d.changed.CompareAndSwap(p, nil) {
		close(*p)
	}
}

// write locks the directory for a location write and returns what ends
// it: unlock, then Notify.
func (d *Directory) write() (end func()) {
	d.mu.Lock()
	return func() {
		d.mu.Unlock()
		d.Notify()
	}
}

// AllocPID returns a fresh globally unique process id.
func (d *Directory) AllocPID() types.PID {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.nextPID
	d.nextPID++
	return p
}

// AllocChannel returns a fresh globally unique channel id.
func (d *Directory) AllocChannel() types.ChannelID {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := d.nextChannel
	d.nextChannel++
	return c
}

// SetService records the clusters hosting a server.
func (d *Directory) SetService(pid types.PID, loc ServiceLoc) {
	defer d.write()()
	d.services[pid] = loc
}

// Service returns the location of a server.
func (d *Directory) Service(pid types.PID) (ServiceLoc, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.services[pid]
	return l, ok
}

// SetProc records a process location. A zero Inc is stamped with the
// primary cluster's current incarnation, so every route read back from the
// directory names the cluster life it was placed in.
func (d *Directory) SetProc(pid types.PID, loc ProcLoc) {
	defer d.write()()
	if loc.Inc == 0 && loc.Cluster != types.NoCluster {
		loc.Inc = d.incarnationLocked(loc.Cluster)
	}
	d.procs[pid] = loc
}

// Proc returns a process location.
func (d *Directory) Proc(pid types.PID) (ProcLoc, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.procs[pid]
	return l, ok
}

// RemoveProc forgets an exited process.
func (d *Directory) RemoveProc(pid types.PID) {
	defer d.write()()
	delete(d.procs, pid)
}

// Procs returns all known process ids in ascending order.
func (d *Directory) Procs() []types.PID {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]types.PID, 0, len(d.procs))
	for p := range d.procs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Mode returns the backup mode of pid (Quarterback if unknown).
func (d *Directory) Mode(pid types.PID) types.BackupMode {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.procs[pid].Mode
}

// IsFullback reports whether pid is a known fullback process. Crash
// handling uses it to mark channels unusable (§7.10.1).
func (d *Directory) IsFullback(pid types.PID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.procs[pid]
	return ok && l.Mode == types.Fullback
}

// ApplyCrash rewrites locations after cluster crashed fails: processes
// whose primary ran there move to their backup cluster (which then has no
// backup); processes whose backup ran there lose the backup. Server
// locations are updated the same way. It returns the pids whose primaries
// moved (i.e. whose backups must be promoted somewhere).
func (d *Directory) ApplyCrash(crashed types.ClusterID) []types.PID {
	defer d.write()()
	// The declared-dead cluster's service life ends here, whether the
	// declaration was accurate or a detector false positive: if a live
	// kernel is still running behind a partition it is now a superseded
	// incarnation, and the bumped number is what fences its traffic.
	d.incs[crashed] = d.incarnationLocked(crashed) + 1
	var promoted []types.PID
	for pid, l := range d.procs {
		switch {
		case l.Cluster == crashed:
			l.Cluster = l.BackupCluster
			l.BackupCluster = types.NoCluster
			if l.Cluster != types.NoCluster {
				l.Inc = d.incarnationLocked(l.Cluster)
			}
			d.procs[pid] = l
			if l.Cluster != types.NoCluster {
				promoted = append(promoted, pid)
			} else {
				// Primary gone with no backup to promote: a multiple
				// failure destroyed the process.
				d.lost[pid] = true
			}
		case l.BackupCluster == crashed:
			l.BackupCluster = types.NoCluster
			d.procs[pid] = l
		}
	}
	for pid, l := range d.services {
		switch {
		case l.Primary == crashed:
			l.Primary = l.Backup
			l.Backup = types.NoCluster
			d.services[pid] = l
		case l.Backup == crashed:
			l.Backup = types.NoCluster
			d.services[pid] = l
		}
	}
	sort.Slice(promoted, func(i, j int) bool { return promoted[i] < promoted[j] })
	return promoted
}

// Incarnation returns cluster c's current incarnation (1 for a cluster
// that has never been declared dead).
func (d *Directory) Incarnation(c types.ClusterID) types.Incarnation {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.incarnationLocked(c)
}

func (d *Directory) incarnationLocked(c types.ClusterID) types.Incarnation {
	if i, ok := d.incs[c]; ok {
		return i
	}
	return 1
}

// BumpIncarnation advances cluster c into its next service life and
// returns the new incarnation. Repair calls it when a fresh kernel boots
// on repaired hardware, so the replacement never shares an incarnation
// with the life the crash (or wrongful declaration) ended.
func (d *Directory) BumpIncarnation(c types.ClusterID) types.Incarnation {
	defer d.write()()
	d.incs[c] = d.incarnationLocked(c) + 1
	return d.incs[c]
}

// ApplyCrashProcess rewrites one process's location after an isolatable
// single-process failure (§10): the backup cluster becomes the primary.
// It returns the new primary cluster (NoCluster if the process had no
// backup and is therefore lost).
func (d *Directory) ApplyCrashProcess(pid types.PID) types.ClusterID {
	defer d.write()()
	l, ok := d.procs[pid]
	if !ok {
		return types.NoCluster
	}
	l.Cluster = l.BackupCluster
	l.BackupCluster = types.NoCluster
	if l.Cluster == types.NoCluster {
		delete(d.procs, pid)
		d.lost[pid] = true
		return types.NoCluster
	}
	l.Inc = d.incarnationLocked(l.Cluster)
	d.procs[pid] = l
	return l.Cluster
}

// MarkLost records pid as destroyed by a multiple failure (for example, a
// promoted backup whose page restore could not complete because the page
// account's hosts were also gone). The location entry, if any, is removed.
func (d *Directory) MarkLost(pid types.PID) {
	defer d.write()()
	delete(d.procs, pid)
	d.lost[pid] = true
}

// IsLost reports whether pid was destroyed by a multiple failure.
func (d *Directory) IsLost(pid types.PID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lost[pid]
}

// SetBackup records a newly created backup location for pid (fullback
// re-backup, or a halfback's cluster returning to service).
func (d *Directory) SetBackup(pid types.PID, backup types.ClusterID) {
	defer d.write()()
	if l, ok := d.procs[pid]; ok {
		l.BackupCluster = backup
		d.procs[pid] = l
		return
	}
	if l, ok := d.services[pid]; ok {
		l.Backup = backup
		d.services[pid] = l
	}
}
