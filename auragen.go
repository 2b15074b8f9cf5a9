// Package auragen is a from-scratch reproduction of the fault-tolerant
// message system of the Auragen 4000, as described in "A Message System
// Supporting Fault Tolerance" (Borg, Baumbach & Glazer, SOSP 1983).
//
// A System simulates 2–32 clusters on a dual intercluster bus with atomic,
// totally ordered multicast. Every user process ("guest") runs with an
// inactive backup on another cluster: each message it receives is also
// saved at the backup, each message it sends is counted there, and
// periodic synchronizations ship its dirty pages to a page server so that
// after any single cluster failure the backup rolls forward from the last
// sync — reading exactly the saved messages, in order, and suppressing
// sends the failed primary already performed. Fault tolerance is
// transparent: guest code contains no recovery logic.
//
// Quick start:
//
//	reg := auragen.NewRegistry()
//	reg.Register("hello", auragen.ReactorFactory(func() auragen.Handler { ... }))
//	sys, err := auragen.New(auragen.Options{Clusters: 3}, reg)
//	pid, err := sys.Spawn("hello", nil, auragen.SpawnConfig{Cluster: 2})
//	sys.Crash(2)  // the process continues from its backup
//
// See DESIGN.md for the architecture; README.md maps each of the paper's
// evaluation claims to the test that checks it.
package auragen

import (
	"auragen/internal/core"
	"auragen/internal/guest"
	"auragen/internal/types"
)

// System is a running Auragen 4000: clusters, bus, kernels, and servers.
type System = core.System

// Options configures a System.
type Options = core.Options

// SpawnConfig places one process and tunes its sync triggers.
type SpawnConfig = core.SpawnConfig

// New boots a system.
func New(opts Options, reg *Registry) (*System, error) { return core.New(opts, reg) }

// NoBackup disables fault tolerance for one process.
const NoBackup = core.NoBackup

// Registry maps program names to guest factories.
type Registry = guest.Registry

// NewRegistry returns an empty program registry.
func NewRegistry() *Registry { return guest.NewRegistry() }

// Guest is a deterministic process body (see guest.Guest).
type Guest = guest.Guest

// Factory creates fresh Guest instances.
type Factory = guest.Factory

// API is the syscall surface exposed to guests.
type API = guest.API

// Handler is the application-facing interface of reactor guests.
type Handler = guest.Handler

// HandlerFuncs adapts plain functions to Handler.
type HandlerFuncs = guest.HandlerFuncs

// State is the durable, page-backed state of a reactor guest.
type State = guest.State

// Reactor wraps a Handler into a Guest.
func Reactor(h Handler) Guest { return guest.Reactor(h) }

// ReactorFactory builds a Factory over a Handler constructor.
func ReactorFactory(mk func() Handler) Factory { return guest.ReactorFactory(mk) }

// Event is one input delivered to a guest.
type Event = guest.Event

// Core identifier types.
type (
	// PID is a globally unique process id.
	PID = types.PID
	// ClusterID identifies one processing unit.
	ClusterID = types.ClusterID
	// FD is a process-local channel descriptor.
	FD = types.FD
	// Signal is an asynchronous signal number.
	Signal = types.Signal
	// BackupMode selects post-crash re-backup behavior (§7.3).
	BackupMode = types.BackupMode
)

// Backup modes (§7.3).
const (
	// Quarterback processes get no new backup after a crash (default).
	Quarterback = types.Quarterback
	// Halfback processes get a new backup when the failed cluster
	// returns to service.
	Halfback = types.Halfback
	// Fullback processes get a new backup before the new primary runs.
	Fullback = types.Fullback
)

// Signals.
const (
	// SigInt is a terminal interrupt (control-C).
	SigInt = types.SigInt
	// SigAlarm fires after an Alarm request.
	SigAlarm = types.SigAlarm
	// SigTerm asks a process to exit.
	SigTerm = types.SigTerm
	// SigUser is application-defined.
	SigUser = types.SigUser
)

// NoCluster marks an absent cluster.
const NoCluster = types.NoCluster
