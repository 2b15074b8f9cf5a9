package core

import (
	"auragen/internal/bus"
	"auragen/internal/trace"
)

// Observability is the single pair of shared sinks every component of one
// system reports into: one Metrics instance (so one Snapshot covers the
// bus, every kernel, and the servers) and one EventLog (so the causal
// history of a run is a single ordered record).
//
// It exists to fix a seed-era bug: bus.New and kernel.New used to
// substitute a private &trace.Metrics{} when handed nil, so a system
// assembled with mismatched nils silently split its counters across
// invisible sinks. Both constructors now require a non-nil Metrics;
// NewObservability is the one place that mints the shared pair.
type Observability struct {
	Metrics *trace.Metrics
	// Log is nil when event recording is disabled; all recording paths
	// treat a nil log as a no-op.
	Log *trace.EventLog
}

// NewObservability mints the shared sinks for one system. eventLogLimit is
// the event-ring capacity; <= 0 disables event recording entirely (the
// zero-cost path).
func NewObservability(eventLogLimit int) Observability {
	o := Observability{Metrics: &trace.Metrics{}}
	if eventLogLimit > 0 {
		o.Log = trace.NewEventLog(eventLogLimit)
	}
	return o
}

// NewBareBus mints a standalone intercluster bus wired to obs, for
// benchmarks and tests that exercise the bus without a full System. It is
// the sanctioned constructor site outside New/Repair: aurolint's
// AURO006 check flags direct bus.New calls elsewhere so every bus shares
// its system's observability sinks.
func NewBareBus(obs Observability) *bus.Bus {
	return bus.New(obs.Metrics, obs.Log)
}
